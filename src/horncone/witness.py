"""Floating-point witnesses: Hermitian matrices with prescribed spectra
summing to a scalar matrix.

Alternating projections between the product of unitary orbits (fixed
spectra) and the affine subspace of families summing to t*I.  Both
projections are exact nearest-point maps in the Frobenius metric, so the
distance to the affine set never increases along a run; stalling at a
positive level is the numerical signature of an infeasible family.  The
result is advisory only -- exact membership always comes from the cone
description.

Each projection step moves whole families at once: the restarts that
run together stack their (s, r, r) families into one (k, s, r, r)
complex128 array, which one call of numpy's own LAPACK kernel
diagonalizes, and each attempt comes out bit for bit as it would alone.
The kernel is ``numpy.linalg._umath_linalg.eigh_lo`` with signature
``D->dD``, the gufunc ``numpy.linalg.eigh`` runs on complex input, so
the same bits without that wrapper's per-call conversions; it runs under
eigh's error state (``_eigh_errstate``), which a search enters once per
wave and ``project_to_orbit`` once per call.  A candidate witness is
then confirmed, one family and one matrix at a time, by an independent
eigensolver: ``hermitian_eigh``, cyclic Jacobi in Python complex
arithmetic for one Hermitian matrix of small order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .subsets import _integer

MAX_ORDER = 12

# hermitian_eigh's off-diagonal threshold (times the matrix norm) and
# sweep limit, and find_witness's stall window in iterations
_JACOBI_TOL = 1e-13
_JACOBI_SWEEPS = 60
_STALL_WINDOW = 150

# After attempt 0, a search runs its restarts in waves of at most this
# many, so its memory does not grow with ``restarts``.
_WAVE = 32

# A search or a verification refuses s spectra of order r and a t with
# an entry above _MAX_SCALE / (r * (s + 1)) in magnitude: below it, no
# entry of sum - t*I exceeds _MAX_SCALE / r, so no residual overflows.
_MAX_SCALE = 1e150


class NumericalFailure(RuntimeError):
    """The eigensolver failed to reach its off-diagonal threshold."""


def _eigenvalues_did_not_converge(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _eigh_errstate():
    """The error state ``numpy.linalg.eigh`` runs its kernel under: the
    kernel reports LAPACK's non-convergence by the invalid flag, which
    raises LinAlgError; overflow, division and underflow are ignored.
    Array arithmetic run inside it follows it too."""
    return np.errstate(call=_eigenvalues_did_not_converge, invalid="call",
                       over="ignore", divide="ignore", under="ignore")


def _frobenius(x):
    """``np.linalg.norm(x)`` without its dispatch: the same real and
    imaginary dot products, so the same bits."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def hermitian_eigh(a):
    """Eigen-decomposition of one Hermitian matrix by cyclic Jacobi
    rotations, in Python complex arithmetic.  Returns (eigenvalues sorted
    decreasing, unitary V) with ``a ~= V diag(w) V*``.  Raises
    NumericalFailure if the off-diagonal norm does not fall below
    _JACOBI_TOL (times the matrix norm) within _JACOBI_SWEEPS sweeps, and
    ValueError unless ``a`` is one square matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need one square matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    m = (m + m.conj().T) / 2
    n = len(m)
    threshold = _JACOBI_TOL * max(1.0, _frobenius(m))
    a = m.tolist()
    v = np.eye(n, dtype=complex).tolist()
    for sweep in range(_JACOBI_SWEEPS + 1):
        off = np.array(a, dtype=complex).reshape(n, n)
        np.fill_diagonal(off, 0)
        off = _frobenius(off)
        if off <= threshold:
            break
        if sweep == _JACOBI_SWEEPS:
            raise NumericalFailure(
                f"Jacobi sweep limit reached, off-diagonal norm {off:.3e}")
        small = threshold / (n * n)
        for p in range(n):
            for q in range(p + 1, n):
                if abs(a[p][q]) > small:
                    _rotate(a, v, p, q)
    w = np.array([a[i][i].real for i in range(n)])
    order = np.argsort(-w, kind="stable")
    return w[order], np.array(v, dtype=complex).reshape(n, n)[:, order]


def _rotate(a, v, p, q):
    """Zero out a[p][q] by a unitary similarity, in place on the rows
    ``a``: a phase on column q that makes the entry real, followed by a
    real Givens rotation.  ``v`` accumulates both."""
    u = a[p][q] / abs(a[p][q])
    # phase: column q scaled by conj(u), row q by u
    uc = u.conjugate()
    for row in a:
        row[q] *= uc
    a[q] = [x * u for x in a[q]]
    for row in v:
        row[q] *= uc
    app, aqq = a[p][p].real, a[q][q].real
    tau = (aqq - app) / (2.0 * a[p][q].real)  # a[p][q] is now real
    # the smaller root of t^2 + 2 tau t = 1; (-tau + root) would be 0 for
    # a large positive tau, so the sign is applied after the division
    t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    s = t * c
    # columns, then rows (the rotation is real so the adjoint is the
    # transpose)
    for rows in (a, v):
        for row in rows:
            x, y = row[p], row[q]
            row[p], row[q] = c * x - s * y, s * x + c * y
    ap, aq = a[p], a[q]
    a[p] = [c * x - s * y for x, y in zip(ap, aq)]
    a[q] = [s * x + c * y for x, y in zip(ap, aq)]
    a[p][q] = a[q][p] = 0j
    a[p][p], a[q][q] = complex(a[p][p].real), complex(a[q][q].real)


def _reject_bools(x):
    """ValueError if ``x``, a number or a nested sequence or array of
    them, holds a Python or numpy bool: ``float`` would read it as 0 or
    1."""
    if isinstance(x, np.ndarray) and x.dtype != object:
        found = x.dtype == bool
    else:
        found = any(isinstance(v, (bool, np.bool_))
                    for v in np.asarray(x, dtype=object).flat)
    if found:
        raise ValueError(f"spectra and t must be numbers, not bools: {x!r}")


def _check_spectrum(lam, stack=False):
    """One spectrum, or with ``stack`` an array of them along the last
    axis.  ValueError unless nonempty, finite, weakly decreasing and free
    of bools."""
    _reject_bools(lam)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] == 0 or (lam.ndim > 1 and not stack):
        raise ValueError("spectrum must be a nonempty sequence")
    if lam.shape[-1] > MAX_ORDER:
        raise ValueError(f"orders above {MAX_ORDER} are not supported")
    if not np.isfinite(lam).all():
        raise ValueError("spectrum entries must be finite")
    if (lam[..., :-1] < lam[..., 1:]).any():
        raise ValueError("spectrum must be weakly decreasing")
    return lam


def _check_t(t):
    _reject_bools(t)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return t


def _check_scale(lams, t):
    """ValueError unless the entries of the (s, r) spectra ``lams`` and
    ``t`` are at most _MAX_SCALE / (r * (s + 1)) in magnitude."""
    bound = _MAX_SCALE / (lams.shape[1] * (len(lams) + 1))
    largest = max(float(np.abs(lams).max()), abs(t))
    if largest > bound:
        raise ValueError(f"spectrum entries and t must be at most {bound:.3g}"
                         f" in magnitude (1e150 / (order * (spectra + 1))), "
                         f"got {largest:.3g}")


def _conjugate(q, lam):
    """q diag(lam) q* for a stack of unitaries q, hermitized in place;
    ``lam`` holds the spectra as rows (..., 1, r) that scale q's
    columns."""
    y = (q * lam) @ q.conj().swapaxes(-1, -2)
    y += y.conj().swapaxes(-1, -2)
    y /= 2
    return y


def _orbit_points(spectra, seeds):
    """``sample_orbit`` for each spectrum (s, r) and its seed, with one
    batched QR."""
    r = spectra.shape[-1]
    z = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        z.append(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    q, rr = np.linalg.qr(np.stack(z) / math.sqrt(2))
    d = rr.diagonal(axis1=-2, axis2=-1)
    return _conjugate(q * (d / np.abs(d))[..., None, :], spectra[:, None])


def sample_orbit(lam, seed=0):
    """A Haar-random Hermitian matrix with the given (weakly decreasing)
    spectrum: conjugate diag(lam) by a Haar unitary obtained from the QR
    factorization of a complex Gaussian matrix with the phases of R's
    diagonal divided out."""
    return _orbit_points(_check_spectrum(lam)[None], [seed])[0]


def project_to_orbit(x, lam):
    """Nearest matrix with spectrum ``lam`` in the Frobenius norm: keep
    the eigenvectors of x, replace its decreasing eigenvalues by lam.

    ``x`` may be one (r, r) matrix or a stack (..., r, r) with spectra
    (..., r); the stack is diagonalized by one LAPACK call.  ``x`` is
    read as complex128 and the result is complex128, for a real ``x``
    too.  LinAlgError unless ``x`` is square in its last two axes, and
    if the eigensolver does not converge."""
    ascending = _check_spectrum(lam, stack=True)[..., None, ::-1]
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise LinAlgError(f"need square matrices, got shape {x.shape}")
    with _eigh_errstate():
        return _project(x, ascending)


def _project(x, ascending):
    """``project_to_orbit`` on a complex128 stack and on spectra already
    checked, reversed and given as rows (..., 1, r): the kernel returns
    ascending eigenvalues, so its eigenvectors are paired with the
    reversed targets.  Call it under ``_eigh_errstate()``."""
    return _conjugate(_eigh_lo(x, signature="D->dD")[1], ascending)


class WitnessResult(NamedTuple):
    """Outcome of a witness search.

    ``residual`` is the maximum of the Frobenius norm of (sum - t*I) and
    the sup-norm distance of each recomputed spectrum to its target;
    ``converged`` means it fell below the tolerance and was confirmed by
    an independent recomputation.  A result with ``converged`` False is
    inconclusive -- families on the boundary of the cone can make the
    projections stall -- and never certifies non-membership.
    ``monotone`` reports whether the distance to the affine set was
    non-increasing in every attempt (up to eigensolver noise)."""

    matrices: tuple
    residual: float
    iterations: int
    converged: bool
    attempts: int
    monotone: bool

    def to_json(self):
        return {
            "matrices": [
                [[[float(z.real), float(z.imag)] for z in row] for row in m]
                for m in self.matrices
            ],
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "attempts": self.attempts,
            "monotone": self.monotone,
        }


def _family(spectra, t):
    """Accept a SpectrumFamily-like object or an explicit (spectra, t)."""
    if hasattr(spectra, "spectra"):
        if t is not None:
            raise TypeError("t is taken from the family when one is given")
        return spectra.spectra, _check_t(spectra.t)
    if t is None:
        raise TypeError("t is required when passing raw spectra")
    return spectra, _check_t(t)


def verify_witness(matrices, spectra, t):
    """Recompute the residual of a candidate witness from scratch: the
    larger of the Frobenius norm of (sum - t*I) and the sup-norm distance
    of each spectrum, recomputed by Jacobi one matrix at a time, to its
    target.  ``matrices`` is one family (s, r, r); ValueError unless it
    has one (r, r) matrix per spectrum, and unless the spectra and t are
    at most 1e150 / (r * (s + 1)) in magnitude, for s spectra."""
    lams = _check_spectrum(spectra, stack=True)
    t = _check_t(t)
    family = np.asarray(matrices)
    r = lams.shape[-1]
    if lams.ndim != 2 or not lams.size:
        raise ValueError("need one or more spectra, all of the same length")
    if family.shape != (len(lams), r, r):
        raise ValueError("matrices must be a family of one (r, r) matrix "
                         "per spectrum")
    _check_scale(lams, t)
    spec = max(np.abs(hermitian_eigh(m)[0] - lam).max()
               for m, lam in zip(family, lams))
    return max(_frobenius(family.sum(axis=0) - t * np.eye(r)), float(spec))


class _Attempt:
    """One restart of a search: its stall and monotonicity bookkeeping
    while it runs, then its outcome.  ``last`` is the last residual
    ||sum - t*I||, a lower bound on the verified residual of its last
    family."""

    def __init__(self, index):
        self.index = index
        self.lines = []
        self.last = self.best = math.inf
        self.since_best = 0
        self.monotone = True
        self.iterations = 0
        self.matrices = None
        self.converged = False
        self.residual = None

    def step(self, it, res, logging):
        self.iterations = it
        if logging:
            self.lines.append(f"{self.index},{it},{res:.16e}\n")
        if res > self.last * (1 + 1e-9) + 1e-13:
            self.monotone = False
        self.last = res
        if res < self.best * (1 - 1e-2):
            self.best = res
            self.since_best = 0
        else:
            self.since_best += 1


def _wave(indices, spectra, ascending, t, seed, max_iters, tol, logging):
    """Run the attempts ``indices`` (increasing) together as one
    (k, s, r, r) stack.  Returns, in attempt order, the attempts a search
    running them one after another would have run: those up to the
    lowest one that converged, or all of them.  Each keeps a copy of its
    last family, not a view of the stack.  ``ascending`` is ``spectra``
    reversed, as rows (s, 1, r); the iterations run under one
    ``_eigh_errstate()``."""
    s, r = spectra.shape
    target = t * np.eye(r)
    live = [_Attempt(i) for i in indices]
    xs = np.stack([_orbit_points(spectra, np.random.SeedSequence(
        [seed & 0xFFFFFFFF, i]).spawn(s)) for i in indices])
    diffs = xs.sum(axis=1) - target
    done = []
    with _eigh_errstate():
        for it in range(1, max_iters + 1):
            xs -= diffs[:, None] / s
            xs = _project(xs, ascending)
            diffs = xs.sum(axis=1) - target
            keep = []
            for j, attempt in enumerate(live):
                res = _frobenius(diffs[j])
                attempt.step(it, res, logging)
                if res <= tol * 0.9:
                    full = verify_witness(xs[j], spectra, t)
                    if full <= tol:
                        attempt.residual, attempt.converged = full, True
                if (attempt.converged or attempt.since_best >= _STALL_WINDOW
                        and attempt.best > 10 * tol or it == max_iters):
                    attempt.matrices = xs[j].copy()
                    done.append(attempt)
                    if attempt.converged:
                        # the attempts above this one would never have run
                        break
                else:
                    keep.append(j)
            if len(keep) < len(live):
                live = [live[j] for j in keep]
                if not live:
                    break
                xs, diffs = xs[keep], diffs[keep]
    done.sort(key=lambda a: a.index)
    last = next((a.index for a in done if a.converged), indices[-1])
    return [a for a in done if a.index <= last]


def find_witness(spectra, t=None, max_iters=5000, tol=1e-8, seed=0,
                 restarts=20, residual_log=None):
    """Search for Hermitian matrices with given spectra summing to t*I.

    Alternating projections from random starting points, one attempt
    per restart.  Each attempt is seeded deterministically from (seed,
    attempt index).  Non-convergence is data, not an error: for families
    outside the cone the distance stalls at a positive level, detected
    when the best residual stops improving over ``_STALL_WINDOW`` (150)
    iterations while still far from ``tol``.

    Attempt 0 runs alone, since interior members nearly always converge
    there.  If it does not, attempts 1 to restarts-1 run in waves of up
    to _WAVE attempts, each wave one (k, s, r, r) stack projected by one
    LAPACK call per iteration.  An attempt leaves the stack when it
    converges or stalls, and a wave ends once its lowest converged
    attempt has no lower-numbered attempt still running.  Each wave's
    outcome is assembled in attempt order and its log lines are written
    when it ends, so the result and the log are those of running the
    attempts one after another.  Jacobi verifies the attempts that did
    not converge once per wave (attempt 0 with the first wave), in
    increasing order of their last ||sum - t*I||, which bounds the
    verified residual from below; it stops once no attempt left can beat
    the best residual found.  The best is kept; on a tie the lower
    attempt wins.

    ``residual_log`` may be a writable text file for per-iteration CSV
    diagnostics.  ValueError, before any attempt runs, unless restarts,
    max_iters and seed are integers (numpy ones too, bools not), the
    first two at least 1, tol is a positive finite number, and the
    spectra and t are finite numbers, bools not, at most 1e150 / (r * (s +
    1)) in magnitude for s spectra of order r, so that no residual
    overflows.  LinAlgError if LAPACK does not converge."""
    restarts, max_iters, seed = map(_integer, (restarts, max_iters, seed))
    if (min(restarts, max_iters) < 1 or isinstance(tol, (bool, np.bool_))
            or not 0 < tol < math.inf):
        raise ValueError(f"need restarts and max_iters >= 1 and a finite tol "
                         f"> 0, got {restarts}, {max_iters}, {tol}")
    spectra, t = _family(spectra, t)
    stacked = _check_spectrum(spectra, stack=True)
    if stacked.ndim != 2 or not stacked.size:
        raise ValueError("need one or more spectra, all of the same length")
    _check_scale(stacked, t)
    log = residual_log
    if log is not None:
        log.write("attempt,iteration,residual\n")
    options = (stacked, stacked[:, None, ::-1], t, seed, max_iters, tol,
               log is not None)
    iterations, monotone, best, pending = 0, True, None, []
    lo = 0
    while lo < restarts:
        hi = min(lo + _WAVE, restarts) if lo else 1
        attempts = _wave(range(lo, hi), *options)
        if log is not None:
            log.writelines(line for a in attempts for line in a.lines)
        iterations += sum(a.iterations for a in attempts)
        monotone = monotone and all(a.monotone for a in attempts)
        last = attempts[-1]
        if last.converged:
            break
        pending += attempts
        # attempt 0 is verified together with the first wave
        if lo or restarts == 1:
            for a in sorted(pending, key=lambda a: (a.last, a.index)):
                if best is not None and a.last > best.residual:
                    break  # a.last bounds a.residual from below
                a.residual = verify_witness(a.matrices, stacked, t)
                if best is None or ((a.residual, a.index)
                                    < (best.residual, best.index)):
                    best = a
            pending = []
        lo = hi
    if log is not None:
        log.flush()
    if last.converged:
        return WitnessResult(tuple(last.matrices), last.residual, iterations,
                             True, last.index + 1, monotone)
    return WitnessResult(tuple(best.matrices), best.residual, iterations,
                         False, restarts, monotone)
