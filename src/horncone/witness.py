"""Floating-point witnesses: Hermitian matrices with prescribed spectra
summing to a scalar matrix.

Alternating projections between the product of unitary orbits (fixed
spectra) and the affine subspace of families summing to t*I.  Both
projections are exact nearest-point maps in the Frobenius metric, so the
distance to the affine set never increases along a run; stalling at a
positive level is the numerical signature of an infeasible family.  The
result is advisory only -- exact membership always comes from the cone
description.

Each projection step moves whole families at once: the s matrices of a
family form one (s, r, r) array, the restarts that run together stack
their families into one (k, s, r, r) array, and LAPACK
(``numpy.linalg.eigh``) diagonalizes the stack in a single call.  A
candidate witness is then confirmed by a second, independent
eigensolver: ``hermitian_eigh``, a self-contained cyclic Jacobi
iteration for complex Hermitian matrices of small order, recomputes
every spectrum of a family in one call in ``verify_witness``.  Stacking
changes no result: each attempt and each Jacobi diagonalization comes
out bit for bit as it would alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

MAX_ORDER = 12

# After attempt 0, a search runs its restarts in waves of at most this
# many, so its memory does not grow with ``restarts``.
_WAVE = 32


class NumericalFailure(RuntimeError):
    """The eigensolver failed to reach its off-diagonal threshold."""


def _hermitize(x):
    return (x + x.conj().swapaxes(-1, -2)) / 2


def _off_norm(a):
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def hermitian_eigh(a, tol=1e-13, max_sweeps=60):
    """Eigen-decomposition of a Hermitian matrix by cyclic Jacobi
    rotations.  Returns (eigenvalues sorted decreasing, unitary V) with
    ``a ~= V diag(w) V*``.  Raises NumericalFailure if the off-diagonal
    norm does not fall below ``tol`` (scaled by the matrix norm) within
    ``max_sweeps`` sweeps, and ValueError on a non-square matrix or a
    non-finite entry.

    ``a`` may also be a stack (k, n, n); then w is (k, n) and V is
    (k, n, n).  Each rotation runs on the matrices a solo call would
    rotate and leaves the others untouched, so every matrix of the stack
    gets exactly the result of a call on it alone."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1] if a.ndim else 0
    if a.ndim not in (2, 3) or a.shape[-2] != n:
        raise ValueError("matrix must be square, or a stack of square matrices")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    stack = _hermitize(a if a.ndim == 3 else a[None])
    v = np.tile(np.eye(n, dtype=complex), (len(stack), 1, 1))
    if n > 1:
        _jacobi(stack, v, tol, max_sweeps)
    w = stack.diagonal(axis1=-2, axis2=-1).real
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, -1)
    v = np.take_along_axis(v, order[:, None, :], -1)
    return (w, v) if a.ndim == 3 else (w[0], v[0])


def _jacobi(a, v, tol, max_sweeps):
    """Cyclic Jacobi sweeps on the stack ``a`` in place, accumulating
    the rotations in ``v``.  A matrix stops sweeping once its
    off-diagonal norm is below its threshold."""
    n = a.shape[-1]
    thresholds = np.array(
        [tol * max(1.0, float(np.linalg.norm(m))) for m in a])
    running = range(len(a))
    for _ in range(max_sweeps):
        running = [i for i in running if _off_norm(a[i]) > thresholds[i]]
        if not running:
            return
        idx = np.array(running)
        small = thresholds[idx] / (n * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[idx, p, q]
                rot = idx[np.hypot(g.real, g.imag) > small]
                if rot.size:
                    a[rot], v[rot] = _rotate(a[rot], v[rot], p, q)
    off = [_off_norm(a[i]) for i in running]
    if any(o > thresholds[i] for o, i in zip(off, running)):
        raise NumericalFailure(
            f"Jacobi sweep limit reached, off-diagonal norm {max(off):.3e}"
        )


def _rotate(a, v, p, q):
    """Zero out a[:, p, q] by a unitary similarity on each matrix of the
    stack: a phase on column q that makes the entry real, followed by a
    real Givens rotation.  Returns the rotated a and v.

    ``np.abs`` of a complex array (a vectorized path) and ``np.hypot``
    of a tangent (the C library's) can differ from ``abs`` of one complex
    number and ``math.hypot`` in the last bit.  The forms below round as
    those do, so every eigenvalue equals that of the scalar Jacobi step
    written with them."""
    g = a[:, p, q]
    u = (g / np.hypot(g.real, g.imag))[:, None]
    # phase: column q scaled by conj(u), row q by u
    a[:, :, q] *= np.conj(u)
    a[:, q, :] *= u
    v[:, :, q] *= np.conj(u)
    app = a[:, p, p].real
    aqq = a[:, q, q].real
    apq = a[:, p, q].real  # now real by construction
    tau = (aqq - app) / (2.0 * apq)
    root = np.array([math.hypot(1.0, x) for x in tau.tolist()])
    # the smaller root of t^2 + 2 tau t = 1; (-tau + root) would be 0 for
    # a large positive tau, so the sign is applied after the division
    t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + root)
    c = 1.0 / np.array([math.hypot(1.0, x) for x in t.tolist()])
    s = (t * c)[:, None]
    c = c[:, None]
    # columns, then rows (the rotation is real so the adjoint is the
    # transpose)
    colp = a[:, :, p].copy()
    colq = a[:, :, q].copy()
    a[:, :, p] = c * colp - s * colq
    a[:, :, q] = s * colp + c * colq
    rowp = a[:, p, :].copy()
    rowq = a[:, q, :].copy()
    a[:, p, :] = c * rowp - s * rowq
    a[:, q, :] = s * rowp + c * rowq
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    a[:, p, p] = a[:, p, p].real
    a[:, q, q] = a[:, q, q].real
    vp = v[:, :, p].copy()
    vq = v[:, :, q].copy()
    v[:, :, p] = c * vp - s * vq
    v[:, :, q] = s * vp + c * vq
    return a, v


def _check_spectrum(lam, stack=False):
    """One spectrum, or with ``stack`` an array of them along the last
    axis.  ValueError unless nonempty, finite and weakly decreasing."""
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
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return t


def sample_orbit(lam, seed=0):
    """A Haar-random Hermitian matrix with the given (weakly decreasing)
    spectrum: conjugate diag(lam) by a Haar unitary obtained from the QR
    factorization of a complex Gaussian matrix with the phases of R's
    diagonal divided out."""
    lam = _check_spectrum(lam)
    r = lam.size
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))) / math.sqrt(2)
    q, rr = np.linalg.qr(z)
    d = np.diag(rr)
    q = q * (d / np.abs(d))
    return _hermitize((q * lam) @ q.conj().T)


def project_to_orbit(x, lam):
    """Nearest matrix with spectrum ``lam`` in the Frobenius norm: keep
    the eigenvectors of x, replace its decreasing eigenvalues by lam.

    ``x`` may be one (r, r) matrix or a stack (..., r, r) with spectra
    (..., r); the stack is diagonalized by one LAPACK call.  ``eigh``
    returns ascending eigenvalues, so its eigenvectors are paired with
    the reversed targets."""
    lam = _check_spectrum(lam, stack=True)[..., ::-1]
    _, v = np.linalg.eigh(x)
    return _hermitize((v * lam[..., None, :]) @ v.conj().swapaxes(-1, -2))


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
    of each spectrum, recomputed by Jacobi, to its target.

    ``matrices`` is one family (s, r, r), which gives a float, or a stack
    of families (k, s, r, r), which gives an array of k residuals.  One
    ``hermitian_eigh`` call recomputes every spectrum."""
    lams = _check_spectrum(spectra, stack=True)
    t = _check_t(t)
    families = np.asarray(matrices)
    r = lams.shape[-1]
    if (lams.ndim != 2 or families.ndim not in (3, 4)
            or families.shape[-3:] != (len(lams), r, r)):
        raise ValueError("matrices must be a family, or a stack of families, "
                         "of one (r, r) matrix per spectrum")
    flat = families.reshape((-1,) + families.shape[-3:])
    sums = flat.sum(axis=1) - t * np.eye(r)
    w, _ = hermitian_eigh(flat.reshape(-1, r, r))
    spec = np.abs(w.reshape(flat.shape[:-1]) - lams).max(axis=(1, 2))
    res = np.array([max(float(np.linalg.norm(d)), float(e))
                    for d, e in zip(sums, spec)])
    return float(res[0]) if families.ndim == 3 else res


class _Attempt:
    """One restart of a search: its stall and monotonicity bookkeeping
    while it runs, then its outcome."""

    def __init__(self, index):
        self.index = index
        self.lines = []
        self.prev = self.best = math.inf
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
        if res > self.prev * (1 + 1e-9) + 1e-13:
            self.monotone = False
        self.prev = res
        if res < self.best * (1 - 1e-2):
            self.best = res
            self.since_best = 0
        else:
            self.since_best += 1


def _start(stacked, seed, attempt):
    """The starting family of an attempt, seeded from (seed, attempt)."""
    rng_seed = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, attempt])
    return np.stack([sample_orbit(lam, st)
                     for lam, st in zip(stacked, rng_seed.spawn(len(stacked)))])


def _wave(indices, stacked, t, seed, max_iters, tol, stall_window, logging):
    """Run the attempts ``indices`` (increasing) together as one
    (k, s, r, r) stack.  Returns, in attempt order, the attempts a search
    running them one after another would have run: those up to the
    lowest one that converged, or all of them.  Each keeps a copy of its
    last family, not a view of the stack."""
    s, r = stacked.shape
    target = t * np.eye(r)
    live = [_Attempt(i) for i in indices]
    xs = np.stack([_start(stacked, seed, i) for i in indices])
    diffs = xs.sum(axis=1) - target
    done = []
    for it in range(1, max_iters + 1):
        xs = project_to_orbit(xs - diffs[:, None] / s, stacked)
        diffs = xs.sum(axis=1) - target
        keep = []
        for j, attempt in enumerate(live):
            res = float(np.linalg.norm(diffs[j]))
            attempt.step(it, res, logging)
            if res <= tol * 0.9:
                full = verify_witness(xs[j], stacked, t)
                if full <= tol:
                    attempt.residual, attempt.converged = full, True
            if (attempt.converged or attempt.since_best >= stall_window
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
                 restarts=20, stall_window=150, residual_log=None):
    """Search for Hermitian matrices with given spectra summing to t*I.

    Alternating projections from random starting points, one attempt
    per restart.  Each attempt is seeded deterministically from (seed,
    attempt index).  Non-convergence is data, not an error: for families
    outside the cone the distance stalls at a positive level, detected
    when the best residual stops improving over ``stall_window``
    iterations while still far from ``tol``.

    Attempt 0 runs alone, since interior members nearly always converge
    there.  If it does not, attempts 1 to restarts-1 run in waves of up
    to _WAVE attempts, each wave one (k, s, r, r) stack projected by one
    ``project_to_orbit`` call per iteration.  An attempt leaves the stack
    when it converges or stalls, and a wave ends once its lowest
    converged attempt has no lower-numbered attempt still running.  Each
    wave's outcome is assembled in attempt order and its log lines are
    written when it ends, so the result and the log are those of running
    the attempts one after another.  Jacobi verifies the attempts that
    did not converge once per wave (attempt 0 with the first wave), and
    only the best of them is kept; on a tie the lower attempt wins.

    ``residual_log`` may be a writable text file for per-iteration CSV
    diagnostics.  ValueError unless restarts and max_iters are at least
    1, tol is positive and finite, and the spectra and t are finite."""
    if restarts < 1 or max_iters < 1 or not 0 < tol < math.inf:
        raise ValueError(f"need restarts >= 1, max_iters >= 1 and a finite "
                         f"tol > 0, got {restarts}, {max_iters}, {tol}")
    spectra, t = _family(spectra, t)
    lams = [_check_spectrum(l) for l in spectra]
    if not lams or any(l.size != lams[0].size for l in lams):
        raise ValueError("need one or more spectra, all of the same length")
    stacked = np.stack(lams)
    log = residual_log
    if log is not None:
        log.write("attempt,iteration,residual\n")
    options = (stacked, t, seed, max_iters, tol, stall_window, log is not None)
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
            residuals = verify_witness(np.stack([a.matrices for a in pending]),
                                       stacked, t)
            i = int(np.argmin(residuals))
            if best is None or residuals[i] < best[0]:
                best = (float(residuals[i]), pending[i].matrices)
            pending = []
        lo = hi
    if log is not None:
        log.flush()
    if last.converged:
        return WitnessResult(tuple(last.matrices), last.residual, iterations,
                             True, last.index + 1, monotone)
    return WitnessResult(tuple(best[1]), best[0], iterations, False, restarts,
                         monotone)
