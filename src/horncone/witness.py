"""Floating-point witnesses: Hermitian matrices with prescribed spectra
summing to a scalar matrix.

Alternating projections between the product of unitary orbits (fixed
spectra) and the affine subspace of families summing to t*I.  Both
projections are exact nearest-point maps in the Frobenius metric, so the
distance to the affine set never increases along a run; stalling at a
positive level is the numerical signature of an infeasible family.  The
result is advisory only -- exact membership always comes from the cone
description.

Each projection step moves the whole family at once: the s matrices form
one (s, r, r) array and LAPACK (``numpy.linalg.eigh``) diagonalizes the
stack in a single call.  A candidate witness is then confirmed by a
second, independent eigensolver: ``hermitian_eigh``, a self-contained
cyclic Jacobi iteration for complex Hermitian matrices of small order,
recomputes every spectrum in ``verify_witness``.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

MAX_ORDER = 12


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
    ``max_sweeps`` sweeps."""
    a = _hermitize(np.asarray(a, dtype=complex).copy())
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    v = np.eye(n, dtype=complex)
    if n == 1:
        return np.array([a[0, 0].real]), v
    scale = max(1.0, float(np.linalg.norm(a)))
    threshold = tol * scale
    for _ in range(max_sweeps):
        if _off_norm(a) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                if abs(g) <= threshold / (n * n):
                    continue
                _rotate(a, v, p, q)
    else:
        if _off_norm(a) > threshold:
            raise NumericalFailure(
                f"Jacobi sweep limit reached, off-diagonal norm {_off_norm(a):.3e}"
            )
    w = np.real(np.diag(a))
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def _rotate(a, v, p, q):
    """Zero out a[p, q] by a unitary similarity: a phase on column q that
    makes the entry real, followed by a real Givens rotation."""
    g = a[p, q]
    u = g / abs(g)
    # phase: column q scaled by conj(u), row q by u
    a[:, q] *= np.conj(u)
    a[q, :] *= u
    v[:, q] *= np.conj(u)
    app = a[p, p].real
    aqq = a[q, q].real
    apq = a[p, q].real  # now real by construction
    tau = (aqq - app) / (2.0 * apq)
    if tau >= 0:
        t = 1.0 / (tau + math.hypot(1.0, tau))
    else:
        t = -1.0 / (-tau + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    s = t * c
    # columns, then rows (the rotation is real so the adjoint is the
    # transpose)
    colp = a[:, p].copy()
    colq = a[:, q].copy()
    a[:, p] = c * colp - s * colq
    a[:, q] = s * colp + c * colq
    rowp = a[p, :].copy()
    rowq = a[q, :].copy()
    a[p, :] = c * rowp - s * rowq
    a[q, :] = s * rowp + c * rowq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - s * vq
    v[:, q] = s * vp + c * vq


def _check_spectrum(lam, stack=False):
    """One spectrum, or with ``stack`` an array of them along the last
    axis."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] == 0 or (lam.ndim > 1 and not stack):
        raise ValueError("spectrum must be a nonempty sequence")
    if lam.shape[-1] > MAX_ORDER:
        raise ValueError(f"orders above {MAX_ORDER} are not supported")
    if np.any(lam[..., :-1] < lam[..., 1:]):
        raise ValueError("spectrum must be weakly decreasing")
    return lam


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

    def to_json_str(self):
        return json.dumps(self.to_json())


def _family(spectra, t):
    """Accept a SpectrumFamily-like object or an explicit (spectra, t)."""
    if hasattr(spectra, "spectra"):
        if t is not None:
            raise TypeError("t is taken from the family when one is given")
        return spectra.spectra, float(spectra.t)
    if t is None:
        raise TypeError("t is required when passing raw spectra")
    return spectra, float(t)


def verify_witness(matrices, spectra, t):
    """Recompute the residual of a candidate witness from scratch."""
    lams = [_check_spectrum(l) for l in spectra]
    r = lams[0].size
    total = sum(matrices) - float(t) * np.eye(r)
    sum_res = float(np.linalg.norm(total))
    spec_res = 0.0
    for m, lam in zip(matrices, lams):
        w, _ = hermitian_eigh(m)
        spec_res = max(spec_res, float(np.max(np.abs(w - lam))))
    return max(sum_res, spec_res)


def find_witness(spectra, t=None, max_iters=5000, tol=1e-8, seed=0,
                 restarts=20, stall_window=150, residual_log=None):
    """Search for Hermitian matrices with the prescribed spectra summing
    to t*I, by alternating projections with random restarts.

    Non-convergence is data, not an error: for families outside the cone
    the distance stalls at a positive level, detected when the best
    residual stops improving over ``stall_window`` iterations while still
    far from ``tol``.  Each attempt is seeded deterministically from
    (seed, attempt index).  ``residual_log`` may be a writable text file
    for per-iteration CSV diagnostics.  ValueError unless restarts and
    max_iters are at least 1 and tol is positive."""
    if restarts < 1 or max_iters < 1 or not tol > 0:
        raise ValueError(f"need restarts >= 1, max_iters >= 1 and tol > 0, "
                         f"got {restarts}, {max_iters}, {tol}")
    spectra, t = _family(spectra, t)
    lams = [_check_spectrum(l) for l in spectra]
    r = lams[0].size
    if any(l.size != r for l in lams):
        raise ValueError("all spectra must have the same length")
    s = len(lams)
    stacked = np.stack(lams)
    target = t * np.eye(r)
    log = residual_log
    if log is not None:
        log.write("attempt,iteration,residual\n")

    best_result = None
    monotone = True
    total_iters = 0
    for attempt in range(restarts):
        rng_seed = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, attempt])
        xs = np.stack([
            sample_orbit(lam, st)
            for lam, st in zip(lams, rng_seed.spawn(s))
        ])
        prev = math.inf
        best = math.inf
        since_best = 0
        for it in range(1, max_iters + 1):
            total_iters += 1
            defect = (xs.sum(axis=0) - target) / s
            xs = project_to_orbit(xs - defect, stacked)
            res = float(np.linalg.norm(xs.sum(axis=0) - target))
            if log is not None:
                log.write(f"{attempt},{it},{res:.16e}\n")
            if res > prev * (1 + 1e-9) + 1e-13:
                monotone = False
            prev = res
            if res < best * (1 - 1e-2):
                best = res
                since_best = 0
            else:
                since_best += 1
            if res <= tol * 0.9:
                full = verify_witness(xs, lams, t)
                if full <= tol:
                    if log is not None:
                        log.flush()
                    return WitnessResult(
                        tuple(xs), full, total_iters, True, attempt + 1,
                        monotone,
                    )
            if since_best >= stall_window and best > 10 * tol:
                break
        full = verify_witness(xs, lams, t)
        if best_result is None or full < best_result.residual:
            best_result = WitnessResult(
                tuple(xs), full, total_iters, False, attempt + 1, monotone
            )
    if log is not None:
        log.flush()
    return best_result._replace(iterations=total_iters, attempts=restarts,
                                monotone=monotone)
