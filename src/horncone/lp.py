"""Exact linear programming for the redundancy of cone descriptions.

Every program here has one form: maximize an integer row ``c . x``
subject to integer rows ``a . x <= 0`` and the box [-1, 1]^n.  Since
every constraint of a cone description is homogeneous, a row is implied
by the others over the cone exactly when it is implied over the cone's
section by the box; the box also keeps every program feasible (x = 0)
and bounded.  Redundancy verdicts solve one LP per row orbit, as rows
of one orbit under ``InequalitySystem.orbits`` have equal optima.

The solver is the simplex method with Bland's smallest-index rule on a
fraction-free tableau (Edmonds 1967, Bareiss 1968): the entries are
integers over one common denominator D, the previous pivot, and each
pivot divides every entry exactly by the old D.  No Fraction arises
before the returned optimum and point.  The tableau is condensed, as in
Avis' lrs: one numpy array holds only the nonbasic columns, so a pivot
is one vectorised update.  It is ``int64`` while every entry is below
2**31 in absolute value, where no product or difference can wrap, and
``object`` (Python ints) from the first entry that is not.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from numbers import Integral
from typing import NamedTuple

import numpy as np

_INT64_SAFE = 2 ** 31
_OPTIMA = weakref.WeakKeyDictionary()  # system: {(orbit, fix_t_zero): optimum}


class LpResult(NamedTuple):
    value: Fraction
    point: tuple


def solve_lp(objective, rows):
    """Maximize ``objective . x`` subject to ``a . x <= 0`` for every
    integer row ``a`` of ``rows`` and ``-1 <= x_i <= 1``.

    The tableau splits x = u - v with u, v >= 0 and puts the box after
    the given rows as ``x_i <= 1, -x_i <= 1`` for each i in turn, one
    slack per row; the slacks are the starting basis.  Labels number u,
    v and the slacks in that order, and Bland's rule reads them.  ``T``
    has one row per basic label and the reduced costs last, and one
    column per nonbasic label and the right-hand side last.  Returns the
    exact optimum and an optimal vertex as a tuple of Fractions.  Raises
    ValueError unless every entry is an integer and every row has
    ``len(objective)`` of them.
    """
    n, k = len(objective), len(rows)
    try:
        A = np.array([objective, *rows])
        if A.dtype.kind not in "biu":  # ints past int64 turn float or object
            A = np.array([objective, *rows], dtype=object)
    except ValueError:  # rows of different lengths
        A = np.array(None)
    if A.shape != (k + 1, n) or A.dtype == object and not all(
            isinstance(x, Integral) for x in A.flat):
        raise ValueError(f"every LP row needs {n} integer entries")
    small = not A.size or -_INT64_SAFE < A.min() and A.max() < _INT64_SAFE
    A = A.astype(np.int64) if small else np.frompyfunc(int, 1, 1)(A)
    A = np.vstack([A[1:], np.kron(np.eye(n, dtype=np.int64), [[1], [-1]]),
                   -A[:1]])
    m = k + 2 * n
    T = np.hstack([A, -A, [[int(k <= i < m)] for i in range(m + 1)]])
    basis, nonbasic = list(range(2 * n, 2 * n + m)), list(range(2 * n))
    D = 1
    while True:
        enter = [j for j, x in enumerate(T[m, :-1].tolist()) if x < 0]
        if not enter:
            break
        s = min(enter, key=nonbasic.__getitem__)
        # min ratio T[i, -1] / T[i, s] by cross-multiplication, ties to
        # the smallest basic label.  Some row always qualifies: every ray
        # of the split polyhedron keeps x, so none improves.
        b, a = T[:m, -1].tolist(), T[:m, s].tolist()
        r = -1
        for i in np.flatnonzero(T[:m, s] > 0).tolist():
            if r < 0 or (b[i] * a[r], basis[i]) < (b[r] * a[i], basis[r]):
                r = i
        # every entry becomes (T * p - col * row) / D, an exact division;
        # the pivot row stays, and column s passes to the leaving label
        p, pivot_row, pivot_col = int(T[r, s]), T[r].copy(), T[:, s].copy()
        T *= p
        T -= pivot_col[:, None] * pivot_row
        T //= D
        T[r], T[:, s], T[r, s] = pivot_row, -pivot_col, D
        basis[r], nonbasic[s] = nonbasic[s], basis[r]
        D = p
        if T.dtype != object and np.abs(T).max() >= _INT64_SAFE:
            T = T.astype(object)
    u = [0] * (2 * n)
    for i, label in enumerate(basis):
        if label < 2 * n:
            u[label] = int(T[i, -1])
    point = tuple(Fraction(u[i] - u[n + i], D) for i in range(n))
    return LpResult(Fraction(int(T[m, -1]), D), point)


# -- redundancy of cone descriptions ----------------------------------


class RowVerdict(NamedTuple):
    index: int
    kind: str
    essential: bool
    optimum: Fraction

    @property
    def verdict(self):
        return "essential" if self.essential else "redundant"

    def to_json(self):
        return {"index": self.index, "kind": self.kind,
                "verdict": self.verdict, "optimum": str(self.optimum)}


class RedundancyReport(NamedTuple):
    system_level: str
    fix_t_zero: bool
    verdicts: tuple

    def to_json(self):
        return {
            "level": self.system_level,
            "t_fixed_to_zero": self.fix_t_zero,
            "rows": [v.to_json() for v in self.verdicts],
        }


def _row_verdict(system, index, active, fix_t_zero):
    """Maximize constraint ``index`` subject to the rows of the boolean
    mask ``active`` (``index`` itself skipped), all sliced from the
    system's matrix, plus the normalizing box [-1, 1] on all variables;
    the row is redundant exactly when the optimum is <= 0."""
    kind = system.constraint(index).kind  # an IndexError before any LP
    A = system.matrix[:, :-1] if fix_t_zero else system.matrix
    value = solve_lp(A[index], A[active & (np.arange(len(A)) != index)]).value
    return RowVerdict(index, kind, value > 0, value)


def is_redundant(system, index, fix_t_zero=False):
    """Verdict for one constraint of an inequality system, tested against
    every other constraint: one LP per row orbit (``system.orbits``),
    kept for the system's lifetime, as an orbit's rows have equal optima.

    ``fix_t_zero`` restricts to the slice t = 0 (the integral-weight
    picture)."""
    kind = system.constraint(index).kind  # an IndexError before any LP
    key = (int(system.orbits[index]), bool(fix_t_zero))
    optima = _OPTIMA.setdefault(system, {})
    if key not in optima:
        optima[key] = _row_verdict(system, key[0], np.ones(system.count, bool),
                                   fix_t_zero).optimum
    return RowVerdict(index, kind, optima[key] > 0, optima[key])


def redundancy_report(system, fix_t_zero=False):
    """A verdict for every constraint, each tested against all the
    others: one LP per row orbit."""
    verdicts = tuple(is_redundant(system, k, fix_t_zero)
                     for k in range(system.count))
    return RedundancyReport(system.level, fix_t_zero, verdicts)


class MinimizeResult(NamedTuple):
    retained: tuple
    dropped: tuple
    verdicts: tuple

    @property
    def retained_count(self):
        return len(self.retained)


def minimize_system(system, fix_t_zero=False):
    """Greedy sequential reduction: scan the constraints in canonical
    order and drop each one that is implied by the currently retained
    set.  Verdicts refer to this sequential process; for systems whose
    essential rows are facets the outcome does not depend on the order.
    """
    active = np.ones(system.count, bool)
    verdicts = []
    for k in range(system.count):
        verdict = _row_verdict(system, k, active, fix_t_zero)
        verdicts.append(verdict)
        active[k] = verdict.essential
    retained = tuple(np.flatnonzero(active).tolist())
    dropped = tuple(np.flatnonzero(~active).tolist())
    return MinimizeResult(retained, dropped, tuple(verdicts))
