"""Exact linear programming for the redundancy of cone descriptions.

Every program here has one form: maximize an integer row ``c . x``
subject to integer rows ``a . x <= 0`` and the box [-1, 1]^n.  Since
every constraint of a cone description is homogeneous, a row is implied
by the others over the cone exactly when it is implied over the cone's
section by the box; the box also keeps every program feasible (x = 0)
and bounded.  One builder, ``_fixed_optimum``, sets up every redundancy
LP: a row against the other active rows, on the subspace fixed by the
row's stabilizer in a group of block permutations that map the active
rows onto themselves (the columns of the blocks it joins summed,
repeated rows dropped).  An optimal point averaged over the stabilizer
stays optimal, so the optimum is exact.  A report passes every row and
``InequalitySystem.symmetries``, one LP per orbit of ``.orbits``; the
greedy minimize narrows the group with ``stabilizer`` at each drop; all
read the system's row ids.  A plain rank-6 report takes about 0.5 s,
rank 7 10-11 s (2 cores).

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
    """Maximize ``objective . x`` over free x subject to ``a . x <= 0``
    for every integer row ``a`` of ``rows`` and ``-1 <= x_i <= 1``.

    Labels number x, then one slack per row: the given rows, then the
    box as ``x_i <= 1, -x_i <= 1`` for each i in turn.  ``T`` has one row
    per basic label (the slacks at first) and the reduced costs last, one
    column per nonbasic label and the right-hand side last.  Bland's rule
    enters the least label that improves, a free x_j also by decreasing
    (its column negated, its sign kept).  A basic x_j never leaves, so
    after at most n pivots that enter one, every pivot is a Bland pivot
    on fixed rows, which cannot cycle (Bland 1977).  Returns the exact
    optimum and an optimal vertex as Fractions; raises ValueError unless
    every row has ``len(objective)`` integer entries, none a bool.
    """
    n, k = len(objective), len(rows)
    kinds = {x.dtype.kind if isinstance(x, np.ndarray) else "O"
             for x in (objective, rows)}
    try:  # integer arrays of one kind stack as they are, the rest as objects
        A = np.vstack([objective, rows]) if kinds in ({"i"}, {"u"}) and \
            np.ndim(rows) == 2 else np.array([objective, *rows], dtype=object)
    except ValueError:  # rows of different lengths
        A = np.array(None)
    if A.shape != (k + 1, n) or A.dtype == object and not all(
            isinstance(x, Integral) and type(x) is not bool for x in A.flat):
        raise ValueError(f"every LP row needs {n} integer entries")
    small = not A.size or -_INT64_SAFE < A.min() and A.max() < _INT64_SAFE
    A = A.astype(np.int64) if small else np.frompyfunc(int, 1, 1)(A)
    m, D = k + 2 * n, 1
    T = np.zeros((m + 1, n + 1), A.dtype)
    T[:k, :n], T[m, :n], T[k:m, n] = A[1:], -A[0], 1
    T[range(k, m), np.arange(2 * n) // 2] = [1, -1] * n
    basis, nonbasic, sign = list(range(n, n + m)), list(range(n)), [1] * n
    while True:
        enter = [j for j, x in enumerate(T[m, :-1].tolist())
                 if x < 0 or x and nonbasic[j] < n]
        if not enter:
            break
        s = min(enter, key=nonbasic.__getitem__)
        if T[m, s] > 0:  # x_j improves by decreasing: -x_j enters
            T[:, s], sign[nonbasic[s]] = -T[:, s], -1
        # least ratio b / a over the basic slacks, ties to the least label
        b, a = T[:m, -1].tolist(), T[:m, s].tolist()
        r = -1
        for i in np.flatnonzero(T[:m, s] > 0).tolist():
            if basis[i] >= n and (r < 0 or (b[i] * a[r], basis[i])
                                  < (b[r] * a[i], basis[r])):
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
    rhs = dict(zip(basis, T[:m, -1].tolist()))
    point = tuple(Fraction(sign[j] * rhs.get(j, 0), D) for j in range(n))
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


def _fixed_optimum(system, k, fix_t_zero, active, group):
    """Row k's box LP optimum against the other rows of the boolean mask
    ``active``, fixed by the permutations of ``group`` that fix row k."""
    M = system.matrix
    blocks = M[:, :-1].reshape(len(M), -1, system.r)
    # join[b]: the least block that row k's stabilizer maps block b to
    join = np.min(system.stabilizer([k], group), axis=0)
    A = np.hstack([blocks[:, join == b].sum(axis=1)
                   for b in np.flatnonzero(join == np.arange(len(join)))]
                  + [M[:, -1:]] * (not fix_t_zero))
    rows = dict.fromkeys(map(bytes, A[active & (np.arange(len(A)) != k)]))
    return solve_lp(A[k], np.frombuffer(b"".join(rows), A.dtype)
                    .reshape(len(rows), A.shape[1])).value


def is_redundant(system, index, fix_t_zero=False):
    """Verdict for one constraint of an inequality system, tested against
    every other constraint: one LP per row orbit (``system.orbits``),
    kept for the system's lifetime, as an orbit's rows have equal optima.

    ``fix_t_zero`` restricts to the slice t = 0 (the integral-weight
    picture)."""
    kind, index = system.kind(index), int(index)  # checked before any LP
    key = (int(system.orbits[index]), bool(fix_t_zero))
    optima = _OPTIMA.setdefault(system, {})
    if key not in optima:
        optima[key] = _fixed_optimum(system, key[0], fix_t_zero,
                                     np.ones(system.count, bool), system.symmetries)
    return RowVerdict(index, kind, optima[key] > 0, optima[key])


def redundancy_report(system, fix_t_zero=False):
    """A verdict for every constraint, each tested against all the
    others: one LP per row orbit."""
    verdicts = tuple(is_redundant(system, k, fix_t_zero)
                     for k in range(system.count))
    return RedundancyReport(system.level, bool(fix_t_zero), verdicts)


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
    Until the first drop a row's LP is ``is_redundant``'s, shared by its orbit."""
    active, group = np.ones(system.count, bool), system.symmetries
    verdicts = []
    for k in range(system.count):
        value = (is_redundant(system, k, fix_t_zero).optimum if active.all()
                 else _fixed_optimum(system, k, fix_t_zero, active, group))
        verdicts.append(RowVerdict(k, system.kind(k), value > 0, value))
        if value <= 0:
            active[k] = False
            group = system.stabilizer(active, group)
    retained = tuple(np.flatnonzero(active).tolist())
    dropped = tuple(np.flatnonzero(~active).tolist())
    return MinimizeResult(retained, dropped, tuple(verdicts))
