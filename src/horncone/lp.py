"""Exact linear programming for the redundancy of cone descriptions.

Every program here has one form: maximize an integer row ``c . x``
subject to integer rows ``a . x <= 0`` and the box [-1, 1]^n.  Since
every constraint of a cone description is homogeneous, a row is implied
by the others over the cone exactly when it is implied over the cone's
section by the box; the box also keeps every program feasible (x = 0)
and bounded.

The solver is the simplex method with Bland's smallest-index rule on a
fraction-free tableau (Edmonds 1967, Bareiss 1968): the entries are
Python ints over one common denominator D, the previous pivot, and each
pivot divides every row exactly by the old D.  No Fraction arises before
the returned optimum and point.  A tableau row keeps only its nonzero
entries: a pivot row of a Horn system has about a dozen of them, out of
hundreds of columns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class LpResult(NamedTuple):
    value: Fraction
    point: tuple


def solve_lp(objective, rows):
    """Maximize ``objective . x`` subject to ``a . x <= 0`` for every
    integer row ``a`` of ``rows`` and ``-1 <= x_i <= 1``.

    The tableau splits x = u - v with u, v >= 0 and puts the box after
    the given rows as ``x_i <= 1, -x_i <= 1`` for each i in turn, one
    slack per row; the slacks are the starting basis.  Each tableau row
    is a dict of its nonzero entries by column, the right-hand side in
    column ``width``.  Returns the exact optimum and an optimal vertex as
    a tuple of Fractions.
    """
    n = len(objective)
    split = 2 * n
    box = [{i: sign} for i in range(n) for sign in (1, -1)]
    lhs = [{j: x for j, x in enumerate(a) if x} for a in rows] + box
    m = len(lhs)
    width = split + m
    T = []
    for i, a in enumerate(lhs):
        row = {**a, **{n + j: -x for j, x in a.items()}, split + i: 1}
        if i >= len(rows):
            row[width] = 1
        T.append(row)
    basis = list(range(split, width))
    # reduced costs, the current value in column width
    obj = {j: -c for j, c in enumerate(objective) if c}
    obj.update({n + j: c for j, c in enumerate(objective) if c})
    D = 1
    while True:
        enter = min((j for j, c in obj.items() if c < 0 and j < width),
                    default=-1)
        if enter < 0:
            break
        # min ratio T[i][width] / T[i][enter] by cross-multiplication,
        # ties to the smallest basic index.  Some row always qualifies:
        # every ray of the split polyhedron keeps x, so none improves.
        leave = -1
        for i in range(m):
            a = T[i].get(enter, 0)
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                here = T[i].get(width, 0) * T[leave][enter]
                best = T[leave].get(width, 0) * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        row = T[leave]
        p = row[enter]
        for i in range(m):
            if i != leave:
                T[i] = _eliminate(T[i], row, p, enter, D)
        obj = _eliminate(obj, row, p, enter, D)
        basis[leave] = enter
        D = p
    u = [0] * split
    for i, k in enumerate(basis):
        if k < split:
            u[k] = T[i].get(width, 0)
    point = tuple(Fraction(u[i] - u[n + i], D) for i in range(n))
    return LpResult(Fraction(obj.get(width, 0), D), point)


def _eliminate(target, row, p, enter, D):
    """One row after the pivot on ``row[enter] = p``: ``(target * p -
    target[enter] * row) / D``, an exact integer division."""
    f = target.get(enter, 0)
    if f == 0:
        return target if p == D else {j: x * p // D for j, x in target.items()}
    new = {j: x * p for j, x in target.items()}
    for j, y in row.items():
        new[j] = new.get(j, 0) - f * y
    return {j: x // D for j, x in new.items() if x}


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

    @property
    def essential_count(self):
        return sum(1 for v in self.verdicts if v.essential)

    def to_json(self):
        return {
            "level": self.system_level,
            "t_fixed_to_zero": self.fix_t_zero,
            "rows": [v.to_json() for v in self.verdicts],
        }


def _row_verdict(system, index, others, fix_t_zero):
    """Maximize constraint ``index`` subject to the constraints ``others``
    (``index`` itself skipped) plus the normalizing box [-1, 1] on all
    variables; the row is redundant exactly when the optimum is <= 0."""
    vectors = [a[:-1] if fix_t_zero else a for a in system.matrix]
    value = solve_lp(vectors[index],
                     [vectors[k] for k in others if k != index]).value
    kind = system.constraint(index).kind
    return RowVerdict(index, kind, value > 0, value)


def is_redundant(system, index, fix_t_zero=False):
    """Verdict for one constraint of an inequality system, tested against
    every other constraint.

    ``fix_t_zero`` restricts to the slice t = 0 (the integral-weight
    picture)."""
    return _row_verdict(system, index, range(system.count), fix_t_zero)


def redundancy_report(system, fix_t_zero=False):
    """Independent verdicts for every constraint, each tested against
    all the others."""
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
    active = list(range(system.count))
    verdicts = []
    for k in range(system.count):
        verdict = _row_verdict(system, k, active, fix_t_zero)
        verdicts.append(verdict)
        if not verdict.essential:
            active.remove(k)
    retained = tuple(active)
    dropped = tuple(i for i in range(system.count) if i not in active)
    return MinimizeResult(retained, dropped, tuple(verdicts))
