"""Exact rational linear programming and redundancy analysis.

A small dense two-phase simplex over `fractions.Fraction`, with Bland's
anti-cycling pivot rule, is enough to certify whether one inequality of
a cone description is implied by the others.  Since every constraint is
homogeneous, redundancy over the cone equals redundancy over its section
by the box [-1, 1]^vars, which keeps each program bounded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

ZERO = Fraction(0)
ONE = Fraction(1)


class LpResult(NamedTuple):
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction]
    point: Optional[tuple]


def solve_lp(objective, leq=(), eq=()):
    """Maximize ``objective . x`` over free variables x subject to rows
    ``a . x <= b`` and ``a . x == b``, everything exact rationals.

    Free variables are split into positive parts internally; equality
    rows become opposite inequality pairs.  Returns an LpResult whose
    point (when optimal) is a tuple of Fractions.
    """
    objective = [Fraction(v) for v in objective]
    n = len(objective)
    rows = []
    for a, b in leq:
        rows.append(([Fraction(x) for x in a], Fraction(b)))
    for a, b in eq:
        a = [Fraction(x) for x in a]
        rows.append((a, Fraction(b)))
        rows.append(([-x for x in a], -Fraction(b)))
    # split x = u - v with u, v >= 0
    split_rows = [(a + [-x for x in a], b) for a, b in rows]
    split_obj = objective + [-x for x in objective]
    res = _simplex_standard(split_obj, split_rows)
    if res.status != "optimal":
        return res
    point = tuple(res.point[i] - res.point[n + i] for i in range(n))
    return LpResult("optimal", res.value, point)


def _simplex_standard(c, rows):
    """Maximize c.y s.t. A y <= b, y >= 0 via a dense tableau.

    Phase one (driven by artificial variables) runs only when some b is
    negative; Bland's smallest-index rule governs both phases.
    """
    m = len(rows)
    n = len(c)
    A = [list(a) for a, _ in rows]
    b = [bb for _, bb in rows]
    # normalize rows so every right-hand side is nonnegative; rows flipped
    # this way get >= sense and need an artificial variable
    need_artificial = []
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
            need_artificial.append(i)
    n_art = len(need_artificial)
    width = n + m + n_art
    # tableau columns: structural | slack | artificial, one slack per row;
    # flipped rows carry slack coefficient -1 (surplus) plus artificial +1
    T = [[ZERO] * (width + 1) for _ in range(m)]
    basis = [0] * m
    art_cols = {}
    for i in range(m):
        for j in range(n):
            T[i][j] = A[i][j]
        T[i][width] = b[i]
    art_k = 0
    for i in range(m):
        if i in need_artificial:
            T[i][n + i] = -ONE
            col = n + m + art_k
            T[i][col] = ONE
            art_cols[i] = col
            basis[i] = col
            art_k += 1
        else:
            T[i][n + i] = ONE
            basis[i] = n + i

    if n_art:
        # phase one: minimize the artificial sum
        obj = [ZERO] * (width + 1)
        for i in need_artificial:
            for j in range(width + 1):
                obj[j] += T[i][j]
        # maximize -(artificial sum): reduced costs of the aggregate row
        phase_obj = [-x for x in obj]
        for col in art_cols.values():
            phase_obj[col] = ZERO
        status = _pivot_loop(T, basis, phase_obj, width)
        if status != "optimal" or -phase_obj[width] != 0:
            return LpResult("infeasible", None, None)
        # drive any artificial variable still basic out of the basis
        art_set = set(art_cols.values())
        for i in range(m):
            if basis[i] in art_set:
                for j in range(width):
                    if j not in art_set and T[i][j] != 0:
                        _pivot(T, basis, i, j, width)
                        break
        # forbid artificial columns from ever re-entering
        for i in range(m):
            for col in art_set:
                T[i][col] = ZERO

    # phase two objective row, priced out over the current basis
    obj = [ZERO] * (width + 1)
    for j in range(n):
        obj[j] = -c[j]
    for i in range(m):
        coef = c[basis[i]] if basis[i] < n else ZERO
        if coef != 0:
            for j in range(width + 1):
                obj[j] += coef * T[i][j]
    # obj now holds reduced costs (entering candidates are negative)
    status = _pivot_loop(T, basis, obj, width)
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    point = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            point[basis[i]] = T[i][width]
    return LpResult("optimal", obj[width], tuple(point))


def _pivot_loop(T, basis, obj, width):
    """Bland's rule iteration on the tableau plus objective row; the
    objective row stores reduced costs with the current value at the
    end."""
    m = len(T)
    while True:
        enter = -1
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][width] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter, width)
        piv_obj = obj[enter]
        if piv_obj != 0:
            row = T[leave]
            for j in range(width + 1):
                if row[j] != 0:
                    obj[j] -= piv_obj * row[j]


def _pivot(T, basis, leave, enter, width):
    row = T[leave]
    inv = ONE / row[enter]
    if inv != 1:
        for j in range(width + 1):
            if row[j] != 0:
                row[j] *= inv
    for i in range(len(T)):
        if i == leave:
            continue
        f = T[i][enter]
        if f != 0:
            Ti = T[i]
            for j in range(width + 1):
                if row[j] != 0:
                    Ti[j] -= f * row[j]
    basis[leave] = enter


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


def _box_rows(num_vars):
    """The rows x_i <= 1 and -x_i <= 1, for each variable in turn."""
    return [([sign if j == i else ZERO for j in range(num_vars)], ONE)
            for i in range(num_vars) for sign in (ONE, -ONE)]


def _row_verdict(system, index, others, fix_t_zero):
    """Maximize constraint ``index`` subject to the constraints ``others``
    (``index`` itself skipped) plus the normalizing box [-1, 1] on all
    variables; the row is redundant exactly when the optimum is <= 0."""
    vectors = [a[:-1] if fix_t_zero else a for a in system.matrix]
    objective = vectors[index]
    leq = [(vectors[k], ZERO) for k in others if k != index]
    res = solve_lp(objective, leq + _box_rows(len(objective)))
    if res.status != "optimal":
        raise RuntimeError(f"redundancy LP ended {res.status}")
    kind = system.constraints()[index].kind
    return RowVerdict(index, kind, res.value > 0, res.value)


def is_redundant(system, index, fix_t_zero=False):
    """Verdict for one constraint of an inequality system, tested against
    every other constraint.

    ``fix_t_zero`` restricts to the slice t = 0 (the integral-weight
    picture)."""
    return _row_verdict(system, index, range(system.count), fix_t_zero)


def redundancy_report(system, fix_t_zero=False, kinds=None):
    """Independent verdicts for every constraint (optionally filtered by
    kind), each tested against all the others."""
    verdicts = []
    for con in system.constraints():
        if kinds is not None and con.kind not in kinds:
            continue
        verdicts.append(is_redundant(system, con.index, fix_t_zero))
    return RedundancyReport(system.level, fix_t_zero, tuple(verdicts))


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
