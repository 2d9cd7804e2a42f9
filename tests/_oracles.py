"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own algorithms: the tableau
counter enumerates every filling with no pruning, and the invariant
dimension comes from Gelfand-Tsetlin weight multiplicities plus the
alternating Weyl-group sum, not from any Littlewood-Richardson rule.
``orbit`` lists the coordinate permutations of a tuple, and
``all_tuples`` every tuple of a shape.  ``compose`` and ``quotient`` are
the subset algebra the Horn inequalities are defined by, ``entry_sum``
and ``slope`` the spectrum sums they compare; the library evaluates
them in closed form (``horn.horn_rows``).
``horn_check`` is the definitional one-tuple Horn check that the level
tables are compared against, ``survivor_chunks`` the kernel's blocks
unpacked, ``gather_sum_survivors`` the Horn filter that sums one table
entry per cycle for every candidate, the reference for the library's
bitset kernel in both of its modes, ``expanded_table`` the level built
from the tuples with a sorted prefix by expanding each orbit through
sorted integer keys, the reference for the library's every-tuple level
build, ``weighted_census`` the census of the filter's chunks that
weights each unpacked row by its prefix's orderings, the reference for
the library's popcount census, and ``subset_to_schubert_partition`` the checked form of a
subset's Schubert partition, and ``subset_index`` the per-subset arrays
of a level built from ``Subset`` objects one by one.
``lr_member`` decides cone membership of a rational point by
Littlewood-Richardson positivity and saturation, without the levels or
the Horn rows.
``reference_lp`` is a general two-phase simplex over ``Fraction`` with
Bland's rule, the reference for the library's integer box LP.
``full_row_minimize`` is the greedy reduction with one box LP per row
against the rows still retained, in every variable and without the
symmetries, the reference for the library's ``minimize_system``.
``block_stabilizer`` finds the permutations that fix one row of a
system by comparing the row's blocks with their permuted order, the
reference for the library's ``InequalitySystem.stabilizer`` of one row.
``image_symmetries``, ``image_orbits`` and ``image_stabilizer`` find
the block permutations that map rows onto rows by comparing sorted byte
images of the permuted rows, the reference for the library's row-id map.
``serial_find_witness`` runs the restarts of a witness search one after
another, the reference for the library's stacked search.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from horncone import horn, lr
from horncone.horn import (
    HornTable,
    IntersectingCount,
    NotSigmaStable,
    horn_rows,
    normalize_cycle_type,
)
from horncone.lp import MinimizeResult, RowVerdict, solve_lp
from horncone.subsets import (
    Permutation,
    Subset,
    SubsetTuple,
    all_subsets,
    expected_dim,
)
from horncone.witness import (
    WitnessResult,
    project_to_orbit,
    sample_orbit,
    verify_witness,
)


def naive_lr(lam, mu, nu):
    """Count LR fillings of nu/lam with content mu by checking every
    assignment of values to cells after the fact."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if len(lam) > len(nu) and any(x > 0 for x in lam[len(nu):]):
        return 0
    lam = (lam + (0,) * len(nu))[: len(nu)]
    if any(l > n for l, n in zip(lam, nu)):
        return 0
    cells = [(i, j) for i, hi in enumerate(nu) for j in range(lam[i], hi)]
    if len(cells) != sum(mu):
        return 0
    nvals = len(mu)
    count = 0
    for filling in itertools.product(range(1, nvals + 1), repeat=len(cells)):
        grid = {}
        for (i, j), v in zip(cells, filling):
            grid[(i, j)] = v
        ok = True
        for (i, j), v in grid.items():
            if (i, j + 1) in grid and grid[(i, j + 1)] < v:
                ok = False
                break
            if (i - 1, j) in grid and grid[(i - 1, j)] >= v:
                ok = False
                break
        if not ok:
            continue
        content = [0] * nvals
        for v in filling:
            content[v - 1] += 1
        if content != list(mu):
            continue
        # reverse reading word: rows top to bottom, right to left
        word = []
        for i, hi in enumerate(nu):
            for j in range(hi - 1, lam[i] - 1, -1):
                if (i, j) in grid:
                    word.append(grid[(i, j)])
        seen = [0] * nvals
        for v in word:
            seen[v - 1] += 1
            if v > 1 and seen[v - 2] < seen[v - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


@lru_cache(maxsize=None)
def gt_weights(lam):
    """Weight multiplicities of the irreducible U(r) representation with
    highest weight lam, from Gelfand-Tsetlin patterns.  Returns a tuple
    of (weight, multiplicity) pairs."""
    lam = tuple(lam)
    r = len(lam)
    if r == 1:
        return ((lam, 1),)
    out = {}
    lower_rows = []

    def interlace(top):
        ranges = [range(top[i + 1], top[i] + 1) for i in range(len(top) - 1)]
        return itertools.product(*ranges)

    for mid in interlace(lam):
        for weight, mult in gt_weights(mid):
            full = weight + (sum(lam) - sum(mid),)
            out[full] = out.get(full, 0) + mult
    return tuple(sorted(out.items()))


def tensor_weights(lams):
    """Weight multiplicities of the tensor product of irreducibles."""
    total = {(0,) * len(lams[0]): 1}
    for lam in lams:
        nxt = {}
        for w1, m1 in total.items():
            for w2, m2 in gt_weights(tuple(lam)):
                w = tuple(a + b for a, b in zip(w1, w2))
                nxt[w] = nxt.get(w, 0) + m1 * m2
        total = nxt
    return total


def invariant_dim(lams):
    """Dimension of the invariant subspace of the tensor product, by the
    alternating sum of weight multiplicities at rho - w(rho)."""
    r = len(lams[0])
    weights = tensor_weights(lams)
    rho = tuple(range(r - 1, -1, -1))
    total = 0
    for perm in itertools.permutations(range(r)):
        sign = _perm_sign(perm)
        target = tuple(rho[i] - rho[p] for i, p in enumerate(perm))
        total += sign * weights.get(target, 0)
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def orbit(tup):
    """The set of distinct coordinate permutations of a tuple."""
    return {SubsetTuple(p) for p in itertools.permutations(tup.parts)}


def all_tuples(size, ambient, arity):
    """Every arity-tuple of subsets of the given shape, in lexicographic
    order on the concatenated bit masks."""
    return map(SubsetTuple, itertools.product(all_subsets(size, ambient), repeat=arity))


def _check_shapes(outer, inner):
    if isinstance(outer, SubsetTuple):
        if inner.arity != outer.arity:
            raise ValueError(f"arity {inner.arity} != {outer.arity}")
    elif inner.ambient != outer.size:
        raise ValueError(f"inner ambient {inner.ambient} != outer size {outer.size}")


def compose(outer, inner):
    """Composition of increasing maps, ``(outer o inner)(k) =
    outer(inner(k))``, componentwise on tuples.  ``inner`` lives in
    [1..outer.size]; the result in outer's ambient."""
    _check_shapes(outer, inner)
    if isinstance(outer, SubsetTuple):
        return SubsetTuple(map(compose, outer, inner))
    return Subset((outer(j) for j in inner), outer.ambient)


def quotient(outer, inner):
    """The induced position ``outer(inner(k)) - inner(k) + k`` in ambient
    ``n - r + d``, componentwise on tuples."""
    _check_shapes(outer, inner)
    if isinstance(outer, SubsetTuple):
        return SubsetTuple(map(quotient, outer, inner))
    n, r, d = outer.ambient, outer.size, inner.size
    return Subset((outer(j) - j + k for k, j in enumerate(inner, start=1)),
                  n - r + d)


def entry_sum(tup, spectra):
    """Sum of the spectrum entries the tuple selects:
    ``sum over l, j in tup[l] of spectra[l][j-1]``."""
    if len(spectra) != tup.arity:
        raise ValueError("spectra arity does not match tuple arity")
    if any(len(spec) != tup.ambient for spec in spectra):
        raise ValueError(f"a spectrum's length is not the ambient {tup.ambient}")
    return sum(spec[j - 1] for part, spec in zip(tup, spectra) for j in part)


def slope(theta, tup):
    """The selected entry sum divided by the tuple size, an exact
    Fraction when the entries are exact."""
    return entry_sum(tup, theta) / Fraction(tup.size)


def horn_check(tup, store, sigma=None):
    """Decide whether a tuple is intersecting from the Horn inequalities
    against the store's lower levels (the symmetry-restricted ones when a
    cycle type is given, in which case the tuple itself must be fixed by
    the permutation)."""
    sigma = normalize_cycle_type(sigma, store.arity)
    if sigma is not None and not tup.is_stable(
            Permutation.from_cycle_type(sigma)):
        raise NotSigmaStable(f"{tup!r} is moved by the cycle type {sigma}")
    if expected_dim(tup) < 0:
        return False
    r = tup.size
    for d in range(1, r):
        table = store.table(d, r, sigma)
        for test in table.zero_dim_members():
            if expected_dim(compose(tup, test)) < expected_dim(test):
                return False
    return True


def survivor_chunks(size, ambient, s, sigma, tests, every=False):
    """The blocks of ``horn._horn_survivors`` unpacked: (cycles, K) index
    arrays, one per block that holds any survivor."""
    n = math.comb(ambient, size)
    for free, bits in horn._horn_survivors(size, ambient, s, sigma, tests,
                                           every):
        i, j = np.divmod(np.flatnonzero(np.unpackbits(
            bits, axis=1, count=n, bitorder="little")), n)
        if len(j):
            yield np.vstack((free[:, i], j))


def gather_sum_survivors(size, ambient, s, sigma, tests, every=False):
    """The chunks ``survivor_chunks`` unpacks from the kernel's blocks,
    from the same growth of sorted prefixes, the last cycle free (of
    every tuple when ``every``), and the same chunk bounds, but each
    candidate is decided on its own: per test level, one
    int32 table per cycle holds each part's share of each Horn row, and a
    candidate passes when the entries its cycles gather sum to at most the
    level's bound."""
    lengths = (1,) * s if sigma is None else sigma
    dims, partitions, _, _ = horn._index(size, ambient)
    threshold = (s - 1) * size * (ambient - size)
    reach = np.cumsum([0] + [w * dims.max() for w in lengths[::-1]])[::-1]
    levels = [(partitions @ horn_rows(d, rows, size, lengths)[:, :-1].T.reshape(
                  len(lengths), size, len(rows)).astype(np.int32),
               d * (ambient - size)) for d, rows in tests if len(rows)]
    step = max(1, horn._CHUNK_ROWS // len(dims))

    def passing(free):
        for tables, bound in levels:
            total = sum(table[i] for table, i in zip(tables, free))
            free = free[:, (total <= bound).all(axis=1)]
        return free

    def grow(free, sums, k):
        if k == len(lengths):
            free = passing(free)
            if free.shape[1]:
                yield free
            return
        gain = lengths[k] * dims
        for lo in range(0, len(sums), step):
            keep = sums[lo:lo + step, None] + gain >= threshold - reach[k + 1]
            if (not every and 0 < k < len(lengths) - 1
                    and lengths[k] == lengths[k - 1]):
                keep &= np.arange(len(dims)) >= free[k - 1, lo:lo + step, None]
            i, j = np.nonzero(keep)
            i += lo
            yield from grow(np.vstack((free[:, i], j)), sums[i] + gain[j],
                            k + 1)

    yield from grow(np.zeros((0, 1), dtype=np.intp), np.zeros(1, np.int64), 0)


def expanded_table(store, size, ambient, sigma):
    """The level the store would build, from the kernel's tuples with a
    sorted prefix: each orbit is expanded by the integer keys (in
    mask-key order) of every permutation of the cycles that keeps their
    lengths, sorted, deduped and unravelled into the rows."""
    s, n = store.arity, math.comb(ambient, size)
    lengths = (1,) * s if sigma is None else sigma
    starts = np.cumsum((0,) + lengths[:-1])
    free = np.hstack([np.zeros((len(lengths), 0), dtype=np.intp),
                      *survivor_chunks(size, ambient, s, sigma,
                                       store._test_sets(size, sigma))])
    perms = [p for p in itertools.permutations(range(len(lengths)))
             if [lengths[i] for i in p] == list(lengths)]
    keys = np.empty((len(perms), free.shape[1]), dtype=np.int64)
    for k, p in enumerate(perms):
        keys[k] = np.ravel_multi_index(free[list(p)], (n,) * len(lengths))
    del free
    keys = keys.reshape(-1)
    keys.sort()
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    # unravel one cycle at a time, straight into the uint16 rows
    rows = np.empty((len(keys), s), dtype=np.uint16)
    for lo, width in reversed(list(zip(starts, lengths))):
        for c in range(lo, lo + width):
            np.remainder(keys, n, out=rows[:, c], casting="unsafe")
        keys //= n
    del keys
    zero_dim = horn._zero_dim(rows, size, ambient)
    # the product is commutative: one coefficient per multiset of parts
    multisets, which = np.unique(np.sort(rows[zero_dim], axis=1), axis=0,
                                 return_inverse=True)
    partitions = horn._index(size, ambient).partitions
    is_point = np.array([lr._is_point(parts.tolist(), size, ambient)
                         for parts in partitions[multisets]], dtype=bool)
    point = np.zeros(len(rows), dtype=bool)
    point[zero_dim] = is_point[which.reshape(-1)]
    return HornTable(size, ambient, s, sigma, rows, point)


def weighted_census(chunks, size, ambient, s):
    """``horn.count_intersecting`` from plain (cycle type None) chunks of
    tuples with a sorted prefix, one column each: a row stands for the
    (s-1)!/prod(m!) orderings of its prefix, m running over the
    multiplicities of the prefix's parts, and the diagonal rows are kept
    to count their zero-dim ones."""
    total, diagonal = 0, [np.zeros((0, s), dtype=np.intp)]
    for free in chunks:
        rows = free.T  # one cycle per part
        # run: how many prefix parts so far equal this one; ties: prod(m!)
        run = ties = np.ones(len(rows), dtype=np.int64)
        for k in range(1, s - 1):
            run = np.where(rows[:, k] == rows[:, k - 1], run + 1, 1)
            ties = ties * run
        total += int((math.factorial(s - 1) // ties).sum())
        diagonal.append(rows[(rows == rows[:, :1]).all(axis=1)])
    diagonal = np.concatenate(diagonal)
    return IntersectingCount(total, len(diagonal),
                             int(horn._zero_dim(diagonal, size, ambient).sum()))


def subset_to_schubert_partition(subset, n=None):
    """Partition of the Schubert class of a subset of [1..n]; the weight
    of the result is the codimension of the class in Gr(size, n)."""
    if n is not None and n != subset.ambient:
        raise ValueError(f"subset lives in [1..{subset.ambient}], not [1..{n}]")
    return subset.schubert_partition()


def subset_index(size, ambient):
    """For each subset of all_subsets(size, ambient), in order: its
    elements, dim, Schubert partition, incidence row and, for size <
    ambient, the rank of {ambient + 1 - j : j not in it}."""
    subs = all_subsets(size, ambient)
    dual = [Subset([ambient + 1 - j for j in range(ambient, 0, -1)
                    if j not in p], ambient).rank() if size < ambient else None
            for p in subs]
    return ([p.elements for p in subs], [p.dim() for p in subs],
            [subset_to_schubert_partition(p, ambient) for p in subs],
            [[j in p for j in range(1, ambient + 1)] for p in subs], dual)


def lr_member(point):
    """Whether a SpectrumFamily (A_1 + ... + A_s = t I) is a cone point,
    by Knutson and Tao's saturation.  The trace and the chamber are
    checked first; then each spectrum but the last is shifted to a
    partition, the last taking up the shifts so that t = 0, and all are
    scaled to coprime integers: the point is a member exactly when nu, the
    last spectrum negated and reversed, is a partition and occurs
    (coefficient > 0, up to r rows) in the product of the other
    partitions' Schur classes.  Past three spectra the first ones are
    multiplied out in a box wide enough to truncate no class."""
    spectra, t, r = point.spectra, point.t, point.length
    if (any(list(x) != sorted(x, reverse=True) for x in spectra)
            or sum(map(sum, spectra)) != r * t):
        return False
    shifted = [[v - x[-1] for v in x] for x in spectra[:-1]]
    shifted.append([t - sum(x[-1] for x in spectra[:-1]) - v
                    for v in reversed(spectra[-1])])
    flat = [v for x in shifted for v in x]
    scale = math.lcm(*(v.denominator for v in flat))
    scale = Fraction(scale, math.gcd(*(int(v * scale) for v in flat)) or 1)
    *head, last, nu = [tuple(int(v * scale) for v in x) for x in shifted]
    if nu[-1] < 0:
        return False
    product = lr.schubert_product(head, (r, r + sum(x[0] for x in head)))
    return any(lr._lr(rho, lr.normalize_partition(last),
                      lr.normalize_partition(nu), cap=1) for rho in product)


# -- the reference LP -------------------------------------------------

ZERO = Fraction(0)
ONE = Fraction(1)


class LpResult(NamedTuple):
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction]
    point: Optional[tuple]


def reference_lp(objective, leq=(), eq=()):
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


def full_row_minimize(system, fix_t_zero=False):
    """Scan the rows in canonical order and drop each one whose box LP
    against the other rows still retained, over all variables (t left
    out on ``fix_t_zero``), has an optimum <= 0."""
    A = system.matrix[:, :-1] if fix_t_zero else system.matrix
    active = np.ones(len(A), bool)
    verdicts = []
    for k in range(len(A)):
        value = solve_lp(A[k], A[active & (np.arange(len(A)) != k)]).value
        verdicts.append(RowVerdict(k, system.constraint(k).kind, value > 0, value))
        active[k] = value > 0
    return MinimizeResult(tuple(np.flatnonzero(active).tolist()),
                          tuple(np.flatnonzero(~active).tolist()), tuple(verdicts))


def block_stabilizer(system, k, group):
    """The permutations p of ``group``, in order, under which row k of the
    system keeps its spectrum blocks: block p[c] equals block c for every c."""
    M = system.matrix
    blocks = M[:, :-1].reshape(len(M), -1, system.r)
    return tuple(p for p in group if (blocks[k, list(p)] == blocks[k]).all())


def _byte_images(system, blocks, rows=slice(None)):
    """The image of each row in ``rows`` under a block permutation, as bytes."""
    M, r = system.matrix, system.r
    cols = [b * r + i for b in blocks for i in range(r)] + [len(M.T) - 1]
    return M[rows].take(cols, axis=1).view((np.void, M[0].nbytes)).ravel().tolist()


def image_stabilizer(system, rows, group):
    """The permutations of ``group`` (identity first) under which the
    multiset of byte images of the picked rows stays the same."""
    ordered = sorted(_byte_images(system, group[0], rows))
    return tuple(p for p in group if sorted(_byte_images(system, p, rows)) == ordered)


def image_symmetries(system):
    """``image_stabilizer`` of every row among all block permutations."""
    return image_stabilizer(system, slice(None), [
        *itertools.permutations(range(len(system.cycles)))])


def image_orbits(system):
    """For each row, the first row whose bytes equal one of its images
    under ``image_symmetries``."""
    group, first = image_symmetries(system), {}
    for k, key in enumerate(_byte_images(system, group[0])):
        first.setdefault(key, k)
    return np.min([[first[key] for key in _byte_images(system, p)]
                   for p in group], axis=0)


def serial_find_witness(spectra, t, max_iters=5000, tol=1e-8, seed=0,
                        restarts=20, stall_window=150, residual_log=None):
    """``find_witness`` on explicit spectra, with its attempts run one
    after another: each projects its own (s, r, r) family until it
    converges, stalls or reaches ``max_iters``, and the first attempt
    that converges ends the search."""
    lams = [np.asarray(l, dtype=float) for l in spectra]
    t = float(t)
    r = lams[0].size
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
