"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own algorithms: the tableau
counter enumerates every filling with no pruning, and the invariant
dimension comes from Gelfand-Tsetlin weight multiplicities plus the
alternating Weyl-group sum, not from any Littlewood-Richardson rule.
``orbit`` lists the coordinate permutations of a tuple.
"""

import itertools
from functools import lru_cache

from horncone.subsets import SubsetTuple


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
