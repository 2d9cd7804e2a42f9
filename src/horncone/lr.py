"""Littlewood-Richardson rule and Schubert-class products on a Grassmannian.

Schubert classes of Gr(r, n) are indexed by partitions inside the
r x (n-r) box, the Schubert partitions of the r-subsets of [n] (the
weight of one is the subset's codim()); products expand over those
subsets through integer Littlewood-Richardson coefficients, computed
here by direct enumeration of skew tableaux with lattice-word pruning.
Coefficients are plain Python ints, so they never overflow.

:func:`point_coefficient` reads the point-class coefficient of a product
without expanding it; level builds call it.  Each distinct partition is
checked once (memoized), and internal paths take checked ones.
:func:`classify` expands the whole product of a subset tuple's classes
and decides whether it is zero, nonzero, a multiple of the point class,
or the point class itself; it is the independent backend of the
cross-check and the tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .subsets import _integer, all_subsets, expected_dim


def normalize_partition(parts):
    """Trim trailing zeros; ValueError unless the parts are nonnegative,
    weakly decreasing integers (numpy ones too, bools not); memoized."""
    return _normalized(*parts)


@lru_cache(maxsize=None, typed=True)
def _normalized(*parts):
    parts = tuple(map(_integer, parts))
    if sorted(parts, reverse=True) != list(parts) or parts and parts[-1] < 0:
        raise ValueError(f"parts {parts} are negative or increase")
    return tuple(x for x in parts if x)


def lr_coefficient(lam, mu, nu):
    """The Littlewood-Richardson coefficient c(lam, mu; nu): the number
    of semistandard skew tableaux of shape nu/lam and content mu whose
    reverse reading word is a lattice word.  Zero when the shapes are
    incompatible."""
    return _lr(*map(normalize_partition, (lam, mu, nu)))


def _lr(lam, mu, nu):  # lr_coefficient of normalized partitions
    if len(lam) > len(nu) or any(a < b for a, b in zip(nu, lam)):
        return 0
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if not mu:
        return 1
    return _count_skew_lattice_fillings(nu, lam, mu)


def _count_skew_lattice_fillings(nu, lam, mu):
    """Count the fillings by backtracking over cells in reverse reading
    order (rows top to bottom, right to left), pruning on row/column
    conditions, content and the lattice prefix condition."""
    lam_pad = lam + (0,) * (len(nu) - len(lam))
    cells = [(i, j) for i, (lo, hi) in enumerate(zip(lam_pad, nu))
             for j in range(hi - 1, lo - 1, -1)]
    nvals = len(mu)
    counts = [0] * nvals
    grid = [[0] * hi for hi in nu]
    total = 0

    def fill(pos):
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        right = grid[i][j + 1] if j + 1 < nu[i] else nvals
        above = grid[i - 1][j] if i > 0 and j >= lam_pad[i - 1] else 0
        for v in range(above + 1, right + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 2] <= counts[v - 1]:
                continue
            grid[i][j] = v
            counts[v - 1] += 1
            fill(pos + 1)
            counts[v - 1] -= 1
        grid[i][j] = 0

    fill(0)
    return total


@lru_cache(maxsize=None)
def schur_product_in_box(lam, mu, rows, cols):
    """Expansion of the product of two Schur/Schubert classes inside the
    rows x cols box, as a tuple of (partition, coefficient) pairs in
    decreasing lexicographic order; this is the multiplication of the
    cohomology ring of Gr(rows, rows + cols).  The candidate nu are the
    Schubert partitions of all_subsets(rows, rows + cols) of the right
    weight; a factor outside the box gives the empty product, since
    c(lam, mu; nu) vanishes unless nu contains lam and mu."""
    lam, mu = normalize_partition(lam), normalize_partition(mu)
    weight = sum(lam) + sum(mu)
    out = []
    for sub in all_subsets(rows, rows + cols):
        if sub.codim() == weight:
            nu = normalize_partition(sub.schubert_partition())
            c = _lr(lam, mu, nu)
            if c:
                out.append((nu, c))
    return tuple(sorted(out, reverse=True))


def schubert_product(partitions, grassmannian):
    """Product of Schubert classes in H*(Gr(r, n)), as a dict mapping box
    partitions to positive integer coefficients.  Empty dict means the
    product is zero.  The fold starts at the first class (the unit when
    there is none) and truncates to the box after every product."""
    r, n = grassmannian
    rows, cols = r, n - r
    lams = [normalize_partition(lam) for lam in partitions]
    if any(len(lam) > rows or lam and lam[0] > cols for lam in lams):
        return {}
    vec = {lams.pop(0) if lams else (): 1}
    for lam in lams:
        new = {}
        for key, coeff in vec.items():
            for nu, c in schur_product_in_box(key, lam, rows, cols):
                new[nu] = new.get(nu, 0) + coeff * c
        vec = new
    return vec


def point_coefficient(partitions, r, n):
    """Coefficient of the point class in the product of the Schubert
    classes ``partitions`` (inside the r x (n-r) box) in H*(Gr(r, n)): the
    first s - 2 classes are multiplied out (for s = 3, the first class is
    its own product; off the box its term below vanishes), and each term
    c * sigma_nu adds c * c(nu, lambda_{s-1}; lambda_s^vee), lambda_s^vee
    being the box complement of the last class.  A lone class is paired
    with the unit.  Level builds call it below the middle only."""
    *head, lam, last = ([()] * (2 - len(partitions))
                        + [normalize_partition(p) for p in partitions])
    dual = normalize_partition([n - r - x for x in reversed(last + (0,) * (r - len(last)))])
    if len(head) == 1:
        return _lr(head[0], lam, dual)
    return sum(c * _lr(nu, lam, dual)
               for nu, c in schubert_product(head, (r, n)).items())


KIND_ZERO = "zero"
KIND_POSITIVE = "positive"
KIND_POINT_MULTIPLE = "point_multiple"
KIND_POINT = "point"


class IntersectionClass(NamedTuple):
    """Classification of a Schubert product.

    kind:
      * ``zero`` -- the product vanishes (the tuple is not intersecting);
      * ``positive`` -- nonzero, but not concentrated on the point class;
      * ``point_multiple`` -- c times the point class with c >= 2;
      * ``point`` -- exactly the point class (coefficient one).

    ``point_coefficient`` is the coefficient of the point class when the
    expected dimension is zero, and None otherwise.
    """

    kind: str
    point_coefficient: Optional[int]

    @property
    def is_intersecting(self):
        return self.kind != KIND_ZERO

    @property
    def is_zero_dim(self):
        """Nonzero product of total codimension equal to dim Gr: a
        multiple of the point class (the coefficient may be one)."""
        return self.kind in (KIND_POINT_MULTIPLE, KIND_POINT)

    @property
    def is_point(self):
        return self.kind == KIND_POINT


def classify(tup):
    """Classify the product of the Schubert classes of a subset tuple in
    the cohomology of Gr(size, ambient)."""
    r, n = tup.size, tup.ambient
    edim = expected_dim(tup)
    vec = schubert_product([p.schubert_partition() for p in tup.parts], (r, n))
    if edim != 0:
        kind = KIND_ZERO if not vec else KIND_POSITIVE
        return IntersectionClass(kind, None)
    box_full = normalize_partition((n - r,) * r)
    coeff = vec.get(box_full, 0)
    if coeff == 0:
        return IntersectionClass(KIND_ZERO, 0)
    kind = KIND_POINT if coeff == 1 else KIND_POINT_MULTIPLE
    return IntersectionClass(kind, coeff)
