"""Subsets, partitions, and products of Schubert classes.

A subset of [1..n] with r elements indexes a Schubert class of the
Grassmannian Gr(r, n); products of such classes expand through
Littlewood-Richardson coefficients, and a tuple of subsets is called
intersecting when the product of its classes is nonzero.
"""

from horncone import (
    Permutation,
    Subset,
    SubsetTuple,
    classify,
    expected_dim,
    lr_coefficient,
    schubert_product,
)

# The subset {2, 3, 5} of [1..5] is the increasing map 1->2, 2->3, 3->5.
I = Subset([2, 3, 5], 5)
print("subset:", I)
print("as a partition in Gr(3,5):", I.schubert_partition())
print("dimension of its Schubert variety:", I.dim())

# Tuples of subsets: the expected dimension of the intersection of their
# Schubert varieties, and whether the 3-cycle of the positions fixes them.
cycle = Permutation.from_cycle_type((3,))
print()
for tup in [SubsetTuple([I] * 3),
            SubsetTuple.of([1, 3], [1, 3], [2, 3], ambient=3)]:
    print(f"{tup}: expected dim {expected_dim(tup)},"
          f" fixed by the 3-cycle: {tup.is_stable(cycle)}")

# A Littlewood-Richardson coefficient that is bigger than one.
print("\nc((2,1),(2,1); (3,2,1)) =", lr_coefficient((2, 1), (2, 1), (3, 2, 1)))

# The product of two hyperplane classes in Gr(2,4) splits into two terms.
print("s1 * s1 in Gr(2,4):", schubert_product([(1,), (1,)], (2, 4)))

# Classify some tuples: the point coefficient tells the three levels apart.
examples = [
    SubsetTuple.of([1], [2], [2], ambient=2),
    SubsetTuple.of([2, 4, 6], [2, 4, 6], [2, 4, 6], ambient=6),
    SubsetTuple.of([1], [1], [1], ambient=2),
]
print()
for tup in examples:
    cls = classify(tup)
    print(f"{tup}: expected dim {expected_dim(tup)}, kind {cls.kind},"
          f" point coefficient {cls.point_coefficient}")
