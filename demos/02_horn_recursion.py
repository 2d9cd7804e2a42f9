"""Building the intersecting levels by the Horn recursion.

A tuple is intersecting exactly when its expected dimension is
nonnegative and it satisfies the Horn inequalities indexed by the
zero-expected-dimension tuples of the lower levels.  A store therefore
builds a level, and the lower levels it reads, when the level is first
asked for, and every verdict can be cross-checked against the
Littlewood-Richardson classification.
"""

from horncone import HornStore, count_intersecting, cross_check, group_into_orbits

store = HornStore(arity=3)

# The point-class tuples of each level, listed up to coordinate
# permutation; the all-equal orbits (marked *) survive the restriction
# to triples of equal spectra.
for (d, r) in [(1, 4), (2, 5)]:
    table = store.table(d, r)
    print(f"point-class tuples of Subsets({d},{r},3), up to permutation:")
    for rep, members in group_into_orbits(table.point_members()):
        mark = " *" if all(p == rep.parts[0] for p in rep.parts) else ""
        row = "  ".join("{" + ",".join(map(str, p.elements)) + "}" for p in rep.parts)
        print(f"  {row}   x{len(members)}{mark}")
    print()

# The same verdicts from the cohomology side, tuple by tuple.
report = cross_check(2, 5, store)
print(f"cross-check at (2,5): {report.total} tuples,"
      f" {len(report.mismatches)} mismatches")

# Counting at a scale where listing is pointless: the census of
# Subsets(5,10,3) runs the same Horn filter over its 16 million
# candidate triples in chunks, without building a table.
cnt = count_intersecting(5, 10, store)
print(f"\nintersecting tuples in Subsets(5,10,3): {cnt.total:,}")
print(f"fixed by a cyclic shift of the three factors: {cnt.diagonal}")
print(f"of these, with expected dimension zero: {cnt.diagonal_zero_dim}")
