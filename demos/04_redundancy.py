"""Pruning redundant inequalities with an exact integer simplex.

Whether one row of a cone description is implied by the others is a
linear program: maximize the row's functional over the region cut out by
the rest, intersected with the box [-1,1] on every variable (enough,
since all rows are homogeneous).  The arithmetic is exact, so a verdict
is a certificate, not a numerical guess.
"""

from horncone import HornStore, generate_system, is_redundant, minimize_system

store = HornStore(arity=3)

# For three equal spectra at rank 6 the description has ten rows; on the
# slice t = 0 one of the three Horn rows is implied by the other rows.
system = generate_system(6, 3, (3,), "full0", store)
print("rank-6 equal-spectra system, slice t = 0:")
for con in system.constraints():
    if con.kind in ("trace_le", "trace_ge", "horn"):
        verdict = is_redundant(system, con.index, fix_t_zero=True)
        print(f"  [{con.index}] {con.describe():54} {verdict.verdict}"
              f" (optimum {verdict.optimum})")

# Greedy reduction of the full rank-2 description: the three ordering
# rows drop out, the trace equality and the three Horn rows remain.
full2 = generate_system(2, 3, None, "full0", store)
result = minimize_system(full2)
print(f"\nrank-2 description: {full2.count} rows -> {result.retained_count} retained")
for i in result.retained:
    print("  ", full2.constraints()[i].describe())
