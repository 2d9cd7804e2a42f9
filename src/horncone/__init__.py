"""Exact computation of the eigenvalue cone of sums of Hermitian matrices.

The package enumerates intersecting Schubert-class tuples by the Horn
recursion (with an optional restriction to tuples fixed by a coordinate
permutation), cross-checks them against a Littlewood-Richardson backend,
generates the resulting inequality descriptions of the cone, decides
exact rational membership, prunes redundant inequalities with an exact
simplex, and searches for explicit matrix witnesses numerically.

The subset types carry what the recursion and the systems read: sizes,
dimensions, Schubert partitions and the action of position permutations.
The Horn inequalities ``edim(I o J) >= edim(J)`` are evaluated in closed
form on Schubert partitions (``horn.horn_rows``), so no subset
composition is computed.
"""

from .subsets import (
    Permutation,
    Subset,
    SubsetTuple,
    all_subsets,
    expected_dim,
    group_into_orbits,
    orbit_representative,
    stable_tuples,
)
from .lr import (
    IntersectionClass,
    classify,
    lr_coefficient,
    schubert_product,
)
from .horn import (
    HornStore,
    HornTable,
    NotSigmaStable,
    count_intersecting,
    cross_check,
)
from .cone import (
    InequalitySystem,
    SpectrumFamily,
    generate_system,
    member,
    shift_rescale,
)
from .lp import (
    is_redundant,
    minimize_system,
    redundancy_report,
    solve_lp,
)
from .witness import (
    NumericalFailure,
    WitnessResult,
    find_witness,
    hermitian_eigh,
    project_to_orbit,
    sample_orbit,
)

__version__ = "0.1.0"

__all__ = [
    "Permutation", "Subset", "SubsetTuple", "all_subsets", "expected_dim",
    "group_into_orbits", "orbit_representative", "stable_tuples",
    "IntersectionClass", "classify", "lr_coefficient", "schubert_product",
    "HornStore", "HornTable", "NotSigmaStable",
    "count_intersecting", "cross_check",
    "InequalitySystem", "SpectrumFamily", "generate_system", "member",
    "shift_rescale",
    "is_redundant", "minimize_system", "redundancy_report", "solve_lp",
    "NumericalFailure", "WitnessResult", "find_witness", "hermitian_eigh",
    "project_to_orbit", "sample_orbit",
]
