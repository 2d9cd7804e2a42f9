"""End-to-end acceptance checks.

Each test prints one PASS line with its measured runtime; the stated
budgets are asserted.  Expected values are frozen from the published
reference listings for three summands and from hand/oracle computation.
"""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest
from _oracles import all_tuples, compose, quotient, slope

from horncone import witness
from horncone.cone import SpectrumFamily, generate_system, member, shift_rescale
from horncone.horn import HornStore, count_intersecting, cross_check
from horncone.lp import is_redundant, redundancy_report
from horncone.subsets import (
    Permutation,
    Subset,
    SubsetTuple,
    all_subsets,
    expected_dim,
    group_into_orbits,
)
from horncone.witness import find_witness


def _report(name, elapsed, budget, detail=""):
    print(f"PASS {name}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert elapsed <= budget


# -- 1: inequality counts by rank -------------------------------------

L0_EXPECTED = [2, 8, 20, 52, 156, 539]
LSIGMA0_EXPECTED = [2, 3, 4, 7, 10, 10]


def test_1_count_table_ranks_1_to_6():
    t0 = time.monotonic()
    store = HornStore(arity=3)
    l0 = [generate_system(r, 3, None, "full0", store).count for r in range(1, 7)]
    ls0 = [generate_system(r, 3, (3,), "full0", store).count for r in range(1, 7)]
    assert l0 == L0_EXPECTED
    assert ls0 == LSIGMA0_EXPECTED
    _report("1 count table r<=6", time.monotonic() - t0, 300,
            f"l0={l0} l_sigma0={ls0}")


@pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                    reason="rank-7 column is optional; set RUN_OPTIONAL=1")
def test_1b_count_table_rank_7():
    t0 = time.monotonic()
    store = HornStore(arity=3)
    full = generate_system(7, 3, None, "full0", store).count
    sym = generate_system(7, 3, (3,), "full0", store).count
    assert full == 2082
    assert sym == 18
    _report("1b count table r=7", time.monotonic() - t0, 1800,
            f"l0={full} l_sigma0={sym}")


# -- 2: reduced counts and essentiality --------------------------------

LMIN_EXPECTED = [2, 5, 20, 52, 156, 538]


def test_2_minimal_counts_and_lp_essentiality(store):
    t0 = time.monotonic()
    lmin = [generate_system(r, 3, None, "min00", store).count
            for r in range(1, 7)]
    assert lmin == LMIN_EXPECTED
    checked = 0
    for r in (2, 3, 4):
        system = generate_system(r, 3, None, "min00", store)
        report = redundancy_report(system)
        assert sum(v.essential for v in report.verdicts) == \
            len(report.verdicts) == system.count
        checked += system.count
    _report("2 reduced counts + LP essentiality r<=4", time.monotonic() - t0,
            600, f"l_min={lmin}, {checked} LPs all essential")


# -- 3: point-class orbit listings through rank 5 ----------------------

def O(*subsets):
    return tuple(tuple(s) for s in subsets)


# (size, rank) -> set of (orbit representative, all-equal flag)
POINT_ORBITS = {
    (1, 2): {
        (O([1], [2], [2]), False),
    },
    (1, 3): {
        (O([1], [3], [3]), False),
        (O([2], [2], [3]), False),
    },
    (2, 3): {
        (O([1, 2], [2, 3], [2, 3]), False),
        (O([1, 3], [1, 3], [2, 3]), False),
    },
    (1, 4): {
        (O([1], [4], [4]), False),
        (O([2], [3], [4]), False),
        (O([3], [3], [3]), True),
    },
    (2, 4): {
        (O([1, 2], [3, 4], [3, 4]), False),
        (O([1, 3], [2, 4], [3, 4]), False),
        (O([1, 4], [1, 4], [3, 4]), False),
        (O([1, 4], [2, 4], [2, 4]), False),
        (O([2, 3], [2, 3], [3, 4]), False),
        (O([2, 3], [2, 4], [2, 4]), False),
    },
    (3, 4): {
        (O([1, 2, 3], [2, 3, 4], [2, 3, 4]), False),
        (O([1, 2, 4], [1, 3, 4], [2, 3, 4]), False),
        (O([1, 3, 4], [1, 3, 4], [1, 3, 4]), True),
    },
    (1, 5): {
        (O([1], [5], [5]), False),
        (O([2], [4], [5]), False),
        (O([3], [3], [5]), False),
        (O([3], [4], [4]), False),
    },
    (2, 5): {
        (O([1, 2], [4, 5], [4, 5]), False),
        (O([1, 3], [3, 5], [4, 5]), False),
        (O([1, 4], [2, 5], [4, 5]), False),
        (O([1, 4], [3, 5], [3, 5]), False),
        (O([1, 5], [1, 5], [4, 5]), False),
        (O([1, 5], [2, 5], [3, 5]), False),
        (O([2, 3], [3, 4], [4, 5]), False),
        (O([2, 3], [3, 5], [3, 5]), False),
        (O([2, 4], [2, 4], [4, 5]), False),
        (O([2, 4], [2, 5], [3, 5]), False),
        (O([2, 4], [3, 4], [3, 5]), False),
        (O([2, 5], [2, 5], [2, 5]), True),
        (O([2, 5], [2, 5], [3, 4]), False),
        (O([3, 4], [3, 4], [3, 4]), True),
    },
    (3, 5): {
        (O([1, 2, 3], [3, 4, 5], [3, 4, 5]), False),
        (O([1, 2, 4], [2, 4, 5], [3, 4, 5]), False),
        (O([1, 2, 5], [1, 4, 5], [3, 4, 5]), False),
        (O([1, 2, 5], [2, 4, 5], [2, 4, 5]), False),
        (O([1, 3, 4], [2, 3, 5], [3, 4, 5]), False),
        (O([1, 3, 4], [2, 4, 5], [2, 4, 5]), False),
        (O([1, 3, 5], [1, 3, 5], [3, 4, 5]), False),
        (O([1, 3, 5], [1, 4, 5], [2, 4, 5]), False),
        (O([1, 3, 5], [2, 3, 5], [2, 4, 5]), False),
        (O([1, 4, 5], [1, 4, 5], [1, 4, 5]), True),
        (O([1, 4, 5], [2, 3, 5], [2, 3, 5]), False),
        (O([2, 3, 4], [2, 3, 4], [3, 4, 5]), False),
        (O([2, 3, 4], [2, 3, 5], [2, 4, 5]), False),
        (O([2, 3, 5], [2, 3, 5], [2, 3, 5]), True),
    },
    (4, 5): {
        (O([1, 2, 3, 4], [2, 3, 4, 5], [2, 3, 4, 5]), False),
        (O([1, 2, 3, 5], [1, 3, 4, 5], [2, 3, 4, 5]), False),
        (O([1, 2, 4, 5], [1, 2, 4, 5], [2, 3, 4, 5]), False),
        (O([1, 2, 4, 5], [1, 3, 4, 5], [1, 3, 4, 5]), False),
    },
}


def test_3_point_orbit_listings_match_reference(store):
    t0 = time.monotonic()
    total_orbits = 0
    for (d, r), expected in POINT_ORBITS.items():
        table = store.table(d, r)
        got = set()
        for rep, members in group_into_orbits(table.point_members()):
            stable = all(p == rep.parts[0] for p in rep.parts)
            got.add((tuple(p.elements for p in rep.parts), stable))
        assert got == expected, f"orbit listing differs at (d={d}, r={r})"
        total_orbits += len(got)
    _report("3 point-class orbit listings r<=5", time.monotonic() - t0, 300,
            f"{total_orbits} orbits across {len(POINT_ORBITS)} levels")


# -- 4: the (5, 10) census ---------------------------------------------

def test_4_intersecting_census_5_10():
    t0 = time.monotonic()
    store = HornStore(arity=3)
    store.build_through(4, 5)
    cnt = count_intersecting(5, 10, store)
    assert cnt.total == 718738
    assert cnt.diagonal == 49
    assert cnt.diagonal_zero_dim == 0
    # the symmetry-restricted recursion agrees with the diagonal census
    store.build_through(5, 10, sigma=(3,))
    table = store.table(5, 10, (3,))
    assert len(table) == 49
    assert not table.zero_dim_members()
    _report("4 census at (5,10)", time.monotonic() - t0, 1800,
            f"total={cnt.total} fixed={cnt.diagonal} zero-dim fixed=0")


@pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                    reason="(5,11) census check is optional; set RUN_OPTIONAL=1")
def test_4b_intersecting_census_5_11():
    # no total is frozen: the census is checked against Grassmann duality
    # Gr(5, 11) = Gr(6, 11) and its diagonal against the restricted level
    t0 = time.monotonic()
    store = HornStore(arity=3)
    cnt = count_intersecting(5, 11, store)
    assert cnt == count_intersecting(6, 11, store)
    table = store.table(5, 11, (3,))
    assert cnt.diagonal == len(table)
    assert cnt.diagonal_zero_dim == len(table.zero_dim_members())
    _report("4b census at (5,11)", time.monotonic() - t0, 1800,
            f"total={cnt.total} fixed={cnt.diagonal} "
            f"zero-dim fixed={cnt.diagonal_zero_dim}")


@pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                    reason="(6,12) census check is optional; set RUN_OPTIONAL=1")
def test_4c_intersecting_census_6_12():
    # no total is frozen: the diagonal is checked against the
    # three-equal-spectra level, which the sigma recursion builds alone
    t0 = time.monotonic()
    store = HornStore(arity=3)
    cnt = count_intersecting(6, 12, store)
    table = store.table(6, 12, (3,))
    assert cnt.diagonal == len(table)
    assert cnt.diagonal_zero_dim == len(table.zero_dim_members())
    _report("4c census at (6,12)", time.monotonic() - t0, 1800,
            f"total={cnt.total} fixed={cnt.diagonal} "
            f"zero-dim fixed={cnt.diagonal_zero_dim}")


# -- 5: the rank-6 repeated-spectrum system and its redundant row -------

def test_5_rank6_repeated_spectrum_system(store):
    t0 = time.monotonic()
    system = generate_system(6, 3, (3,), "full0", store)
    assert system.count == 10
    horn = {tuple(c.meta.tup.parts[0].elements): c.index
            for c in system.constraints() if c.kind == "horn"}
    assert set(horn) == {(1, 5, 6), (2, 4, 6), (3, 4, 5)}
    assert all(
        all(p.elements == c.meta.tup.parts[0].elements for p in c.meta.tup.parts)
        for c in system.constraints() if c.kind == "horn"
    )
    star = is_redundant(system, horn[(2, 4, 6)], fix_t_zero=True)
    assert not star.essential and star.optimum == 0
    assert is_redundant(system, horn[(1, 5, 6)], fix_t_zero=True).essential
    assert is_redundant(system, horn[(3, 4, 5)], fix_t_zero=True).essential
    assert is_redundant(system, 0, fix_t_zero=True).essential
    assert is_redundant(system, 1, fix_t_zero=True).essential
    _report("5 rank-6 repeated-spectrum system", time.monotonic() - t0, 300,
            "row {2,4,6} redundant, others essential")


# -- 6: recursion agrees with the LR backend ---------------------------

def test_6_recursion_vs_lr_everywhere(store):
    t0 = time.monotonic()
    total = 0
    for n in range(1, 7):
        for r in range(1, n + 1):
            report = cross_check(r, n, store)
            assert report.clean, report.mismatches[:3]
            total += report.total
    _report("6 recursion vs LR through ambient 6", time.monotonic() - t0, 600,
            f"{total} tuples, zero mismatches")


# -- 7: zero-dim equals point-class through rank 5, strict at (3, 6) ----

def test_7_zero_dim_vs_point_class(store):
    t0 = time.monotonic()
    for r in range(1, 6):
        for d in range(1, r + 1):
            table = store.table(d, r)
            assert table.zero_dim == table.point, (d, r)
    table36 = store.table(3, 6)
    strict = set(table36.zero_dim_members()) - set(table36.point_members())
    witness = SubsetTuple.of([2, 4, 6], [2, 4, 6], [2, 4, 6], ambient=6)
    assert witness in strict
    _report("7 zero-dim vs point-class flags", time.monotonic() - t0, 300,
            f"equal through rank 5; {len(strict)} strict witness(es) at (3,6)")


# -- 8: invariant suites ------------------------------------------------

def test_8_invariant_suites(store):
    t0 = time.monotonic()
    rng = random.Random(2024)

    # chain identity: componentwise exhaustive through ambient 6 (the
    # tuple identity is the sum of these), plus sampled full tuples
    for n in range(1, 7):
        for r in range(1, n + 1):
            for d in range(1, r + 1):
                for m in range(1, d + 1):
                    for I in all_subsets(r, n):
                        for J in all_subsets(d, r):
                            IJ = compose(I, J)
                            IqJ = quotient(I, J)
                            for K in all_subsets(m, d):
                                assert (
                                    compose(IqJ, K).dim() - K.dim()
                                    == compose(IJ, K).dim() - compose(J, K).dim()
                                )
    for _ in range(500):
        n = rng.randint(3, 6)
        r = rng.randint(2, n)
        d = rng.randint(1, r)
        m = rng.randint(1, d)
        pick = lambda size, amb: Subset(
            sorted(rng.sample(range(1, amb + 1), size)), amb)
        outer = SubsetTuple(pick(r, n) for _ in range(3))
        mid = SubsetTuple(pick(d, r) for _ in range(3))
        inner = SubsetTuple(pick(m, d) for _ in range(3))
        lhs = expected_dim(compose(quotient(outer, mid), inner)) - expected_dim(inner)
        rhs = expected_dim(compose(compose(outer, mid), inner)) \
            - expected_dim(compose(mid, inner))
        assert lhs == rhs

    # slope identity, same scheme
    for n in range(1, 7):
        for r in range(1, n + 1):
            for d in range(1, r + 1):
                for I in all_subsets(r, n):
                    lam = I.schubert_partition()
                    for J in all_subsets(d, r):
                        assert (
                            compose(I, J).dim() - J.dim()
                            == d * (n - r) - sum(lam[j - 1] for j in J.elements)
                        )
    for _ in range(500):
        n = rng.randint(2, 6)
        r = rng.randint(1, n)
        d = rng.randint(1, r)
        pick = lambda size, amb: Subset(
            sorted(rng.sample(range(1, amb + 1), size)), amb)
        outer = SubsetTuple(pick(r, n) for _ in range(3))
        inner = SubsetTuple(pick(d, r) for _ in range(3))
        gam = [tuple(-x for x in p.schubert_partition()) for p in outer]
        assert (
            expected_dim(compose(outer, inner)) - expected_dim(inner)
            == d * slope(gam, inner) + d * (n - r)
        )

    # composition closure of the intersecting levels; membership is read
    # off each level's mask keys, fetched once
    keys = {(r, n): {t.mask_key for t in store.table(r, n).members}
            for n in range(1, 7) for r in range(1, n + 1)}
    for n in range(2, 7):
        for r in range(2, n + 1):
            outer = store.table(r, n).members
            for d in range(1, r):
                inner = store.table(d, r).members
                for big in outer:
                    for small in inner:
                        assert compose(big, small).mask_key in keys[d, n]

    # permutation equivariance of expected dimension and of membership
    perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    for n in range(1, 7):
        for r in range(1, n + 1):
            for tup in all_tuples(r, n, 3):
                e = expected_dim(tup)
                mem = tup.mask_key in keys[r, n]
                for perm in perms:
                    moved = tup.permuted(perm)
                    assert expected_dim(moved) == e
                    assert (moved.mask_key in keys[r, n]) == mem

    # shift/rescale invariance of membership on 10^4 random points
    system = generate_system(3, 3, None, "full0", store)
    for _ in range(10_000):
        spectra = [
            sorted((Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                    for _ in range(3)), reverse=True)
            for _ in range(3)
        ]
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if rng.random() < 0.5:
            t = Fraction(sum(sum(s) for s in spectra), 3)
        p = SpectrumFamily(spectra, t)
        taus = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
        c = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        q = shift_rescale(p, taus, c)
        assert member(p, system).is_member == member(q, system).is_member
    _report("8 invariant suites", time.monotonic() - t0, 600)


# -- 9: numeric witnesses agree with exact membership -------------------

def test_9_witness_agreement(store, monkeypatch):
    t0 = time.monotonic()
    rng = random.Random(909)
    system = generate_system(3, 3, None, "full0", store)
    constraints = system.constraints()

    def sample_point():
        spectra = [
            sorted((Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                    for _ in range(3)), reverse=True)
            for _ in range(3)
        ]
        t = Fraction(sum(sum(s) for s in spectra), 3)
        return SpectrumFamily(spectra, t)

    # members are sampled from the interior (every Horn row strict):
    # on a facet the orbit product meets the affine space tangentially
    # and alternating projections are documented to stall there
    members, rejected = [], []
    while len(members) < 100 or len(rejected) < 100:
        p = sample_point()
        numerators, denom = system.excesses(p)
        excess = [Fraction(n, denom) for n in numerators.tolist()]
        if member(p, system).is_member:
            interior = all(
                excess[c.index] < 0
                for c in constraints if c.kind == "horn"
            )
            if interior and len(members) < 100:
                members.append(p)
        else:
            scale = max(
                max(abs(x) for spec in p.spectra for x in spec),
                abs(p.t), Fraction(1),
            )
            worst = max(excess[c.index] for c in constraints)
            if worst / scale >= Fraction(1, 10) and len(rejected) < 100:
                rejected.append(p)

    monkeypatch.setattr(witness, "_STALL_WINDOW", 60)
    for p in members:
        res = find_witness(p, seed=17)
        assert res.converged and res.residual <= 1e-8, (p, res.residual)
    mid = time.monotonic()
    for p in rejected:
        res = find_witness(p, seed=17)
        assert not res.converged, p
    _report("9 witness agreement 100+100", time.monotonic() - t0, 600,
            f"members {mid - t0:.0f}s, non-members {time.monotonic() - mid:.0f}s")
