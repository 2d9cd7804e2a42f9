import itertools
import json
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from horncone import lp
from horncone.cone import InequalitySystem, SpectrumFamily, generate_system, member
from horncone.horn import HornStore
from horncone.lp import (
    RowVerdict,
    is_redundant,
    minimize_system,
    redundancy_report,
    solve_lp,
)

from _oracles import (
    block_stabilizer,
    full_row_minimize,
    image_orbits,
    image_stabilizer,
    image_symmetries,
    reference_lp,
)


def reference_box_lp(objective, rows):
    """The box LP as the general reference simplex states it: the rows
    ``a . x <= 0``, then ``x_i <= 1`` and ``-x_i <= 1`` for each i."""
    n = len(objective)
    box = [([sign if j == i else 0 for j in range(n)], 1)
           for i in range(n) for sign in (1, -1)]
    return reference_lp(objective, [(a, 0) for a in rows] + box)


class TestSolveLp:
    def test_bounded(self):
        # the box alone bounds the program
        res = solve_lp([1, -2], [])
        assert res.value == 3 and res.point == (1, -1)

    def test_corner(self):
        # 2x <= y <= 1: the optimum sits at the corner (1/2, 1)
        res = solve_lp([1, 1], [[2, -1]])
        assert res.value == Fraction(3, 2)
        assert res.point == (Fraction(1, 2), 1)

    def test_exact_fractions(self):
        # x <= y / 3 <= 1 / 3, returned as Fractions
        res = solve_lp([1, 0], [[3, -1]])
        assert res.value == Fraction(1, 3) and res.point == (Fraction(1, 3), 1)
        assert all(type(x) is Fraction for x in (res.value, *res.point))

    def test_order_independence(self):
        rng = random.Random(61)
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(12)]
        obj = [1, 2, -1]
        base = solve_lp(obj, rows)
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert solve_lp(obj, shuffled).value == base.value

    @pytest.mark.parametrize("objective, rows", [
        ([1, 1], [[Fraction(1, 2), -1]]),   # would floor 1/2 to 0
        ([1, 1], [[1, -1, 5]]),             # a third entry for 2 variables
        ([1, 1], [[1]]),                    # a missing entry
        ([Fraction(1, 2), 1], [[1, -1]]),   # a Fraction in the objective
        ([1, 1], [[0.5, -1]]),              # a float row
        ([True, 2], [[1, False]]),          # bools, as subsets._integer
        (np.array([1, 1]), np.array([[True, False]])),
    ])
    def test_malformed_input_is_rejected(self, objective, rows):
        with pytest.raises(ValueError, match="integer entries"):
            solve_lp(objective, rows)

    def test_numpy_integers_are_integers(self):
        res = solve_lp(np.array([1, 1]), [np.array([2, -1], dtype=np.int32)])
        assert res == solve_lp([1, 1], [[2, -1]])
        assert all(type(x.numerator) is int for x in (res.value, *res.point))


def check_optimum(objective, rows):
    """solve_lp against the reference simplex: the same value, and a
    returned point that satisfies every row and the box and attains the
    value, all in exact Fractions.  Ties may end on another optimal
    vertex than the reference's, so the points are not compared."""
    got, want = solve_lp(objective, rows), reference_box_lp(objective, rows)
    assert got.value == want.value
    x = [Fraction(v) for v in got.point]
    assert len(x) == len(objective) and all(-1 <= v <= 1 for v in x)
    assert all(sum(int(a) * v for a, v in zip(row, x)) <= 0 for row in rows)
    assert sum(int(c) * v for c, v in zip(objective, x)) == got.value
    return got


class TestAgainstReference:
    # the integer tableau reaches the optimum of the general Fraction
    # simplex, at a vertex checked exactly
    def check_system(self, system, indices=None, fix_t_zero=False):
        vectors = [a[:-1] if fix_t_zero else a for a in system.matrix.tolist()]
        if indices is None:
            indices = range(system.count)
        for k in indices:
            check_optimum(vectors[k], vectors[:k] + vectors[k + 1:])

    @pytest.mark.parametrize("r, level", [(3, "full0"), (4, "full0"),
                                          (3, "min00")])
    def test_plain_systems(self, store, r, level):
        self.check_system(generate_system(r, 3, None, level, store))

    def test_rank6_sigma_slice(self, store):
        system = generate_system(6, 3, (3,), "full0", store)
        self.check_system(system, fix_t_zero=True)

    def test_rank5_seeded_rows(self, store):
        system = generate_system(5, 3, None, "full0", store)
        rows = random.Random(71).sample(range(system.count), 3)
        self.check_system(system, rows)

    def test_empty_program(self):
        assert check_optimum([], []) == (0, ())

    @pytest.mark.parametrize("scale, seed", [
        (10 ** 6, 79),    # int64 at first; products pass 2**31 mid-solve
        (10 ** 12, 83),   # Python ints from the start
        (10 ** 20, 89),   # beyond int64 itself
    ])
    def test_random_large_coefficients(self, scale, seed):
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-scale, scale) for _ in range(n)]
                    for _ in range(rng.randint(1, 10))]
            check_optimum([rng.randint(-scale, scale) for _ in range(n)], rows)

    def test_random_homogeneous(self):
        rng = random.Random(73)
        for _ in range(50):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)]
                    for _ in range(rng.randint(0, 12))]
            check_optimum([rng.randint(-4, 4) for _ in range(n)], rows)

    def test_beale_cycling_program(self):
        # Beale (1955): the largest-coefficient rule cycles on it.  x >= 0
        # is written as the homogeneous rows -x_i <= 0, and the box puts
        # the optimum 5 at x = (1, 0, 1, 0) after degenerate pivots
        rows = [[1, -32, -4, 36], [2, -48, -2, 12]]
        rows += [[-int(i == j) for j in range(4)] for i in range(4)]
        got = check_optimum([3, -80, 2, -24], rows)
        assert got.value == 5

    def test_free_variable_enters_negative(self):
        # min x + y with y <= 2x: both variables enter the basis by
        # decreasing, at the one optimal vertex (-1/2, -1)
        got = check_optimum([-1, -1], [[-2, 1]])
        assert got == (Fraction(3, 2), (Fraction(-1, 2), -1))


class TestRedundancy:
    def test_duplicate_row_is_redundant(self, store):
        # a literal copy of a row is always implied by its twin
        system = generate_system(2, 3, None, "full0", store)
        d, rows, point = system.levels[0]
        doubled = InequalitySystem(2, 3, None, "full0",
                                   [*system.levels, (d, rows[:1], point[:1])])
        assert doubled.horn == system.horn + (system.horn[0],)
        dup_idx = doubled.constraints()[-1].index
        assert not is_redundant(doubled, dup_idx).essential
        # the copy shares its twin's orbit, and every verdict is its own
        assert doubled.orbits[dup_idx] == doubled.orbits[2 + doubled.chamber_count]
        for fix_t_zero in (False, True):
            assert list(redundancy_report(doubled, fix_t_zero).verdicts) == \
                direct_verdicts(doubled, fix_t_zero)

    def test_rank2_minimal_rows_all_essential(self, store):
        system = generate_system(2, 3, None, "min00", store)
        assert system.count == 5
        report = redundancy_report(system)
        assert sum(v.essential for v in report.verdicts) == 5

    def test_rank6_sigma_slice_example(self, store):
        system = generate_system(6, 3, (3,), "full0", store)
        by_tuple = {}
        for con in system.constraints():
            if con.kind == "horn":
                key = tuple(con.meta.tup.parts[0].elements)
                by_tuple[key] = con.index
        assert set(by_tuple) == {(1, 5, 6), (2, 4, 6), (3, 4, 5)}
        assert not is_redundant(system, by_tuple[(2, 4, 6)], fix_t_zero=True).essential
        assert is_redundant(system, by_tuple[(1, 5, 6)], fix_t_zero=True).essential
        assert is_redundant(system, by_tuple[(3, 4, 5)], fix_t_zero=True).essential
        assert is_redundant(system, 0, fix_t_zero=True).essential
        assert is_redundant(system, 1, fix_t_zero=True).essential

    def test_rank5_reduced_rows_all_essential(self, store):
        system = generate_system(5, 3, None, "min00", store)
        report = redundancy_report(system)
        assert sum(v.essential for v in report.verdicts) == system.count == 156

    def test_rank6_plain_rows_essential_iff_point(self, store):
        # Knutson-Tao-Woodward and Belkale: the essential Horn rows are
        # exactly those whose LR coefficient is 1 (the point flag)
        system = generate_system(6, 3, None, "full0", store)
        report = redundancy_report(system)
        assert sum(v.essential for v in report.verdicts) == 538 == system.count - 1
        cons = system.constraints()
        [star] = [v for v in report.verdicts if not v.essential]
        horn = cons[star.index].meta
        assert cons[star.index].kind == "horn" and horn.d == 3
        assert [p.elements for p in horn.tup.parts] == [(2, 4, 6)] * 3
        assert not horn.is_point and star.optimum == 0
        for verdict, con in zip(report.verdicts, cons):
            assert verdict.essential == (con.kind != "horn"
                                         or con.meta.is_point), con.index

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="414 exact LPs (~12 s); set RUN_OPTIONAL=1")
    def test_rank7_plain_rows_essential_iff_point(self):
        # at rank 7 the 20 zero-dim rows that are not point rows, and no
        # other row, are redundant
        system = generate_system(7, 3, None, "full0", HornStore(arity=3))
        report = redundancy_report(system)
        assert system.count == 2082 and len(set(system.orbits.tolist())) == 414
        assert sum(not v.essential for v in report.verdicts) == 20
        for verdict, con in zip(report.verdicts, system.constraints()):
            assert verdict.essential == (con.kind != "horn"
                                         or con.meta.is_point), con.index

    @pytest.mark.parametrize("index", [8, -1])
    def test_row_index_checked_before_any_lp(self, store, monkeypatch, index):
        system = generate_system(2, 3, None, "full0", store)
        assert system.count == 8

        def no_lp(*args):
            raise AssertionError("solved an LP for a row that is not there")

        monkeypatch.setattr(lp, "solve_lp", no_lp)
        with pytest.raises(IndexError, match=f"row {index} of a system of 8"):
            is_redundant(system, index)

    @pytest.mark.parametrize("index", [1.0, True])
    def test_row_index_must_be_an_integer(self, store, monkeypatch, index):
        # 1.0 raised a TypeError deep inside, True a misleading "every LP
        # row needs 1 integer entries"
        system = generate_system(2, 3, None, "full0", store)

        def no_lp(*args):
            raise AssertionError("solved an LP for a row that is not there")

        monkeypatch.setattr(lp, "solve_lp", no_lp)
        with pytest.raises(ValueError, match="not an integer"):
            is_redundant(system, index)

    def test_report_json(self, store):
        system = generate_system(2, 3, None, "min00", store)
        data = redundancy_report(system).to_json()
        assert len(data["rows"]) == 5
        for row in data["rows"]:
            assert row["verdict"] in ("essential", "redundant")
            Fraction(row["optimum"])  # parses as p/q

    def test_numpy_index_gives_a_python_int(self, store):
        # np.int64(3) was kept as the verdict's index, which json refuses
        system = generate_system(3, 3, None, "full0", store)
        verdict = is_redundant(system, np.int64(3))
        assert type(verdict.index) is int and verdict == is_redundant(system, 3)
        assert json.loads(json.dumps(verdict.to_json()))["index"] == 3

    def test_report_flag_is_a_bool(self, store):
        # fix_t_zero=1 was written to the JSON as 1
        system = generate_system(2, 3, None, "min00", store)
        report = redundancy_report(system, fix_t_zero=1)
        assert report.fix_t_zero is True
        assert report.to_json()["t_fixed_to_zero"] is True
        assert report.verdicts == redundancy_report(system, True).verdicts


_DIRECT = {}


def direct_verdicts(system, fix_t_zero):
    """Every row's verdict from its own box LP, no orbit and no memo; the
    optima of equal matrices are solved once."""
    A = system.matrix[:, :-1] if fix_t_zero else system.matrix
    key = (A.shape, A.tobytes())
    if key not in _DIRECT:
        _DIRECT[key] = [solve_lp(A[k], np.delete(A, k, axis=0)).value
                        for k in range(len(A))]
    return [RowVerdict(k, system.constraint(k).kind, value > 0, value)
            for k, value in enumerate(_DIRECT[key])]


def asymmetric_rank4(store):
    """Plain rank 4 less the last Horn row of its first six-row orbit:
    no block permutation but the identity maps its rows onto themselves."""
    system = generate_system(4, 3, None, "full0", store)
    orbit_sizes = np.bincount(system.orbits)
    drop = np.flatnonzero(orbit_sizes[system.orbits] == 6)[5]
    j = drop - 2 - system.chamber_count
    levels = []
    for d, rows, point in system.levels:
        keep = np.arange(len(point)) != j
        levels.append((d, rows[keep], point[keep]))
        j -= len(point)
    return InequalitySystem(4, 3, None, "full0", levels)


class TestOrbits:
    # a report solves one LP per orbit: each verdict must be the row's own
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("level", ["full0", "min00"])
    def test_plain_reports_match_per_row_lps(self, store, r, level):
        system = generate_system(r, 3, None, level, store)
        for fix_t_zero in (False, True):
            assert list(redundancy_report(system, fix_t_zero).verdicts) == \
                direct_verdicts(system, fix_t_zero)

    @pytest.mark.parametrize("r, s, sigma, orbits", [
        (6, 3, (3,), 10), (5, 3, (1, 2), 32), (3, 4, None, 8),
        (3, 4, (2, 2), 6)])
    def test_restricted_reports_match_per_row_lps(self, r, s, sigma, orbits):
        system = generate_system(r, s, sigma, "full0")
        assert len(set(system.orbits.tolist())) == orbits
        for fix_t_zero in (False, True):
            assert list(redundancy_report(system, fix_t_zero).verdicts) == \
                direct_verdicts(system, fix_t_zero)

    def test_asymmetric_row_set(self, store):
        system = asymmetric_rank4(store)
        assert system.count == 51
        assert system.orbits.tolist() == list(range(51))
        assert list(redundancy_report(system).verdicts) == \
            direct_verdicts(system, False)

    def test_plain_orbit_counts(self, store):
        counts = [len(set(generate_system(r, 3, None, "full0", store)
                          .orbits.tolist())) for r in range(3, 7)]
        assert counts == [8, 17, 42, 119]

    def test_one_lp_per_orbit_and_setting(self, store, monkeypatch):
        # the LPs go through the module's solve_lp, once per orbit and t
        # setting over the system's lifetime, none on a repeat: all 51
        # other rows in all 13 variables (12 on t = 0) where the
        # representative's stabilizer is trivial, fewer rows on the
        # subspace that a larger stabilizer fixes.  Every block
        # permutation fixes the trace row, first: 4 entries and t
        calls, after = [], []

        def counted(objective, rows):
            calls.append((len(objective), len(rows)))
            return solve_lp(objective, rows)

        monkeypatch.setattr(lp, "solve_lp", counted)
        system = generate_system(4, 3, None, "full0", store)
        for fix_t_zero in (False, True, False, 1):
            redundancy_report(system, fix_t_zero)
            after.append(len(calls))
        assert after == [17, 34, 34, 34]
        assert is_redundant(system, 51, fix_t_zero=True) == \
            redundancy_report(system, True).verdicts[51]
        assert len(calls) == 34
        assert calls[0] == (5, 15)
        for full, part in [(13, calls[:17]), (12, calls[17:])]:
            assert all((n == full) == (m == 51) for n, m in part)
            assert sorted(part) == sorted(
                [(full, 51)] * 3 + [(full - 4, 31)] * 10 + [(full - 8, 15)] * 4)

    @pytest.mark.parametrize("r, s, sigma", [
        *((r, 3, None) for r in range(2, 6)),
        *((r, 3, (1, 2)) for r in range(2, 6)),
        *((r, 4, sigma) for sigma in [(2, 2), (1, 1, 2)] for r in range(2, 5))])
    def test_fixed_subspace_optima_are_the_full_optima(self, store, r, s,
                                                       sigma):
        # each orbit representative's LP on its fixed subspace has the
        # optimum of its LP against every other row in every variable
        for level in ("full0", "min00"):
            system = generate_system(
                r, s, sigma, level, store if (s, sigma) == (3, None) else None)
            for fix_t_zero in (False, True):
                A = system.matrix[:, :-1] if fix_t_zero else system.matrix
                for k in sorted(set(system.orbits.tolist())):
                    full = solve_lp(A[k], np.delete(A, k, axis=0)).value
                    got = is_redundant(system, k, fix_t_zero).optimum
                    assert got == full, (level, fix_t_zero, k)


# plain ranks 3-7, min00 ranks 2 and 6, all ranks 3-4, sigma = (1,2) rank
# 6, sigma = (3,) rank 9, and s = 4 plain, (2,2) and (1,1,2) at rank 4
ROW_ID_CASES = [
    *((r, 3, None, "full0") for r in range(3, 8)),
    (2, 3, None, "min00"), (6, 3, None, "min00"),
    (3, 3, None, "all"), (4, 3, None, "all"),
    (6, 3, (1, 2), "full0"), (9, 3, (3,), "full0"),
    *((4, 4, sigma, "full0") for sigma in [None, (2, 2), (1, 1, 2)])]


@pytest.fixture(scope="module")
def row_id_systems():
    plain, equal = HornStore(arity=3), HornStore(arity=3)
    systems = {case: generate_system(
        *case, store=plain if case[1:3] == (3, None) else
        equal if case[1] == 3 else None) for case in ROW_ID_CASES}
    # test_duplicate_row_is_redundant's system: rank 2 with its first Horn
    # row twice
    system = generate_system(2, 3, None, "full0", plain)
    d, rows, point = system.levels[0]
    systems["doubled"] = InequalitySystem(
        2, 3, None, "full0", [*system.levels, (d, rows[:1], point[:1])])
    return systems


class TestRowIds:
    # symmetries, orbits and stabilizers read one id map per block
    # permutation; the byte images of every permuted row are the reference
    @pytest.mark.parametrize("case", [*ROW_ID_CASES, "doubled"], ids=str)
    def test_id_map_matches_byte_images(self, row_id_systems, case):
        system = row_id_systems[case]
        assert system.symmetries == image_symmetries(system)
        assert system.orbits.tolist() == image_orbits(system).tolist()
        rng = np.random.default_rng(37)
        everything = (*itertools.permutations(range(len(system.cycles))),)
        for group in {system.symmetries, everything}:
            for k in range(system.count):
                assert system.stabilizer([k], group) == \
                    image_stabilizer(system, [k], group), (group, k)
            for _ in range(20):
                active = rng.random(system.count) < rng.random()
                assert system.stabilizer(active, group) == \
                    image_stabilizer(system, active, group), group

    def test_doubled_row_has_its_twins_id(self, row_id_systems):
        system = row_id_systems["doubled"]
        first = 2 + system.chamber_count
        assert system._row_ids[0, 1, 2][-1] == first
        assert system.stabilizer([first], system.symmetries) == \
            system.stabilizer([system.count - 1], system.symmetries)

    @pytest.mark.parametrize("case", [*ROW_ID_CASES, "doubled"], ids=str)
    def test_kind_is_the_constraints(self, row_id_systems, case):
        system = row_id_systems[case]
        assert [system.kind(k) for k in range(system.count)] == \
            [system.constraint(k).kind for k in range(system.count)]

    @pytest.mark.parametrize("index, error", [
        ("count", IndexError), (1.5, ValueError)])
    def test_row_checked_by_kind_before_any_lp(self, store, monkeypatch,
                                               index, error):
        system = generate_system(3, 3, None, "full0", store)
        if index == "count":
            index = system.count

        def no_lp(*args):
            raise AssertionError("solved an LP for a row that is not there")

        monkeypatch.setattr(lp, "solve_lp", no_lp)
        for call in (system.kind, lambda k: is_redundant(system, k)):
            with pytest.raises(error):
                call(index)


MINIMIZE_CASES = [
    *((r, 3, None, level) for r in range(1, 5) for level in ("full0", "min00")),
    *((r, 3, None, "all") for r in range(1, 5)),
    *((r, 3, (1, 2), level) for r in range(2, 6) for level in ("full0", "min00")),
    *((r, 3, (3,), level) for r in range(2, 10) for level in ("full0", "min00")),
    *((r, 4, sigma, level) for sigma in [None, (2, 2), (1, 1, 2), (1, 3)]
      for r in range(2, 5) for level in ("full0", "min00"))]


class TestMinimize:
    @pytest.mark.parametrize("r, s, sigma, level", MINIMIZE_CASES)
    def test_matches_full_row_greedy(self, store, r, s, sigma, level):
        # the orbit LPs before the first drop and the narrowed group after
        # it give every verdict of one LP per row in every variable
        system = generate_system(
            r, s, sigma, level, store if (s, sigma) == (3, None) else None)
        for fix_t_zero in (False, True):
            assert minimize_system(system, fix_t_zero) == \
                full_row_minimize(system, fix_t_zero)

    @pytest.mark.parametrize("r, s, sigma, level", MINIMIZE_CASES)
    def test_row_stabilizer_matches_block_comparison(self, store, monkeypatch,
                                                     r, s, sigma, level):
        # every row's stabilizer, under symmetries and under each group
        # that the greedy scan hands its LPs, both t settings
        system = generate_system(
            r, s, sigma, level, store if (s, sigma) == (3, None) else None)
        groups, fixed = {system.symmetries}, lp._fixed_optimum

        def spied(*args):  # (system, k, fix_t_zero, active, group)
            groups.add(args[-1])
            return fixed(*args)

        monkeypatch.setattr(lp, "_fixed_optimum", spied)
        for fix_t_zero in (False, True):
            minimize_system(system, fix_t_zero)
        for group in groups:
            for k in range(system.count):
                assert system.stabilizer([k], group) == \
                    block_stabilizer(system, k, group), (group, k)

    def test_lp_counts(self, store, monkeypatch):
        # plain rank 4 drops nothing: its 17 orbit LPs, not 52 row LPs.
        # s = 4 rank 4 drops row 57, which all 24 block permutations keep
        # as a row set: the 15 orbits that rows 0-57 meet, then one LP for
        # each of the 49 rows after it
        calls = []

        def counted(objective, rows):
            calls.append(len(objective))
            return solve_lp(objective, rows)

        monkeypatch.setattr(lp, "solve_lp", counted)
        result = minimize_system(generate_system(4, 3, None, "full0", store))
        assert result.retained_count == 52 and len(calls) == 17
        system = generate_system(4, 4, None, "full0")
        result = minimize_system(system)
        assert result.dropped == (57,) and len(calls) == 17 + 64
        assert len(system.stabilizer(np.arange(107) != 57, system.symmetries)) == 24

    def test_rank6_plain_drops_the_report_redundant_row(self, store):
        # minimize reuses the report's orbit optima up to its one drop
        system = generate_system(6, 3, None, "full0", store)
        report = redundancy_report(system)
        redundant = tuple(v.index for v in report.verdicts if not v.essential)
        assert redundant == (271,) == minimize_system(system).dropped

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="414 orbit LPs, then one per row (~1.5 min); "
                               "set RUN_OPTIONAL=1")
    def test_rank7_plain_drops_the_report_redundant_rows(self):
        system = generate_system(7, 3, None, "full0", HornStore(arity=3))
        report = redundancy_report(system)
        redundant = tuple(v.index for v in report.verdicts if not v.essential)
        assert len(redundant) == 20
        assert minimize_system(system).dropped == redundant

    def test_rank2_greedy_reaches_five(self, store):
        system = generate_system(2, 3, None, "full0", store)
        assert system.count == 8
        result = minimize_system(system)
        assert result.retained_count == 5
        kinds = [system.constraints()[i].kind for i in result.retained]
        assert kinds.count("chamber") == 0
        assert kinds.count("horn") == 3

    def test_rank3_nothing_drops(self, store):
        system = generate_system(3, 3, None, "full0", store)
        result = minimize_system(system)
        assert result.retained_count == system.count == 20

    def test_sigma_rank5_bound(self, store):
        system = generate_system(5, 3, (3,), "min00", store)
        assert system.count == 10
        result = minimize_system(system)
        assert result.retained_count <= 10

    def test_reduced_system_decides_identically(self, store):
        rng = random.Random(67)
        system = generate_system(2, 3, None, "full0", store)
        result = minimize_system(system)
        retained = set(result.retained)
        for _ in range(10_000):
            spectra = [
                sorted((Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                        for _ in range(2)), reverse=True)
                for _ in range(3)
            ]
            t = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            if rng.random() < 0.6:
                t = Fraction(sum(sum(s) for s in spectra), 2)
            p = SpectrumFamily(spectra, t)
            full_ok = member(p, system).is_member
            numerators, denom = system.excesses(p)
            excess = [Fraction(n, denom) for n in numerators.tolist()]
            reduced_ok = all(excess[i] <= 0 for i in retained)
            assert full_ok == reduced_ok
