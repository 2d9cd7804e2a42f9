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

from _oracles import reference_lp


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
    ])
    def test_malformed_input_is_rejected(self, objective, rows):
        with pytest.raises(ValueError, match="integer entries"):
            solve_lp(objective, rows)

    def test_numpy_integers_are_integers(self):
        res = solve_lp(np.array([1, 1]), [np.array([2, -1], dtype=np.int32)])
        assert res == solve_lp([1, 1], [[2, -1]])
        assert all(type(x.numerator) is int for x in (res.value, *res.point))


class TestAgainstReference:
    # the integer tableau pivots exactly as the general Fraction simplex
    # does, so optimum and vertex agree row for row
    def check_system(self, system, indices=None, fix_t_zero=False):
        vectors = [a[:-1] if fix_t_zero else a for a in system.matrix.tolist()]
        if indices is None:
            indices = range(system.count)
        for k in indices:
            others = vectors[:k] + vectors[k + 1:]
            got = solve_lp(vectors[k], others)
            want = reference_box_lp(vectors[k], others)
            assert (got.value, got.point) == (want.value, want.point), k

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
        got, want = solve_lp([], []), reference_box_lp([], [])
        assert (got.value, got.point) == (want.value, want.point) == (0, ())

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
            obj = [rng.randint(-scale, scale) for _ in range(n)]
            got = solve_lp(obj, rows)
            want = reference_box_lp(obj, rows)
            assert (got.value, got.point) == (want.value, want.point)

    def test_random_homogeneous(self):
        rng = random.Random(73)
        for _ in range(50):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(n)]
                    for _ in range(rng.randint(0, 12))]
            obj = [rng.randint(-4, 4) for _ in range(n)]
            got = solve_lp(obj, rows)
            want = reference_box_lp(obj, rows)
            assert (got.value, got.point) == (want.value, want.point)


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

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="119 exact LPs (~2 s); set RUN_OPTIONAL=1")
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
                        reason="414 exact LPs (~40 s); set RUN_OPTIONAL=1")
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
        # the LPs go through the module's solve_lp, once per orbit and
        # t setting over the system's lifetime
        calls = []

        def counted(objective, rows):
            calls.append(len(rows))
            return solve_lp(objective, rows)

        monkeypatch.setattr(lp, "solve_lp", counted)
        system = generate_system(4, 3, None, "full0", store)
        for fix_t_zero in (False, True, False, 1):
            redundancy_report(system, fix_t_zero)
        assert calls == [51] * 34
        assert is_redundant(system, 51, fix_t_zero=True) == \
            redundancy_report(system, True).verdicts[51]
        assert len(calls) == 34


class TestMinimize:
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
