import os
import random
from fractions import Fraction

import pytest

from horncone.cone import SpectrumFamily, generate_system, member
from horncone.lp import (
    is_redundant,
    minimize_system,
    redundancy_report,
    solve_lp,
)


class TestSolveLp:
    def test_bounded(self):
        res = solve_lp([1], [([1], 1)])
        assert res.status == "optimal" and res.value == 1

    def test_unbounded(self):
        assert solve_lp([1], [([-1], 0)]).status == "unbounded"

    def test_corner(self):
        res = solve_lp(
            [1, 1],
            [([1, 0], 1), ([0, 1], 1), ([1, 1], Fraction(3, 2))],
        )
        assert res.value == Fraction(3, 2)
        assert sum(res.point) == Fraction(3, 2)

    def test_infeasible(self):
        res = solve_lp([1], [([1], -1), ([-1], -1)])
        assert res.status == "infeasible"

    def test_equality_rows(self):
        res = solve_lp([1, 0], leq=[([1, 1], 2)], eq=[([0, 1], 1)])
        assert res.value == 1 and res.point == (1, 1)

    def test_exact_fractions(self):
        res = solve_lp(
            [Fraction(1, 3), Fraction(1, 7)],
            [([1, 0], Fraction(1, 2)), ([0, 1], Fraction(2, 5)), ([-1, 0], 0), ([0, -1], 0)],
        )
        assert res.value == Fraction(1, 6) + Fraction(2, 35)

    def test_order_independence(self):
        rng = random.Random(61)
        rows = [
            ([Fraction(rng.randint(-4, 4)) for _ in range(3)], Fraction(rng.randint(0, 5)))
            for _ in range(12)
        ]
        rows += [([1, 0, 0], 1), ([-1, 0, 0], 1), ([0, 1, 0], 1),
                 ([0, -1, 0], 1), ([0, 0, 1], 1), ([0, 0, -1], 1)]
        obj = [1, 2, -1]
        base = solve_lp(obj, rows)
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            res = solve_lp(obj, shuffled)
            assert res.status == base.status and res.value == base.value


class TestRedundancy:
    def test_duplicate_row_is_redundant(self, store):
        # a literal copy of a row is always implied by its twin
        doubled = generate_system(2, 3, None, "full0", store)
        doubled.horn = doubled.horn + (doubled.horn[0],)
        dup_idx = doubled.constraints()[-1].index
        assert not is_redundant(doubled, dup_idx).essential

    def test_rank2_minimal_rows_all_essential(self, store):
        system = generate_system(2, 3, None, "min00", store)
        assert system.count == 5
        report = redundancy_report(system)
        assert report.essential_count == 5

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

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="156 exact LPs (~3 min); set RUN_OPTIONAL=1")
    def test_rank5_reduced_rows_all_essential(self, store):
        system = generate_system(5, 3, None, "min00", store)
        report = redundancy_report(system)
        assert report.essential_count == system.count == 156

    def test_report_json(self, store):
        system = generate_system(2, 3, None, "min00", store)
        data = redundancy_report(system).to_json()
        assert len(data["rows"]) == 5
        for row in data["rows"]:
            assert row["verdict"] in ("essential", "redundant")
            Fraction(row["optimum"])  # parses as p/q


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
            excess = [Fraction(n, denom) for n in numerators]
            reduced_ok = all(excess[i] <= 0 for i in retained)
            assert full_ok == reduced_ok
