import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from _oracles import entry_sum, invariant_dim, lr_member
from horncone.cone import (
    InequalitySystem,
    SpectrumFamily,
    generate_system,
    member,
    shift_rescale,
)
from horncone.horn import HornStore, NotSigmaStable
from horncone.lp import solve_lp
from horncone.subsets import Permutation, expected_dim, stable_tuples


# systems whose CSV is checked: s = d = 1, entries above r, a cycle type,
# and (rank 8) levels that span several pieces
CSV_CASES = [
    (1, 3, None, "full0"), (4, 1, None, "full0"), (3, 2, None, "all"),
    (2, 3, None, "min00"), (2, 4, (4,), "all"), (5, 3, (1, 2), "min00"),
    (4, 4, (2, 2), "all"), (8, 3, None, "full0")]


def fam(spectra, t=0):
    return SpectrumFamily(spectra, t)


def random_family(rng, r, s=3, denom=6, span=12):
    spectra = []
    for _ in range(s):
        vals = sorted(
            (Fraction(rng.randint(-span, span), rng.randint(1, denom))
             for _ in range(r)),
            reverse=True,
        )
        spectra.append(vals)
    t = Fraction(rng.randint(-span, span), rng.randint(1, denom))
    return SpectrumFamily(spectra, t)


def random_trace_matched(rng, r, s=3):
    """Random decreasing spectra with t forced onto the trace hyperplane."""
    spectra = []
    for _ in range(s):
        vals = sorted(
            (Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(r)),
            reverse=True,
        )
        spectra.append(vals)
    total = sum(sum(spec) for spec in spectra)
    return SpectrumFamily(spectra, Fraction(total, r))


class TestSpectrumFamily:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            SpectrumFamily([[0.5, 0.0]], 0)

    def test_bools_rejected(self):
        # Fraction takes a Python bool as 0 or 1
        point = fam([[1, 0]] * 3)
        for bool_ in (True, np.True_):
            with pytest.raises(TypeError):
                SpectrumFamily([[bool_, 0]], 1)
            with pytest.raises(TypeError):
                SpectrumFamily([[1, 0]], bool_)
            with pytest.raises(TypeError):
                shift_rescale(point, [0, 0, 0], bool_)
            with pytest.raises(TypeError):
                shift_rescale(point, [bool_, 0, 0], 1)

    def test_zero_denominator_and_exponent_rejected(self):
        # "1/0" raised Fraction's ZeroDivisionError; "1e999999999" had
        # Fraction compute 10**999999999 before it returned
        for bad in ("1/0", "-3/00", "1e999999999", "2E-3"):
            with pytest.raises(ValueError, match="denominator|exponent"):
                SpectrumFamily([["1", "0"]], bad)
            with pytest.raises(ValueError, match="denominator|exponent"):
                SpectrumFamily([[bad, "0"]], 1)
        point = SpectrumFamily([["0.5", " -3/4 "]], "1.25")
        assert point.spectra == ((Fraction(1, 2), Fraction(-3, 4)),)
        assert point.t == Fraction(5, 4)

    def test_decimal_read_as_its_string(self):
        # Decimal("1e99999999") went straight to Fraction, which expanded
        # its power of ten and did not return within 5 s
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            SpectrumFamily([[Decimal("1e99999999"), 0]], 0)
        assert time.perf_counter() - start < 1
        point = SpectrumFamily([[Decimal("2.5"), Decimal("-1")]], Decimal("0.75"))
        assert point.spectra == ((Fraction(5, 2), -1),)
        assert point.t == Fraction(3, 4)
        assert all(type(x.numerator) is int for x in point.spectra[0])

    def test_chamber_violations_reported_not_raised(self, store):
        # a full0 system reports the chamber rows an unsorted family breaks
        f = fam([[0, 1], [1, 0], [2, -3]])
        system = generate_system(2, 3, None, "full0", store)
        numerators, _ = system.excesses(f)
        broken = [system.constraint(k) for k in np.flatnonzero(numerators > 0)]
        assert [c.meta for c in broken if c.kind == "chamber"] == [(0, 1)]

    def test_json_roundtrip(self):
        f = fam([[Fraction(1, 2), Fraction(-1, 3)], [1, 0], [0, 0]], Fraction(7, 6))
        data = json.loads(json.dumps(f.to_json()))
        assert SpectrumFamily.from_json(data) == f
        with pytest.raises(TypeError):
            SpectrumFamily.from_json({"spectra": [[0.1, 0]], "t": 0})
        assert data["spectra"][0] == ["1/2", "-1/3"]
        assert data["t"] == "7/6"

    def test_numpy_integers_become_python_ints(self):
        # a numpy numerator inside a Fraction wraps around past int64 and
        # has no bit_length, which the decision's integer scaling calls
        system = generate_system(2)
        cases = [
            (np.array([[1, 0]] * 3), 0, [[1, 0]] * 3, 0),
            ([[np.int64(1), np.int64(-1)]] * 3, np.int64(0), [[1, -1]] * 3, 0),
            ([[np.int32(2), np.int32(-1)]] * 3, np.int32(3), [[2, -1]] * 3, 3),
            ([[Fraction(np.int64(3), np.int64(2)), np.int64(0)]] * 3,
             Fraction(np.int64(9), np.int64(2)),
             [[Fraction(3, 2), 0]] * 3, Fraction(9, 2)),
        ]
        for spectra, t, plain_spectra, plain_t in cases:
            f, plain = fam(spectra, t), fam(plain_spectra, plain_t)
            parts = [x for spec in f.spectra for x in spec] + [f.t]
            assert all(type(x.numerator) is int and type(x.denominator) is int
                       for x in parts)
            assert f == plain
            assert system.decide(f) == system.decide(plain)
        big = fam([[np.int64(2**62), np.int64(0)]] * 3, np.int64(2**62))
        assert sum(map(sum, big.spectra)) == 3 * 2**62
        scaled = shift_rescale(big, [np.int64(0)] * 3, np.int64(4))
        assert scaled.spectra[0] == (2**64, 0) and scaled.t == 2**64

    def test_stability(self, store):
        # a system of the 3-cycle reads the families it fixes, no other
        system = generate_system(2, 3, (3,), "full0", store)
        assert len(system.excesses(fam([[1, 0]] * 3))[0]) == system.count
        with pytest.raises(NotSigmaStable):
            system.excesses(fam([[1, 0], [1, 0], [2, 0]]))


# damage to a system's JSON that from_json must reject
def _swap_first_levels(data):
    one = [h for h in data["horn"] if h["d"] == 1]
    data["horn"] = [h for h in data["horn"] if h["d"] != 1] + one


def _split_first_level(data):
    one = [h for h in data["horn"] if h["d"] == 1]
    rest = [h for h in data["horn"] if h["d"] != 1]
    data["horn"] = one[1:] + rest + one[:1]


def _row_at_rank(data):
    data["horn"].append({"d": 3, "tuple": [[1, 2, 3]] * 3,
                         "sigma_stable": False, "is00": False})
    data["counts"]["total"] += 1
    data["counts"]["horn"] += 1


def _wrong_total(data):
    data["counts"]["total"] = 999


def _unknown_level(data):
    data["level"] = "foo"


def _unfixed_rows(data):
    # the counts of a (3,)-system: one chamber run instead of three
    data["sigma"] = [3]
    data["counts"]["chamber"] -= 4
    data["counts"]["total"] -= 4


def _first_row(**fields):
    # a plain system: every sigma_stable is False
    return lambda data: data["horn"][0].update(fields)


def read_levels(r):
    """The levels a rank-r system reads: its levels (d, r), then, for each
    level (d, n) with 2d <= n, its test levels (d', d), d' < d, and for
    each above the middle its dual (n - d, n)."""
    todo, seen = [(d, r) for d in range(1, r)], set()
    while todo:
        d, n = todo.pop()
        if (d, n) not in seen:
            seen.add((d, n))
            todo += [(e, d) for e in range(1, d)] if 2 * d <= n else [(n - d, n)]
    return seen


class TestGenerateSystem:
    @pytest.mark.parametrize("r, sigma, count", [(18, (3,), 53), (8, None, 13)])
    def test_builds_only_the_levels_it_reads(self, r, sigma, count):
        store = HornStore(arity=3)
        generate_system(r, 3, sigma, "full0", store)
        assert set(store.tables) == {(d, n, sigma) for d, n in read_levels(r)}
        assert len(store.tables) == count

    def test_published_counts(self, store):
        assert [generate_system(r, 3, None, "full0", store).count
                for r in range(1, 7)] == [2, 8, 20, 52, 156, 539]
        assert [generate_system(r, 3, (3,), "full0", store).count
                for r in range(1, 7)] == [2, 3, 4, 7, 10, 10]
        assert [generate_system(r, 3, None, "min00", store).count
                for r in range(1, 7)] == [2, 5, 20, 52, 156, 538]
        assert [generate_system(r, 3, (3,), "min00", store).count
                for r in range(1, 7)] == [2, 3, 4, 7, 10, 9]

    def test_rank_one_is_trace_only(self, store):
        system = generate_system(1, 3, None, "full0", store)
        assert system.count == 2 and not system.horn

    def test_canonical_row_order(self, store):
        system = generate_system(3, 3, None, "full0", store)
        kinds = [c.kind for c in system.constraints()]
        assert kinds[:2] == ["trace_le", "trace_ge"]
        assert kinds[2:8] == ["chamber"] * 6
        assert all(k == "horn" for k in kinds[8:])
        ds = [c.meta.d for c in system.constraints() if c.kind == "horn"]
        assert ds == sorted(ds)

    def test_level_all_contains_level_full0(self, store):
        full0 = generate_system(4, 3, None, "full0", store)
        every = generate_system(4, 3, None, "all", store)
        assert set(r.tup for r in full0.horn) <= set(r.tup for r in every.horn)

    def test_bad_level(self, store):
        with pytest.raises(ValueError):
            generate_system(2, 3, None, "everything", store)

    def test_sigma_partition_check(self, store):
        with pytest.raises(ValueError):
            generate_system(2, 3, (2, 2), "full0", store)

    def test_sigma_must_be_integers(self, store):
        # int() would truncate (1.5, 2) to the cycle type (1, 2)
        with pytest.raises(ValueError, match="not an integer"):
            generate_system(3, 3, (1.5, 2), "full0", store)

    @pytest.mark.parametrize("damage", [
        lambda data: data["horn"][0].update(tuple=[[1.5], [3.5], [3.5]]),
        lambda data: data.update(sigma=[1.5, 2]),
        lambda data: [h.update(d=1.0) for h in data["horn"] if h["d"] == 1],
        lambda data: data.update(r=3.0),
        lambda data: data.update(s=3.0),
        lambda data: data.update(s=True),
    ], ids=["tuple", "sigma", "d", "r", "s", "s_bool"])
    def test_json_numbers_must_be_integers(self, store, damage):
        data = generate_system(3, 3, (1, 2), "full0", store).to_json()
        assert InequalitySystem.from_json(data).counts == data["counts"]
        damage(data)
        with pytest.raises(ValueError, match="not an integer"):
            InequalitySystem.from_json(data)

    def test_rank_must_be_positive(self, store):
        for r in (0, -1):
            with pytest.raises(ValueError, match="rank"):
                generate_system(r, 3, None, "full0", store)

    @pytest.mark.parametrize("sigma", [None, (3,)])
    def test_rank_past_uint16_positions_builds_no_level(self, monkeypatch,
                                                        sigma):
        # level (9, 19) has C(19, 9) = 92,378 subsets, past the 65,536
        # that a uint16 row entry numbers; no level is asked for first

        def refuse(self, size, ambient, sigma):
            raise AssertionError(f"built level ({size}, {ambient}, {sigma})")

        monkeypatch.setattr(HornStore, "_compute_table", refuse)
        store = HornStore(arity=3)
        with pytest.raises(ValueError, match=r"C\(19, 9\) <= 65536"):
            generate_system(19, 3, sigma, "full0", store)
        assert store.tables == {}

    @pytest.mark.parametrize("r, s", [(3.0, 3), (True, 3), (3, 3.0)])
    def test_rank_and_arity_must_be_integers(self, store, r, s):
        # generate_system(True) was a rank-1 system, 3.0 a TypeError
        with pytest.raises(ValueError, match="not an integer"):
            generate_system(r, s, None, "full0", store)
        with pytest.raises(ValueError, match="not an integer"):
            generate_system(r, s)

    def test_store_of_another_arity(self):
        with pytest.raises(ValueError, match="arity 4"):
            generate_system(3, 3, store=HornStore(arity=4))

    def test_json_roundtrip(self, store):
        system = generate_system(4, 3, (3,), "full0", store)
        back = InequalitySystem.from_json(json.loads(json.dumps(system.to_json())))
        assert back.count == system.count
        assert [r.tup for r in back.horn] == [r.tup for r in system.horn]
        assert [r.is_point for r in back.horn] == [r.is_point for r in system.horn]

    def test_levels_hold_the_tables_rows(self, store):
        system = generate_system(4, 3, None, "all", store)
        for d, rows, _ in system.levels:
            assert rows.dtype == np.uint16
            assert np.shares_memory(rows, store.table(d, 4).rows)
        back = InequalitySystem.from_json(system.to_json())
        assert [rows.dtype.kind for _, rows, _ in back.levels] == ["i"] * 3
        # a level with no rows, as a list, is an empty integer array
        empty = InequalitySystem(4, 3, None, "all",
                                 [(1, [], []), *back.levels[1:]])
        assert empty.levels[0][1].shape == (0, 3)
        assert empty.levels[0][1].dtype.kind == "i"

    def test_json_row_of_another_shape(self, store):
        data = generate_system(3, 3, None, "full0", store).to_json()
        assert data["horn"][0]["d"] == 1
        for tup in ([[1, 2], [1, 2], [2, 3]], [[1], [2]]):
            data["horn"][0]["tuple"] = tup
            with pytest.raises(ValueError, match="another shape"):
                InequalitySystem.from_json(data)

    @pytest.mark.parametrize("damage, message", [
        (_swap_first_levels, "out of place"),
        (_split_first_level, "out of place"),
        (_row_at_rank, "out of place"),
        (_wrong_total, "counts"),
        (_unknown_level, "unknown level"),
        (_unfixed_rows, "not fixed"),
        (_first_row(is00="false"), "not the boolean"),
        (_first_row(is00=None), "not the boolean"),
        (_first_row(is00=0), "not the boolean"),
        (_first_row(sigma_stable=True), "not the boolean"),
        (_first_row(sigma_stable="false"), "not the boolean"),
        (_first_row(sigma_stable=0), "not the boolean"),
    ], ids=["levels_out_of_order", "level_split", "d_equals_r", "wrong_total",
            "unknown_level", "rows_not_fixed_by_sigma", "is00_string",
            "is00_null", "is00_int", "sigma_stable_without_sigma",
            "sigma_stable_string", "sigma_stable_int"])
    def test_json_that_would_build_another_system(self, store, damage,
                                                  message):
        data = generate_system(3, 3, None, "full0", store).to_json()
        assert InequalitySystem.from_json(data).counts == data["counts"]
        damage(data)
        with pytest.raises(ValueError, match=message):
            InequalitySystem.from_json(data)

    def test_all_ones_cycle_type_reduces_like_plain(self, store):
        ones = generate_system(2, 3, (1, 1, 1), "min00", store)
        assert (ones.count, ones.chamber_count) == (5, 0)
        assert generate_system(2, 3, None, "min00", store).count == 5

    def test_one_row_at_a_time(self, store):
        system = generate_system(4, 3, (1, 2), "full0", store)
        assert [system.constraint(k) for k in range(system.count)] == \
            system.constraints()
        assert system.horn == tuple(c.meta for c in system.constraints()
                                    if c.kind == "horn")
        for k in (-1, system.count):
            with pytest.raises(IndexError):
                system.constraint(k)
        assert system.constraint(np.int64(2)) == system.constraint(2)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.True_, "2"])
    def test_row_index_must_be_an_integer(self, store, k):
        # 2.5 was a chamber row with position 1.5, True the trace_ge row
        system = generate_system(3, 3, None, "full0", store)
        with pytest.raises(ValueError, match="not an integer"):
            system.constraint(k)

    def test_csv_shape(self, store):
        system = generate_system(2, 3, None, "full0", store)
        lines = system.to_csv().strip().split("\n")
        assert len(lines) == 1 + system.count
        assert lines[0].startswith("kind,d,tuple,L1[1]")

    @pytest.mark.parametrize("r, s, sigma, level", CSV_CASES)
    def test_csv_as_the_csv_module_writes_it(self, r, s, sigma, level):
        # from the matrix and each row's metadata; s = d = 1 leaves the
        # tuple text unquoted, (4,) at r = 2 has entries 4 > r in its trace
        # and Horn rows, and rank 8 has levels of 2,120 and 3,516 rows,
        # which span several chunks
        system = generate_system(r, s, sigma, level)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "d", "tuple", *(
            f"L{min(c)}[{j}]" for c in system.cycles for j in range(1, r + 1)), "t"])
        for con, row in zip(system.constraints(), system.matrix.tolist()):
            head = ([con.kind, "", ""] if con.kind != "horn" else
                    ["horn", con.meta.d, json.dumps(con.meta.tup.to_json())])
            writer.writerow(head + row)
        assert system.to_csv() == buf.getvalue()

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="rank-10 CSV of 191,382 rows; set RUN_OPTIONAL=1")
    def test_rank10_plain_csv(self):
        system = generate_system(10, 3, None, "full0", HornStore(arity=3))
        tracemalloc.start()
        try:
            text = system.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = text.encode()
        assert len(data) == 24_185_028
        assert hashlib.sha256(data).hexdigest() == \
            "bb961c92cc79dba789dd3797dfe88688a2a1a9d1920736b8c692c71ca6e4c4f4"
        # the text grows in place, a chunk at a time, and no matrix is built
        assert peak < len(text) + 4 * 2**20, peak


def definition_excess(system, con, point):
    """Excess of one row at a point, from the definitions over all s
    spectra: the trace sum, the chamber step of the cycle's first
    spectrum, the Horn entry sum."""
    r, t = system.r, point.t
    total = sum(map(sum, point.spectra))
    if con.kind == "trace_le":
        return total - r * t
    if con.kind == "trace_ge":
        return r * t - total
    if con.kind == "chamber":
        c, i = con.meta
        spec = point.spectra[min(system.cycles[c]) - 1]
        return spec[i] - spec[i - 1]
    return entry_sum(con.meta.tup, point.spectra) - con.meta.d * t


def reference_decide(system, point):
    for con in system.constraints():
        excess = definition_excess(system, con, point)
        if excess > 0:
            return con, excess
    return None


def stable_family(system, cycle_spectra, t):
    """The family that repeats each cycle's spectrum along the cycle."""
    spectra = [None] * system.s
    for cyc, spec in zip(system.cycles, cycle_spectra):
        for l in cyc:
            spectra[l - 1] = spec
    return SpectrumFamily(spectra, t)


def coprime_fractions(rng, count, low=10**18):
    """Fractions in [-9, 9] in lowest terms whose denominators exceed
    ``low`` and are pairwise coprime."""
    out, dens = [], []
    while len(out) < count:
        d = rng.randrange(low, 10 * low)
        if any(math.gcd(d, e) != 1 for e in dens):
            continue
        n = rng.randrange(-9 * d, 9 * d)
        if math.gcd(n, d) == 1:
            dens.append(d)
            out.append(Fraction(n, d))
    return out


@pytest.fixture(scope="module")
def three_systems(store):
    """Plain rank 4, three equal spectra at rank 6, and the cycle type
    (1,2) at rank 4, where the trace rows weight the 2-cycle by 2."""
    return [
        generate_system(4, 3, None, "full0", store),
        generate_system(6, 3, (3,), "full0", store),
        generate_system(4, 3, (1, 2), "full0", type(store)(arity=3)),
    ]


class TestCoefficientMatrix:
    def test_rows_match_the_definition(self, three_systems):
        # column k of the matrix is the row's excess at the stable family
        # with a single 1 in that variable (every spectrum of the cycle
        # shares it), or with t = 1
        for system in three_systems:
            r, p = system.r, len(system.cycles)
            assert system.matrix.shape == (system.count, p * r + 1)
            assert system.matrix.dtype == np.int64
            units = []
            for col in range(p * r + 1):
                flat = [0] * (p * r)
                if col < p * r:
                    flat[col] = 1
                cycle_spectra = [flat[c * r:(c + 1) * r] for c in range(p)]
                units.append(stable_family(system, cycle_spectra,
                                           int(col == p * r)))
            for con, row in zip(system.constraints(), system.matrix):
                assert row.tolist() == [
                    definition_excess(system, con, u) for u in units
                ], con

    def test_decide_clears_large_coprime_denominators(self, three_systems):
        rng = random.Random(2024)
        for system in three_systems:
            r, p = system.r, len(system.cycles)
            kinds = set()
            for _ in range(60):
                values = coprime_fractions(rng, p * r)
                cycle_spectra = [
                    sorted(values[c * r:(c + 1) * r], reverse=True)
                    for c in range(p)
                ]
                if rng.random() < 0.15:
                    cycle_spectra[0].reverse()
                point = stable_family(system, cycle_spectra, 0)
                t = sum(map(sum, point.spectra)) / r
                if rng.random() < 0.15:
                    t += coprime_fractions(rng, 1)[0] / 1000
                point = stable_family(system, cycle_spectra, t)
                verdict = system.decide(point)
                expected = reference_decide(system, point)
                if expected is None:
                    assert verdict.is_member and verdict.violation is None
                    kinds.add("member")
                    continue
                assert not verdict.is_member
                con, amount = verdict.violation
                assert con == expected[0]
                assert type(amount) is Fraction and amount == expected[1]
                assert type(amount.numerator) is int
                assert amount.denominator > 10**18
                kinds.add(con.kind)
            assert kinds == {"member", "trace_le", "trace_ge", "chamber",
                             "horn"}, system.sigma
            # integer points on either side of 2**b, b = 62 -
            # bit_length((s + 1) * r), past which an entry takes two int64
            # digits; on either side of 2**63 / ((s + 1) * r), past which
            # a trace row's excess at every entry m and t = -m leaves
            # int64; and near 2**100 and 2**200.  The spread point is a
            # member at t = 0, and at t = -1/3 it violates a trace row by
            # r/3 alone
            b = 62 - ((system.s + 1) * r).bit_length()
            edge = (2 ** 63 - 1) // ((system.s + 1) * r)
            for m in ((1 << b) - 1, 1 << b, edge, edge + 1, 2 ** 100 + 7,
                      2 ** 200 - 1):
                spread = [m] + [0] * (r - 2) + [-m]
                for cycle_spectra, t in [([[m] * r] * p, -m), ([spread] * p, 0),
                                         ([spread] * p, Fraction(-1, 3))]:
                    point = stable_family(system, cycle_spectra, t)
                    verdict = system.decide(point)
                    expected = reference_decide(system, point)
                    assert verdict.violation == expected, (system.sigma, m)
                    if expected is not None:
                        assert type(verdict.violation.amount.numerator) is int


class TestMember:
    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="rank-10 system of 191,382 rows; set RUN_OPTIONAL=1")
    def test_rank10_plain_decisions(self):
        # each verdict is checked at its reported row alone, against the
        # definitions: no Fraction scan over the whole system
        system = generate_system(10, 3, None, "full0", HornStore(arity=3))
        assert system.count == 191_382
        rng = random.Random(10)
        lam = sorted((Fraction(v, 7) for v in rng.sample(range(-400, 400), 10)),
                     reverse=True)
        perm = rng.sample(range(10), 10)
        # diag(lam) + diag(lam permuted) + diag(t - both) = t I
        t = Fraction(5, 3)
        third = sorted((t - a - lam[j] for a, j in zip(lam, perm)), reverse=True)
        assert member(fam([lam, lam, third], t), system).is_member
        swapped = lam[:3] + [lam[4], lam[3]] + lam[5:]
        weyl = [[10] + [0] * 9, [0] * 10, [0] * 10]  # top entry 10 > t = 1
        cases = [([lam, lam, third], t + Fraction(1, 7), "trace_ge", 1),
                 ([swapped, lam, third], t, "chamber", 5),
                 (weyl, 1, "horn", None)]
        for spectra, t, kind, index in cases:
            point = fam(spectra, t)
            verdict = member(point, system)
            assert not verdict.is_member
            con, amount = verdict.violation
            assert con.kind == kind and index in (None, con.index)
            assert amount == definition_excess(system, con, point) > 0
            assert type(amount.numerator) is int

    def test_member_example(self, store):
        system = generate_system(2, 3, None, "full0", store)
        assert member(fam([[1, -1]] * 3), system).is_member

    def test_not_member_with_canonical_witness(self, store):
        system = generate_system(3, 3, None, "full0", store)
        verdict = member(fam([[0, 0, 0], [0, 0, 0], [1, 0, -1]]), system)
        assert not verdict.is_member
        con = verdict.violation.constraint
        assert con.kind == "horn"
        assert con.meta.d == 1
        assert [list(p.elements) for p in con.meta.tup.parts] == [[3], [3], [1]]

    def test_sigma_system_on_printed_rank5_solution(self, store):
        lam = [1, 1, 0, -1, -1]
        system = generate_system(5, 3, (3,), "full0", store)
        assert member(fam([lam] * 3), system).is_member

    def test_sigma_system_rejects_unstable_input(self, store):
        system = generate_system(2, 3, (3,), "full0", store)
        with pytest.raises(NotSigmaStable):
            member(fam([[1, 0], [1, 0], [2, -1]], 1), system)

    @pytest.mark.parametrize("s, sigma, spectra", [
        (3, (1, 2), [[1, 0], [1, 0], [2, -1]]),
        (4, (2, 2), [[1, 0], [2, -1], [1, 0], [2, -1]])])
    def test_stable_under_another_permutation_of_the_cycle_type(
            self, s, sigma, spectra):
        # the family is fixed by (1 2), resp. (1 3)(2 4), but not by the
        # system's own cycles (2 3), resp. (1 2)(3 4)
        system = generate_system(2, s, sigma, "full0")
        assert [len(c) for c in system.cycles] == list(sigma)
        with pytest.raises(NotSigmaStable):
            system.excesses(fam(spectra, 1))
        swapped = [spectra[i - 1] for c in system.cycles for i in [c[0]] * len(c)]
        assert len(system.excesses(fam(swapped, 1))[0]) == system.count

    def test_chamber_violation_detected(self, store):
        system = generate_system(2, 3, None, "full0", store)
        verdict = member(fam([[0, 1], [0, 0], [0, 0]], Fraction(1, 2)), system)
        assert not verdict.is_member
        assert verdict.violation.constraint.kind == "chamber"

    def test_trace_violation_detected(self, store):
        system = generate_system(2, 3, None, "full0", store)
        verdict = member(fam([[0, 0]] * 3, 1), system)
        assert not verdict.is_member
        assert verdict.violation.constraint.kind in ("trace_le", "trace_ge")

    def test_shape_mismatch(self, store):
        system = generate_system(2, 3, None, "full0", store)
        with pytest.raises(ValueError):
            member(fam([[1, 0, 0]] * 3), system)

    def test_min00_equals_full0_on_random_points(self, store):
        rng = random.Random(41)
        for r in range(2, 7):
            full = generate_system(r, 3, None, "full0", store)
            reduced = generate_system(r, 3, None, "min00", store)
            for _ in range(300 if r <= 4 else 80):
                p = random_trace_matched(rng, r)
                assert member(p, full).is_member == member(p, reduced).is_member

    def test_level_all_decides_like_full0(self, store):
        # rows for every intersecting tuple are valid, just redundant
        rng = random.Random(79)
        full = generate_system(3, 3, None, "full0", store)
        every = generate_system(3, 3, None, "all", store)
        for _ in range(300):
            p = random_trace_matched(rng, 3)
            assert member(p, full).is_member == member(p, every).is_member

    def test_min00_rank2_rejects_unsorted_spectra(self, store):
        # the reduced rank-2 system carries no chamber rows, yet an
        # increasing spectrum still fails: trace plus Horn imply ordering
        reduced = generate_system(2, 3, None, "min00", store)
        p = fam([[0, 1], [0, 0], [0, 0]], Fraction(1, 2))
        assert not member(p, reduced).is_member

    def test_sigma_system_agrees_with_full_on_stable_points(self, store):
        rng = random.Random(43)
        for r in (2, 3, 5):
            full = generate_system(r, 3, None, "full0", store)
            sym = generate_system(r, 3, (3,), "full0", store)
            for _ in range(200):
                spec = sorted(
                    (Fraction(rng.randint(-12, 12), rng.randint(1, 5))
                     for _ in range(r)),
                    reverse=True,
                )
                t = Fraction(3 * sum(spec), r) if rng.random() < 0.8 else \
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                p = fam([spec] * 3, t)
                assert member(p, full).is_member == member(p, sym).is_member

    def test_coordinate_permutation_invariance(self, store):
        rng = random.Random(47)
        system = generate_system(3, 3, None, "full0", store)
        perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
        for _ in range(150):
            p = random_trace_matched(rng, 3)
            base = member(p, system).is_member
            for perm in perms:
                moved = SpectrumFamily(perm.act(p.spectra), p.t)
                assert member(moved, system).is_member == base


class TestShiftRescale:
    def test_identity(self):
        p = fam([[1, -1]] * 3)
        assert shift_rescale(p, [0, 0, 0], 1) == p

    def test_example(self):
        p = fam([[1, -1]] * 3)
        q = shift_rescale(p, [1, 0, 0], 1)
        assert q.spectra[0] == (2, 0)
        assert q.spectra[1] == (1, -1)
        assert q.t == 1

    def test_positive_scale_required(self):
        with pytest.raises(ValueError):
            shift_rescale(fam([[1, -1]] * 3), [0, 0, 0], 0)

    def test_membership_invariance(self, store):
        rng = random.Random(53)
        system = generate_system(3, 3, None, "full0", store)
        for _ in range(300):
            p = random_trace_matched(rng, 3)
            taus = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            q = shift_rescale(p, taus, c)
            assert member(p, system).is_member == member(q, system).is_member


class TestLrMembership:
    # (lams, 0) is a cone point exactly when the tensor product of the
    # representations of the integral highest weights lams has invariants
    @staticmethod
    def lr_member(lams, store):
        system = generate_system(len(lams[0]), len(lams), store=store)
        return member(SpectrumFamily(lams, 0), system).is_member

    def test_zero_weights(self, store):
        assert self.lr_member([[0, 0, 0]] * 3, store)

    def test_adjoint_triple(self, store):
        assert self.lr_member([[1, 0, -1]] * 3, store)

    def test_nonzero_trace_fails(self, store):
        assert not self.lr_member([[1, 0, 0]] * 3, store)

    def test_against_invariant_dimension_oracle(self, store):
        rng = random.Random(59)
        checked = 0
        for _ in range(120):
            r = rng.randint(1, 3)
            lams = []
            for _ in range(2):
                lams.append(sorted((rng.randint(-2, 2) for _ in range(r)),
                                   reverse=True))
            # close the trace on the last weight when possible
            base = sorted((rng.randint(-2, 2) for _ in range(r)), reverse=True)
            deficit = sum(sum(l) for l in lams) + sum(base)
            if deficit % r:
                continue
            last = [x - deficit // r for x in base]
            lams.append(last)
            want = invariant_dim([tuple(l) for l in lams]) > 0
            assert self.lr_member(lams, store) == want
            checked += 1
        assert checked > 50


def boundary_points(rng, system, count, top):
    """Pairs of points on either side of the boundary of the system's
    cone, fixed by its cycle type.  A walk starts at partitions (entries
    <= top), one per cycle but the first, and nu, the sorted sum of the
    other spectra each permuted at random, a member (diagonal matrices
    commute); the first cycle's spectrum is -reversed(nu), with t = 0.
    Each step moves one unit between two parts of one cycle's partition,
    kept a partition, until ``lr_member`` says the walk has left the cone:
    its last two places are a pair.  Each point is then shifted and
    rescaled at random, cycles keeping their equal spectra."""
    r, points = system.r, []

    def family(walk):
        return stable_family(system, [[-v for v in reversed(walk[0])],
                                      *walk[1:]], 0)

    while len(points) < count:
        parts = [sorted((rng.randint(0, top) for _ in range(r)), reverse=True)
                 for _ in system.cycles[1:]]
        others = [p for cyc, p in zip(system.cycles[1:], parts) for _ in cyc]
        walk = [sorted(map(sum, zip(*(rng.sample(p, r) for p in others))),
                       reverse=True), *parts]
        for _ in range(200):
            c, (i, j) = rng.randrange(len(walk)), rng.sample(range(r), 2)
            moved = [list(x) for x in walk]
            moved[c][i] += 1
            moved[c][j] -= 1
            if moved[c] != sorted(moved[c], reverse=True) or moved[c][-1] < 0:
                continue
            if not lr_member(family(moved)):
                break
            walk = moved
        else:
            continue
        for point in (family(walk), family(moved)):
            taus = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for _ in system.cycles]
            points.append(shift_rescale(point, [taus[c] for c, cyc in enumerate(
                system.cycles) for _ in cyc], Fraction(rng.randint(1, 7), rng.randint(1, 7))))
    return points


def lr_disagreements(system, points, want):
    return [p for p, w in zip(points, want) if member(p, system).is_member != w]


@pytest.fixture(scope="module")
def lr_cases():
    """Systems and boundary points with their LR verdicts: plain ranks
    4-8, the cycle type (1,2) at ranks 3-6, four spectra at ranks 2-4."""
    rng, cases = random.Random(7), []
    plain, four = HornStore(arity=3), HornStore(arity=4)
    for r, store, sigma, count, top in (
            [(r, plain, None, 120, 6 if r < 7 else 5) for r in range(4, 9)]
            + [(r, plain, (1, 2), 70, 6) for r in range(3, 7)]
            + [(r, four, None, 60, 3) for r in range(2, 5)]):
        system = generate_system(r, store.arity, sigma, "full0", store)
        points = boundary_points(rng, system, count, top)
        cases.append((system, points, [lr_member(p) for p in points]))
    return cases


class TestAgainstLrPositivity:
    # by Knutson and Tao's saturation a rational point is a cone member
    # exactly when, scaled to partitions, its LR coefficient is positive;
    # that count reads neither the levels nor the Horn rows

    def test_decide_agrees_on_boundary_points(self, lr_cases):
        assert sum(len(points) for _, points, _ in lr_cases) >= 1000
        for system, points, want in lr_cases:
            assert lr_disagreements(system, points, want) == []
            assert sum(want) * 2 == len(want)

    def test_a_system_without_a_point_row_fails(self, lr_cases):
        # plain rank 4 without its first point row
        system, points, want = lr_cases[0]
        (d, rows, point), *rest = system.levels
        j = int(np.flatnonzero(point)[0])
        levels = [(d, np.delete(rows, j, axis=0), np.delete(point, j)), *rest]
        dropped = InequalitySystem(system.r, 3, None, "full0", levels)
        assert lr_disagreements(dropped, points, want)

    def test_a_system_with_a_flipped_row_fails(self, lr_cases):
        # plain rank 4 with its first point row negated
        system, points, want = lr_cases[0]
        first = 2 + system.chamber_count + np.flatnonzero(system.levels[0][2])[0]
        flipped = InequalitySystem(system.r, 3, None, "full0", system.levels)
        matrix = system.matrix.copy()
        matrix[first] *= -1
        flipped.matrix = matrix
        assert lr_disagreements(flipped, points, want)

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="rank-10 system of 191,382 rows; set RUN_OPTIONAL=1")
    def test_rank10_plain(self):
        system = generate_system(10, 3, None, "full0", HornStore(arity=3))
        points = boundary_points(random.Random(10), system, 200, 8)
        want = [lr_member(p) for p in points]
        assert lr_disagreements(system, points, want) == []
        assert sum(want) * 2 == len(want)


def without_row(system, k):
    """The system with its row k, a Horn row, left out."""
    levels, j = [], k - 2 - system.chamber_count
    for d, rows, point in system.levels:
        if 0 <= j < len(rows):
            rows, point = np.delete(rows, j, axis=0), np.delete(point, j)
        levels.append((d, rows, point))
        j -= len(rows)
    return InequalitySystem(system.r, system.s, system.sigma, system.level,
                            levels)


def facet_point_failures(system, rows=None):
    """Check each Horn row k (every one unless ``rows`` names some) by the
    exact optimum of row k over the box and the system without it.  A
    full0 row is essential, the optimum positive, exactly when its point
    flag is set, and then the optimal vertex x* breaks row k alone:
    ``decide`` names row k with an excess equal to the optimum, the
    system without row k accepts x*, and LR positivity rejects it.
    Returns (row, check) for every check that fails, and the number of
    essential rows."""
    first, r = 2 + system.chamber_count, system.r
    point = np.concatenate([p for _, _, p in system.levels])
    failures, essential = [], 0
    for k in range(first, system.count) if rows is None else rows:
        value, x = solve_lp(system.matrix[k], np.delete(system.matrix, k, 0))
        if (value > 0) != point[k - first]:
            failures.append((k, "essential iff point"))
        if value <= 0:
            continue
        essential += 1
        family = stable_family(system, [x[c * r:(c + 1) * r] for c in
                                        range(len(system.cycles))], x[-1])
        verdict = system.decide(family)
        if verdict or verdict.violation.constraint.index != k \
                or verdict.violation.amount != value:
            failures.append((k, "decide names row k"))
        if not without_row(system, k).decide(family):
            failures.append((k, "accepted without row k"))
        if lr_member(family):
            failures.append((k, "LR rejects"))
    return failures, essential


@pytest.fixture(scope="module")
def facet_stores():
    return {3: HornStore(arity=3), 4: HornStore(arity=4)}


class TestFacetPoints:
    # every essential Horn row is pinned by a point that breaks it alone;
    # a boundary walk misses most dropped point rows

    @pytest.mark.parametrize("r, s, sigma, essential, horn", [
        (4, 3, None, 41, 41), (5, 3, None, 142, 142),
        (4, 3, (1, 2), 9, 9), (5, 3, (1, 2), 22, 22),
        (3, 4, None, 20, 20), (4, 4, None, 92, 93),
        (6, 3, (3,), 2, 3), (9, 3, (3,), 8, 14),
    ])
    def test_essential_rows_are_pinned(self, facet_stores, r, s, sigma,
                                       essential, horn):
        system = generate_system(r, s, sigma, "full0", facet_stores[s])
        assert system.counts["horn"] == horn
        assert facet_point_failures(system) == ([], essential)

    def test_a_system_with_a_flipped_point_flag_fails(self, facet_stores):
        system = generate_system(4, 3, None, "full0", facet_stores[3])
        (d, rows, point), *rest = system.levels
        flipped = InequalitySystem(4, 3, None, "full0",
                                   [(d, rows, ~point), *rest])
        k = 2 + system.chamber_count
        assert facet_point_failures(flipped, [k])[0] == \
            [(k, "essential iff point")]

    def test_a_system_with_a_negated_row_fails(self, facet_stores):
        # the negated row's vertex is a cone member: LR accepts it
        system = generate_system(4, 3, None, "full0", facet_stores[3])
        k = 2 + system.chamber_count
        negated = InequalitySystem(4, 3, None, "full0", system.levels)
        matrix = system.matrix.copy()
        matrix[k] *= -1
        negated.matrix = matrix
        assert facet_point_failures(negated, [k])[0] == [(k, "LR rejects")]

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="rank-6 plain facet points, 522 LPs; set "
                               "RUN_OPTIONAL=1")
    def test_rank6_plain(self):
        system = generate_system(6, 3, None, "full0", HornStore(arity=3))
        # 521 point rows and the one redundant row of rank 6
        assert system.counts["horn"] == 522
        assert facet_point_failures(system) == ([], 521)


class TestOtherArities:
    def test_two_summand_cone_is_complementarity(self):
        # A + B = t*I forces B = t*I - A, so a pair of spectra is a
        # member exactly when the second is t minus the reverse of the
        # first
        rng = random.Random(71)
        system = generate_system(3, s=2)
        for _ in range(200):
            lam = sorted((Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(3)), reverse=True)
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            comp = [t - x for x in reversed(lam)]
            assert member(SpectrumFamily([lam, comp], t), system).is_member
            bent = list(comp)
            bent[-1] -= 1
            verdict = member(SpectrumFamily([lam, bent], t), system)
            assert not verdict.is_member

    def test_mixed_cycle_type_system(self, store):
        # families with the last two spectra equal: the (1,2)-restricted
        # system agrees with the full one on such points
        rng = random.Random(73)
        mixed_store = type(store)(arity=3)
        full = generate_system(3, 3, None, "full0", mixed_store)
        part = generate_system(3, 3, (1, 2), "full0", mixed_store)
        assert part.chamber_count == 2 * 2
        for _ in range(200):
            a = sorted((Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(3)), reverse=True)
            b = sorted((Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(3)), reverse=True)
            t = Fraction(sum(a) + 2 * sum(b), 3)
            p = SpectrumFamily([a, b, b], t)
            assert member(p, full).is_member == member(p, part).is_member


class TestInductiveBridge:
    def test_zero_dim_members_match_cone_points(self, store):
        # a tuple sits in the zero-dimensional intersecting level exactly
        # when its partition family, paired with the codimension scalar,
        # is a cone point; the Horn filter tests its candidates this way
        for level_store, sigma, levels in [
            (store, None, [(1, 3), (2, 4), (2, 5), (3, 5)]),
            (HornStore(arity=3), (3,),
             [(2, 5), (3, 6), (4, 7), (5, 8), (6, 9)]),
            (HornStore(arity=3), (1, 2), [(2, 4), (3, 6), (4, 7)]),
            (HornStore(arity=4), None, [(1, 3), (2, 4), (3, 5)]),
        ]:
            s = level_store.arity
            perm = Permutation.from_cycle_type(sigma or (1,) * s)
            for (r, n) in levels:
                system = generate_system(r, s, sigma, "full0", level_store)
                table = level_store.table(r, n, sigma)
                for tup in stable_tuples(r, n, perm):
                    point = SpectrumFamily(
                        [list(p.schubert_partition()) for p in tup], n - r)
                    in_cone = member(point, system).is_member
                    is_zero_dim = tup in table and expected_dim(tup) == 0
                    assert in_cone == is_zero_dim, (sigma, s, tup)
