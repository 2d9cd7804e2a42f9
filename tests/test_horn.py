import hashlib
import itertools
import os
import pathlib
import random
import shutil
import time
import tracemalloc
import zlib
from math import comb

import numpy as np
import pytest

from _oracles import (
    all_tuples,
    compose,
    expanded_table,
    gather_sum_survivors,
    horn_check,
    orbit,
    subset_index,
    survivor_chunks,
    weighted_census,
)
from horncone import horn, lr
from horncone.cone import SpectrumFamily
from horncone.horn import (
    HornStore,
    NotSigmaStable,
    _index,
    count_intersecting,
    cross_check,
    horn_rows,
    normalize_cycle_type,
)
from horncone.lr import classify
from horncone.subsets import (
    Permutation,
    Subset,
    SubsetTuple,
    all_subsets,
    expected_dim,
    stable_tuples,
)


def T(*lists, ambient):
    return SubsetTuple.of(*lists, ambient=ambient)


def orbits(reps, s, sigma=None):
    """The orbit of each kernel representative, one index per cycle,
    under the swaps of equal-length cycles, as a set of index-row tuples
    (one index per part)."""
    lengths = sigma or (1,) * s
    swaps = [p for p in itertools.permutations(range(len(lengths)))
             if all(lengths[i] == lengths[k] for k, i in enumerate(p))]
    return [{tuple(row[i] for k, i in enumerate(p)
                   for _ in range(lengths[k])) for p in swaps}
            for row in reps]


def expanded(reps, s, sigma=None):
    return sorted(set().union(*orbits(reps, s, sigma)))


class TestNormalizeCycleType:
    def test_forms(self):
        assert normalize_cycle_type(None, 3) is None
        assert normalize_cycle_type(3, 3) == (3,)
        assert normalize_cycle_type([2, 1], 3) == (1, 2)
        assert normalize_cycle_type(Permutation([2, 3, 1]), 3) == (3,)

    @pytest.mark.parametrize("sigma", [(0, 3), (1, -1, 3), (), (2,), (1, 3),
                                       4, Permutation([2, 1])])
    def test_rejects_what_is_not_a_partition_of_s(self, sigma):
        with pytest.raises(ValueError, match="partition"):
            normalize_cycle_type(sigma, 3)

    @pytest.mark.parametrize("sigma", [(1.5, 1.5), (1.0, 2.0), 3.0, (True, 2),
                                       True, "3"])
    def test_rejects_non_integers(self, sigma):
        # int() would truncate (1.5, 1.5) to (1, 1), a partition of 2
        with pytest.raises(ValueError, match="not an integer"):
            normalize_cycle_type(sigma, 3)

    def test_numpy_integers(self):
        assert normalize_cycle_type(np.int64(3), 3) == (3,)
        assert normalize_cycle_type(np.array([2, 1]), 3) == (1, 2)
        assert all(type(x) is int
                   for x in normalize_cycle_type(np.array([2, 1]), 3))


class TestBuildDiscipline:
    def test_base_level_needs_nothing(self):
        store = HornStore(arity=3)
        store.build_level(1, 5)
        assert set(store.tables) == {(1, n, None) for n in range(1, 6)}

    def test_ambient_bound(self):
        store = HornStore(arity=3)
        with pytest.raises(ValueError):
            store.build_through(4, 3)

    def test_cycle_type_must_partition_the_arity(self):
        store = HornStore(arity=3)
        for sigma in [(2,), (1, 3), (1, 1, 1, 1)]:
            with pytest.raises(ValueError, match="partition"):
                store.build_level(1, 3, sigma=sigma)
        assert not store.tables


class TestTableOnFirstUse:
    # a fresh store builds a level, and the lower levels its Horn tests
    # (or, above the middle, its Grassmann dual) read, when it is first
    # asked for

    def test_table_on_an_empty_store(self, store):
        fresh = HornStore(arity=3)
        assert fresh.table(3, 6).rows.tolist() == store.table(3, 6).rows.tolist()
        assert fresh.table(3, 6).point == store.table(3, 6).point
        # (2, 3) is read off its dual (1, 3), so (1, 2) is not built
        assert set(fresh.tables) == {(3, 6, None), (1, 3, None), (2, 3, None)}

    @pytest.mark.parametrize("size, ambient",
                             [(0, 3), (-1, 2), (3, 2), (1, 0)])
    def test_key_outside_the_levels(self, size, ambient):
        fresh = HornStore(arity=3)
        with pytest.raises(ValueError, match="1 <= size <= ambient"):
            fresh.table(size, ambient)
        assert not fresh.tables

    @pytest.mark.parametrize("size, ambient", [(2.0, 4), (2, 4.0), (True, 2),
                                               (np.True_, 2), ("2", 4)])
    def test_sizes_must_be_integers(self, size, ambient):
        # floats raised a TypeError from math.comb or range, and True
        # passed as 1
        fresh = HornStore(arity=3)
        for build in (fresh.table, fresh.build_level, fresh.build_through,
                      lambda d, n: cross_check(d, n, fresh),
                      lambda d, n: count_intersecting(d, n, fresh)):
            with pytest.raises(ValueError, match="not an integer"):
                build(size, ambient)
        assert not fresh.tables
        assert fresh.table(np.int64(2), np.int64(4)) is fresh.table(2, 4)
        assert all(type(x) is int for key in fresh.tables for x in key[:2])

    @pytest.mark.parametrize("size, ambient",
                             [(0, 6), (7, 6), (-1, 2), (1, 0)])
    def test_census_key_outside_the_levels(self, size, ambient):
        # (0, 6) and (7, 6) raised an IndexError
        fresh = HornStore(arity=3)
        with pytest.raises(ValueError, match="1 <= size <= ambient"):
            count_intersecting(size, ambient, fresh)
        assert not fresh.tables

    @pytest.mark.parametrize("size, ambient", [(1, 70000), (2, 363)])
    def test_level_too_wide_for_uint16_positions(self, size, ambient):
        # refused before any lower level or candidate is built
        fresh = HornStore(arity=3)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="65536"):
            fresh.table(size, ambient)
        assert time.perf_counter() - start < 0.5 and not fresh.tables

    def test_arity_must_be_positive(self):
        for arity in (0, -2):
            with pytest.raises(ValueError, match="arity"):
                HornStore(arity=arity)

    def test_arity_must_be_an_integer(self):
        # a float or bool arity used to construct and then fail with a
        # TypeError at the first table
        for arity in (3.0, True, "3", 0):
            with pytest.raises(ValueError):
                HornStore(arity=arity)
        store = HornStore(arity=np.int64(3))
        assert type(store.arity) is int
        assert np.array_equal(store.table(1, 2).rows,
                              HornStore(arity=3).table(1, 2).rows)

    def test_horn_check_on_an_empty_store(self, store):
        fresh = HornStore(arity=3)
        for n in range(1, 5):
            for r in range(1, n + 1):
                for tup in all_tuples(r, n, 3):
                    assert horn_check(tup, fresh) == horn_check(tup, store)

    def test_census_on_an_empty_store(self, store):
        assert count_intersecting(4, 8, HornStore(arity=3)) == \
            count_intersecting(4, 8, store)

    def test_cross_check_on_an_empty_store(self):
        built = HornStore(arity=3).build_through(3, 6, sigma=(1, 2))
        want = cross_check(3, 6, built, sigma=(1, 2))
        got = cross_check(3, 6, HornStore(arity=3), sigma=(1, 2))
        assert got.clean and got == want

    @staticmethod
    def counted(monkeypatch):
        from horncone import horn as horn_mod

        calls = []
        compute = horn_mod.HornStore._compute_table

        def wrapper(self, size, ambient, sigma):
            calls.append((size, ambient, sigma))
            return compute(self, size, ambient, sigma)

        monkeypatch.setattr(horn_mod.HornStore, "_compute_table", wrapper)
        return calls

    def test_each_level_is_computed_once(self, monkeypatch):
        calls = self.counted(monkeypatch)
        fresh = HornStore(arity=3)
        for size, ambient in [(4, 7), (2, 7), (4, 7), (3, 4), (5, 7)]:
            fresh.table(size, ambient)
        horn_check(T([1, 2, 3], [1, 2, 3], [1, 2, 3], ambient=3), fresh)
        count_intersecting(4, 8, fresh)
        assert len(calls) == len(set(calls)) == len(fresh.tables)

    def test_build_through_computes_in_level_order(self, monkeypatch):
        calls = self.counted(monkeypatch)
        HornStore(arity=3).build_through(7, 8)
        assert calls == [(size, n, None) for size in range(1, 8)
                         for n in range(size, 9)]

    def test_a_cached_level_reads_no_lower_level(self, monkeypatch,
                                                 tmp_path):
        want = HornStore(arity=3, cache_dir=str(tmp_path)).table(3, 5)
        calls = self.counted(monkeypatch)
        again = HornStore(arity=3, cache_dir=str(tmp_path))
        assert again.table(3, 5).members == want.members
        assert calls == [] and set(again.tables) == {(3, 5, None)}


class TestLevelsAgainstClassification:
    def test_membership_matches_lr(self, store):
        for n in range(1, 6):
            for r in range(1, n + 1):
                table = store.table(r, n)
                for tup in all_tuples(r, n, 3):
                    member, zero_dim, point = table.flags(tup)
                    cls = classify(tup)
                    assert member == cls.is_intersecting
                    assert zero_dim == cls.is_zero_dim
                    assert point == cls.is_point

    def test_known_small_level(self, store):
        table = store.table(1, 2)
        assert set(table.point_members()) == orbit(T([1], [2], [2], ambient=2))

    def test_rank3_point_levels(self, store):
        got1 = set(store.table(1, 3).point_members())
        want1 = orbit(T([1], [3], [3], ambient=3)) | orbit(T([2], [2], [3], ambient=3))
        assert got1 == want1
        got2 = set(store.table(2, 3).point_members())
        want2 = orbit(T([1, 2], [2, 3], [2, 3], ambient=3)) | orbit(
            T([1, 3], [1, 3], [2, 3], ambient=3)
        )
        assert got2 == want2

    def test_members_sorted_by_mask(self, store):
        table = store.table(2, 5)
        keys = [t.mask_key for t in table.members]
        assert keys == sorted(keys)

    def test_composition_closure(self, store):
        # intersecting o intersecting stays intersecting, at every shape
        # with ambient up to 6
        for n in range(2, 7):
            for r in range(1, n + 1):
                outer = store.table(r, n).members
                for d in range(1, r):
                    inner = store.table(d, r).members
                    target = store.table(d, n)
                    for big in outer:
                        for small in inner:
                            assert compose(big, small) in target

    def test_nonnegative_expected_dim(self, store):
        for n in range(1, 7):
            for r in range(1, n + 1):
                for tup in store.table(r, n).members:
                    assert expected_dim(tup) >= 0

    def test_members_satisfy_all_lower_inequalities(self, store):
        # not only the zero-dim test sets: every intersecting tuple of a
        # lower level yields a satisfied inequality
        for n in range(2, 6):
            for r in range(2, n + 1):
                inner = {d: store.table(d, r).members for d in range(1, r)}
                for big in store.table(r, n).members:
                    for d in range(1, r):
                        for small in inner[d]:
                            assert (
                                expected_dim(compose(big, small))
                                >= expected_dim(small)
                            )


class TestHornCheck:
    def test_full_tuple(self, store):
        assert horn_check(T([1, 2, 3], [1, 2, 3], [1, 2, 3], ambient=3), store)

    def test_negative_edim(self, store):
        assert not horn_check(T([1], [1], [1], ambient=2), store)

    def test_agrees_with_classification(self, store):
        for n in range(1, 7):
            for r in range(1, n + 1):
                for tup in all_tuples(r, n, 3):
                    assert horn_check(tup, store) == classify(tup).is_intersecting

    def test_sigma_requires_stable_input(self, store):
        with pytest.raises(NotSigmaStable):
            horn_check(T([1], [2], [2], ambient=2), store, sigma=(3,))
        with pytest.raises(NotSigmaStable):
            horn_check(T([1], [1], ambient=2), store, sigma=(3,))

    def test_point_multiple_example(self, store):
        tup = T([2, 4, 6], [2, 4, 6], [2, 4, 6], ambient=6)
        assert horn_check(tup, store)
        assert horn_check(tup, store, sigma=(3,))


class TestHornRowsAgainstComposition:
    """``horn_rows`` is the closed form of the Horn test ``edim(I o J) >=
    edim(J)``: at x = the Schubert partitions of I's cycles and t = n - r,
    the row of any tuple J of Subsets(d, r, s) reads edim(J) - edim(I o J),
    I o J being the composition of the oracle."""

    @staticmethod
    def check(outer, lengths):
        r, n, s = outer.size, outer.ambient, outer.arity
        heads = np.cumsum((0, *lengths[:-1]))
        x = np.array([*(v for h in heads for v in outer[h].schubert_partition()),
                      n - r])
        for d in range(1, r):
            rows = np.array(list(itertools.product(range(comb(r, d)), repeat=s)))
            want = [expected_dim(J) - expected_dim(compose(outer, J))
                    for J in all_tuples(d, r, s)]
            assert (horn_rows(d, rows, r, lengths) @ x).tolist() == want, (outer, d)

    @pytest.mark.parametrize("s, n_max, sigma", [(3, 5, None), (4, 4, None),
                                                 (3, 6, (3,))])
    def test_exhaustive(self, s, n_max, sigma):
        lengths = sigma or (1,) * s
        perm = Permutation.from_cycle_type(lengths)
        for n in range(2, n_max + 1):
            for r in range(2, n + 1):
                for outer in stable_tuples(r, n, perm):
                    self.check(outer, lengths)

    def test_seeded_at_ambient_6(self):
        # sizes weighted by their tuple counts: uniform over Subsets(r, 6, 3)
        rng = random.Random(22)
        sizes = range(2, 7)
        for r in rng.choices(sizes, [comb(6, r) ** 3 for r in sizes], k=300):
            outer = SubsetTuple(Subset(sorted(rng.sample(range(1, 7), r)), 6)
                                for _ in range(3))
            self.check(outer, (1, 1, 1))


class TestSigmaRefinement:
    def test_stable_tables_are_stable_subsets(self, store):
        sigma = Permutation.from_cycle_type((3,))
        for n in range(1, 7):
            for r in range(1, n + 1):
                full = store.table(r, n)
                restricted = store.table(r, n, (3,))
                want = [t for t in full.members if t.is_stable(sigma)]
                assert list(restricted.members) == want
                want0 = [t for t in full.zero_dim_members() if t.is_stable(sigma)]
                assert restricted.zero_dim_members() == want0
                want00 = [t for t in full.point_members() if t.is_stable(sigma)]
                assert restricted.point_members() == want00

    def test_identity_type_equals_full(self, tmp_path):
        store = HornStore(arity=3, cache_dir=str(tmp_path))
        store.build_through(4, 4)
        store.build_through(4, 4, sigma=(1, 1, 1))
        for n in range(1, 5):
            for r in range(1, n + 1):
                # the all-ones type names the plain level itself
                assert store.table(r, n) is store.table(r, n, (1, 1, 1))
        assert all(k[2] is None for k in store.tables)
        assert not any(tmp_path.rglob("*c1_1_1*"))

    def test_two_cycle_type(self):
        store = HornStore(arity=3)
        store.build_through(2, 4, sigma=(1, 2))
        sigma = Permutation.from_cycle_type((1, 2))
        for tup in store.table(2, 4, (1, 2)).members:
            assert tup.is_stable(sigma)
            assert classify(tup).is_intersecting


class TestAlternativeTestSets:
    def test_point_class_test_sets_build_the_same_levels(self, store):
        # the Horn filter may equally use the point-class members as its
        # test sets; the resulting levels coincide
        for n in range(1, 6):
            for r in range(1, min(n, 4) + 1):
                tests = []
                for d in range(1, r):
                    table = store.table(d, r)
                    point = np.array(table.point, dtype=bool)
                    tests.append((d, table.rows[point]))
                reps = [row
                        for chunk in survivor_chunks(r, n, 3, None, tests)
                        for row in chunk.T.tolist()]
                assert expanded(reps, 3) == \
                    list(map(tuple, store.table(r, n).rows.tolist()))


class TestKernelAgainstHornCheck:
    @pytest.mark.parametrize("s, sigma, ambient", [
        (2, None, 5), (3, None, 4), (4, None, 4),
        (3, (3,), 6), (3, (1, 2), 5), (4, (2, 2), 5), (4, (1, 3), 5),
    ])
    def test_members_are_the_candidates_horn_check_accepts(self, s, sigma,
                                                           ambient):
        store = HornStore(arity=s)
        store.build_through(ambient, ambient, sigma)
        perm = Permutation.from_cycle_type(sigma or (1,) * s)
        for n in range(1, ambient + 1):
            for r in range(1, n + 1):
                want = [t for t in stable_tuples(r, n, perm)
                        if horn_check(t, store, sigma)]
                assert list(store.table(r, n, sigma).members) == want

    def test_four_factor_levels_match_classification(self):
        four = HornStore(arity=4)
        four.build_through(5, 5)
        for n in range(1, 6):
            for r in range(1, n + 1):
                assert cross_check(r, n, four).clean

    @pytest.mark.parametrize("s, sigma, ambient_max", [
        (3, None, 8), (3, (3,), 11), (3, (1, 2), 7),
        (4, None, 6), (4, (2, 2), 6), (4, (1, 3), 6),
    ])
    def test_dual_levels_are_the_kernel_levels(self, s, sigma, ambient_max):
        # every level above the middle is read off its Grassmann dual; the
        # Horn filter and the LR backend build the same rows and flags
        store = HornStore(arity=s)
        dual = 0
        for n in range(3, ambient_max + 1):
            for r in range(n // 2 + 1, n):
                got = store.table(r, n, sigma)
                want = store._kernel_table(r, n, normalize_cycle_type(sigma, s))
                assert got.rows.tolist() == want.rows.tolist(), (r, n)
                assert got.zero_dim == want.zero_dim, (r, n)
                assert got.point == want.point, (r, n)
                dual += any(want.point)
        assert dual > 0

    def test_chunks_hold_about_chunk_rows(self, store, monkeypatch):
        from horncone import horn as horn_mod

        monkeypatch.setattr(horn_mod, "_CHUNK_ROWS", 100)
        tests = store._test_sets(3, None)
        chunks = list(survivor_chunks(3, 6, 3, None, tests))
        assert len(chunks) > 1
        assert max(c.shape[1] for c in chunks) <= 100
        reps = [row for c in chunks for row in c.T.tolist()]
        assert expanded(reps, 3) == \
            list(map(tuple, store.table(3, 6).rows.tolist()))

    @pytest.mark.parametrize("s, sigma", [
        (s, sigma) for s in (2, 3, 4)
        for sigma in (None, (1, 2), (3,), (2, 2), (1, 3), (1, 1, 2))
        if sigma is None or sum(sigma) == s
    ])
    def test_one_representative_per_orbit(self, s, sigma):
        store = HornStore(arity=s)
        lengths = sigma or (1,) * s
        for n in range(1, 6):
            for r in range(1, n + 1):
                chunks = list(survivor_chunks(r, n, s, sigma,
                                              store._test_sets(r, sigma)))
                # one index per cycle, a representative per column
                assert all(c.shape[0] == len(lengths) for c in chunks)
                reps = [row for c in chunks for row in c.T.tolist()]
                # indices do not decrease within a run of equal lengths
                for row in reps:
                    for k in range(1, len(lengths)):
                        if lengths[k] == lengths[k - 1]:
                            assert row[k] >= row[k - 1], row
                # the orbits are disjoint and make up the level
                found = orbits(reps, s, sigma)
                members = set(map(tuple, store.table(r, n, sigma).rows.tolist()))
                assert sum(map(len, found)) == len(members)
                assert set().union(*found) == members


def assert_same_chunks(got, want):
    """The kernel's chunks are the oracle's, column for column, in order."""
    count = 0
    for g, w in itertools.zip_longest(got, want):
        assert g is not None and w is not None, f"chunk {count} is missing"
        assert g.dtype == w.dtype and g.tolist() == w.tolist(), count
        count += 1
    return count


class TestKernelAgainstGatherSum:
    """The bitset kernel yields the chunks of the gather-sum filter, which
    sums each candidate's Horn rows on its own, in both of its modes: one
    representative per orbit, and every tuple."""

    @pytest.mark.parametrize("s, sigma, ambient_max", [
        (3, None, 8), (3, (3,), 11), (3, (1, 2), 7),
        (4, (2, 2), 6), (4, (1, 3), 6), (1, None, 9), (4, (4,), 10),
    ])
    def test_every_level(self, s, sigma, ambient_max):
        store = HornStore(arity=s)
        chunks = 0
        for n in range(1, ambient_max + 1):
            for r in range(1, n + 1):
                tests = store._test_sets(r, sigma)
                for every in (False, True):
                    chunks += assert_same_chunks(
                        survivor_chunks(r, n, s, sigma, tests, every),
                        gather_sum_survivors(r, n, s, sigma, tests, every))
        assert chunks > 2 * ambient_max

    def test_small_chunks(self, store, monkeypatch):
        # many chunks per level, each a few prefixes
        monkeypatch.setattr(horn, "_CHUNK_ROWS", 100)
        tests = store._test_sets(4, None)
        for every in (False, True):
            assert assert_same_chunks(
                survivor_chunks(4, 8, 3, None, tests, every),
                gather_sum_survivors(4, 8, 3, None, tests, every)) > 10

    def test_point_class_test_sets(self, store):
        for n in range(1, 6):
            for r in range(1, min(n, 4) + 1):
                tests = [(d, store.table(d, r).select("point")[0])
                         for d in range(1, r)]
                assert_same_chunks(survivor_chunks(r, n, 3, None, tests),
                                   gather_sum_survivors(r, n, 3, None, tests))

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="(5,11) census against the gather-sum filter "
                               "is optional; set RUN_OPTIONAL=1")
    def test_census_5_11(self):
        store = HornStore(arity=3)
        tests = store._test_sets(5, None)
        for every in (False, True):
            assert_same_chunks(survivor_chunks(5, 11, 3, None, tests, every),
                               gather_sum_survivors(5, 11, 3, None, tests,
                                                    every))
        assert count_intersecting(5, 11, store) == weighted_census(
            gather_sum_survivors(5, 11, 3, None, tests), 5, 11, 3)


class TestTableRows:
    def test_rows_are_read_only_positions(self, store):
        table = store.table(3, 6)
        assert table.rows.dtype == np.uint16
        assert table.rows.shape == (len(table), 3)
        subs = all_subsets(3, 6)
        assert [SubsetTuple(subs[i] for i in row)
                for row in table.rows.tolist()] == list(table.members)
        with pytest.raises(ValueError):
            table.rows[0, 0] = 1

    def test_lookup_outside_the_level(self, store):
        table = store.table(2, 4)
        assert T([1, 2], [1, 2], [1, 2], ambient=4) not in table
        assert table.flags(T([1], [2], [2], ambient=2)) == (False,) * 3
        assert T([1, 2], [3, 4], [3, 4], ambient=5) not in table
        assert "not a tuple" not in table

    def test_level_digest_is_frozen(self):
        # the rows and both flags of every level through these ambients,
        # as one sha256: any change to a level, a flag or the row order
        # changes it
        h = hashlib.sha256()
        stores = {}
        for s, sigma, top in [(3, None, 8), (3, (3,), 11), (3, (1, 2), 7),
                              (4, None, 6), (4, (2, 2), 6), (4, (1, 1, 2), 6),
                              (2, None, 9)]:
            store = stores.setdefault(s, HornStore(arity=s))
            for n in range(1, top + 1):
                for d in range(1, n + 1):
                    table = store.table(d, n, sigma)
                    for a in (table.rows.astype("<u2"),
                              np.array(table.zero_dim), np.array(table.point)):
                        h.update(a.tobytes())
        assert h.hexdigest() == ("de401180d8828ad0abdb0525921ac4fd"
                                 "8c806c7e1c7736614b84294ca985579c")

    def test_kernel_levels_are_the_orbit_expansion(self):
        # the every-tuple build against the orbit expansion of the
        # representatives, rows and flags, over the digest's grid
        stores = {}
        for s, sigma, top in [(3, None, 8), (3, (3,), 11), (3, (1, 2), 7),
                              (4, None, 6), (4, (2, 2), 6), (4, (1, 1, 2), 6),
                              (2, None, 9)]:
            store = stores.setdefault(s, HornStore(arity=s))
            for n in range(1, top + 1):
                for d in range(1, n):
                    got = store._kernel_table(d, n, sigma)
                    want = expanded_table(store, d, n, sigma)
                    assert np.array_equal(got.rows, want.rows), (s, sigma, d, n)
                    assert np.array_equal(got._point, want._point)

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="(5,11) and four-factor (4,9) levels against "
                               "the orbit expansion are optional; set "
                               "RUN_OPTIONAL=1")
    def test_5_11_and_s4_4_9_levels_are_the_orbit_expansion(self):
        for s, d, n in [(3, 5, 11), (4, 4, 9)]:
            store = HornStore(arity=s)
            got = store.table(d, n)
            want = expanded_table(store, d, n, None)
            assert np.array_equal(got.rows, want.rows), (s, d, n)
            assert np.array_equal(got._point, want._point), (s, d, n)

    def test_building_makes_no_classify_calls(self, monkeypatch):
        def refuse(tup):
            raise AssertionError(f"classify({tup!r}) called by a build")

        monkeypatch.setattr(lr, "classify", refuse)
        for s, sigma, ambient in [(2, None, 6), (3, None, 6), (3, (3,), 7),
                                  (3, (1, 2), 5), (4, None, 4)]:
            built = HornStore(arity=s).build_through(ambient, ambient, sigma)
            assert sum(any(t.point) for t in built.tables.values()) > 0

    @pytest.mark.parametrize("s, sigma, size_max, ambient_max",
                             [(3, None, 5, 6), (3, (1, 2), 4, 5),
                              (4, None, 4, 5)])
    def test_one_point_coefficient_per_multiset(self, monkeypatch, s, sigma,
                                                size_max, ambient_max):
        # builds ask the capped flag, once per multiset
        calls = {}
        is_point = lr._is_point

        def counted(partitions, r, n):
            calls[r, n] = calls.get((r, n), 0) + 1
            return is_point(partitions, r, n)

        monkeypatch.setattr(lr, "_is_point", counted)
        built = HornStore(arity=s).build_through(size_max, ambient_max, sigma)
        repeated = 0
        for (r, n, _), table in built.tables.items():
            rows = table.zero_dim_members()
            distinct = {tuple(sorted(p.elements for p in t.parts)) for t in rows}
            # a level above the middle is read off its dual, and Gr(n, n)
            # is a point: no calls
            asked = n >= 2 * r
            assert calls.get((r, n), 0) == (len(distinct) if asked else 0), (r, n)
            repeated += len(rows) - len(distinct)
        # a (1, 2)-stable row (a, b, b) is the only row of its multiset
        assert (repeated > 0) == (sigma is None)

    def test_capped_flag_is_the_full_count(self):
        # the flag builds read, against point_coefficient == 1, on every
        # zero-dim multiset of these levels, c = 2 and c >= 3 among them
        seen = set()
        for s, sigma, size_max, ambient_max in [(3, None, 4, 9),
                                                (3, (3,), 12, 12),
                                                (4, None, 3, 6)]:
            store = HornStore(arity=s)
            for n in range(1, ambient_max + 1):
                for r in range(1, min(n, size_max) + 1):
                    table = store.table(r, n, sigma)
                    rows, point = table.select("zero_dim")
                    partitions = _index(r, n).partitions.tolist()
                    multisets = np.unique(np.sort(rows, axis=1), axis=0)
                    for row in multisets.tolist():
                        parts = [partitions[j] for j in row]
                        c = lr.point_coefficient(parts, r, n)
                        assert lr._is_point(parts, r, n) == (c == 1), parts
                        seen.add(min(c, 3))
        assert {2, 3} <= seen

    @pytest.mark.skipif(not os.environ.get("RUN_OPTIONAL"),
                        reason="sigma = (3,) systems through rank 18 against "
                               "the full count are optional; set RUN_OPTIONAL=1")
    def test_sigma3_rank18_flags_are_the_full_count(self):
        from horncone.cone import generate_system

        store = HornStore(arity=3)
        checked = 0
        for r in range(1, 19):
            system = generate_system(r, 3, (3,), store=store)
            assert system.count > 0
            if r < 13:
                continue
            for d in range(1, r):
                rows, point = store.table(d, r, (3,)).select("zero_dim")
                partitions = _index(d, r).partitions.tolist()
                for row, flag in zip(rows.tolist(), point.tolist()):
                    parts = [partitions[j] for j in row]
                    assert flag == (lr.point_coefficient(parts, d, r) == 1), \
                        (d, r, row)
                    checked += 1
        assert checked > 0


class TestPointLevels:
    """Gr(n, n) is a point: level (n, n) is its one tuple of empty
    partitions, the point class, built with no kernel or LR call."""

    @pytest.mark.parametrize("s, sigma", [
        (1, None), (2, None), (2, (2,)), (3, None), (3, (1, 2)), (3, (3,)),
        (4, None), (4, (1, 1, 2)), (4, (2, 2)), (4, (1, 3)), (4, (4,)),
    ])
    def test_one_point_row(self, s, sigma):
        # against the gather-sum filter over the lower levels and the
        # full point count
        store = HornStore(arity=s)
        for n in range(1, 7):
            tests = store._test_sets(n, sigma)
            rows = [row for chunk in gather_sum_survivors(n, n, s, sigma, tests)
                    for row in chunk.T.tolist()]
            assert expanded(rows, s, sigma) == [(0,) * s]
            assert lr.point_coefficient([()] * s, n, n) == 1
            fresh = HornStore(arity=s)
            table = fresh.table(n, n, sigma)
            assert table.rows.tolist() == [[0] * s], n
            assert table.zero_dim == table.point == (True,)
            # no lower level was read
            assert list(fresh.tables) == [(n, n, sigma)]

    def test_no_kernel_or_lr_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("called for a point level")

        monkeypatch.setattr(horn, "_horn_survivors", refuse)
        monkeypatch.setattr(HornStore, "_test_sets", refuse)
        monkeypatch.setattr(lr, "_is_point", refuse)
        store = HornStore(arity=3)
        for n in range(1, 7):
            assert store.table(n, n, (3,)).point == (True,)


class TestIndex:
    def test_index_against_subsets(self):
        # the arrays a level build reads, against Subset objects, for
        # every level through ambient 12
        for n in range(1, 13):
            for d in range(1, n + 1):
                index = _index(d, n)
                elements, dims, partitions, incidence, dual = subset_index(d, n)
                assert index.elements.tolist() == [list(e) for e in elements]
                assert index.dims.tolist() == dims
                assert index.partitions.tolist() == [list(p) for p in partitions]
                assert index.incidence.tolist() == incidence
                assert index.dims.dtype == index.partitions.dtype == np.int32
                assert index.incidence.dtype == bool
                if d < n:
                    assert index.dual.dtype == np.uint16
                    assert index.dual.tolist() == dual
                    # the Grassmann dual is an involution
                    assert np.array_equal(_index(n - d, n).dual[index.dual],
                                          np.arange(len(dual)))
                assert all(not a.flags.writeable for a in index)

    def test_dual_past_uint16(self):
        # C(19, 9) = 92,378 subsets: uint16 positions wrapped to 65,536
        # distinct values
        assert _index(8, 16).dual.dtype == np.uint16  # 12,870 subsets
        dual = _index(9, 19).dual
        assert dual.dtype == np.uint32
        assert np.array_equal(np.sort(dual), np.arange(92378))
        assert np.array_equal(_index(10, 19).dual[dual], np.arange(92378))


class TestOtherArities:
    def test_two_factor_levels_match_classification(self):
        two = HornStore(arity=2)
        two.build_through(3, 5)
        for n in range(1, 6):
            for r in range(1, n + 1 if n < 4 else 4):
                table = two.table(r, n)
                for tup in all_tuples(r, n, 2):
                    member, zero_dim, point = table.flags(tup)
                    cls = classify(tup)
                    assert member == cls.is_intersecting
                    assert zero_dim == cls.is_zero_dim
                    assert point == cls.is_point

    def test_two_factor_duality(self):
        # a pair is a point-class tuple exactly when the second partition
        # is the rotated complement of the first
        two = HornStore(arity=2)
        two.build_through(2, 4)
        table = two.table(2, 4)
        for tup in table.point_members():
            lam, mu = [p.schubert_partition() for p in tup.parts]
            comp = tuple(sorted((2 - x for x in lam), reverse=True))
            assert tuple(mu) == comp

    def test_four_factor_small_level(self):
        four = HornStore(arity=4)
        four.build_through(2, 3)
        table = four.table(1, 2)
        for tup in all_tuples(1, 2, 4):
            assert (tup in table) == classify(tup).is_intersecting

    def test_count_intersecting_generic_arity(self):
        two = HornStore(arity=2)
        two.build_through(2, 4)
        cnt = count_intersecting(2, 4, two)
        assert cnt.total == len(two.table(2, 4))


class TestCountIntersecting:
    def test_matches_tables_small(self, store):
        # every orbit-weight pattern: a sorted row of s parts stands for
        # s!/prod(m!) tuples
        stores = {3: store}
        for s, r, n in [(3, 1, 4), (3, 2, 4), (3, 2, 5), (3, 3, 5),
                        (1, 2, 4), (2, 3, 7), (4, 2, 5), (4, 3, 6)]:
            level_store = stores.setdefault(s, HornStore(arity=s))
            cnt = count_intersecting(r, n, level_store)
            table = level_store.table(r, n)
            assert cnt.total == len(table)
            diag = [t for t in table.members if all(p == t.parts[0] for p in t.parts)]
            assert cnt.diagonal == len(diag)
            assert cnt.diagonal_zero_dim == sum(
                1 for t in diag if expected_dim(t) == 0
            )

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_against_weighted_rows(self, s):
        # the popcount census against the census of the gather-sum
        # filter's unpacked rows, every plain level through ambient 8
        store = HornStore(arity=s)
        for n in range(1, 9):
            for r in range(1, n + 1):
                tests = store._test_sets(r, None)
                want = weighted_census(
                    gather_sum_survivors(r, n, s, None, tests), r, n, s)
                assert count_intersecting(r, n, store) == want, (s, r, n)

    def test_vector_path_used_at_scale(self, store):
        cnt = count_intersecting(3, 6, store)
        assert cnt.total == len(store.table(3, 6))

    def test_census_runs_in_bounded_memory(self):
        # the 252^3 candidates stream through in chunks; one bool array
        # over all of them alone would take 16 MB
        store = HornStore(arity=3)
        store.build_through(4, 5)
        tracemalloc.start()
        try:
            cnt = count_intersecting(5, 10, store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cnt == (718738, 49, 0)
        assert peak < 16 << 20

    def test_level_builds_in_bounded_memory(self):
        # the 115,222 rows of plain (4, 9) take 0.7 MB as uint16; the
        # build holds no (M, s) int64 array beside them
        store = HornStore(arity=3)
        store.build_through(3, 4)
        tracemalloc.start()
        try:
            table = store.table(4, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 115222
        assert peak < 5 << 20

    def test_plain_5_10_builds_in_bounded_memory(self):
        # the kernel's blocks of plain (5, 10) are unpacked straight into
        # one array of its 718,738 uint16 rows (4.3 MB), no list of chunks
        # beside it; the zero-dim sums over its columns follow
        store = HornStore(arity=3)
        store.build_through(4, 5)
        tracemalloc.start()
        try:
            table = store.table(5, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 718738
        assert peak < 14 << 20


class TestCrossCheck:
    def test_clean_levels(self, store):
        for (r, n) in [(1, 3), (2, 4), (3, 6)]:
            report = cross_check(r, n, store)
            assert report.clean
            assert report.total == len(list(all_tuples(r, n, 3)))

    def test_sigma_variant(self, store):
        report = cross_check(2, 6, store, sigma=(3,))
        assert report.clean


class TestCache:
    def test_roundtrip(self, tmp_path):
        store = HornStore(arity=3, cache_dir=str(tmp_path))
        store.build_through(2, 4)
        table = store.table(2, 4)
        # a fresh store reloads the same tables from disk
        again = HornStore(arity=3, cache_dir=str(tmp_path))
        again.build_through(2, 4)
        assert again.table(2, 4).members == table.members
        assert again.table(2, 4).zero_dim == table.zero_dim
        assert again.table(2, 4).point == table.point

    def test_bad_schema_rebuilds(self, tmp_path, monkeypatch):
        # a file whose digest was taken under another schema is a miss
        store = HornStore(arity=3, cache_dir=str(tmp_path))
        table = store.table(1, 3)
        monkeypatch.setattr(horn, "CACHE_SCHEMA", 999)
        stale = table._digest()
        monkeypatch.undo()
        path = store._cache_path((1, 3, None))
        resave(path, **dict(members(path), checksum=stale))
        assert store._load_cached((1, 3, None)) is None
        fresh = HornStore(arity=3, cache_dir=str(tmp_path))
        assert fresh.table(1, 3).members == table.members
        assert members(path)["checksum"] == table._digest()

    def test_v1_directory_is_ignored(self, tmp_path):
        # files of earlier schemas are never read: the level is rebuilt
        # into the v6 directory and the old files are left as they were
        old = tmp_path / "v1" / "int_d1_r2_s3_full.json"
        old.parent.mkdir()
        old.write_text('{"schema": 1, "size": 1, "ambient": 2, "arity": 3, '
                       '"sigma": null, "members": [[[2], [2], [2]]], '
                       '"zero_dim": [false], "point": [false]}')
        json2 = tmp_path / "v2" / "int_d1_r2_s3_full.json"
        json2.parent.mkdir()
        json2.write_text('{"schema": 2, "rows": [1, 1, 1]}')
        npz3 = tmp_path / "v3" / "int_d1_r2_s3_full.npz"
        npz3.parent.mkdir()
        with open(npz3, "wb") as fh:
            np.savez(fh, rows=np.ones((1, 3), np.uint16), zero_dim=[False],
                     point=[False], sha256="0" * 64)
        v3 = npz3.read_bytes()
        # an empty level under the digest a schema-4 reader would accept:
        # read, it would replace the level's members by none
        rows, point = np.zeros((0, 3), np.uint16), np.zeros(0, bool)
        h = hashlib.sha256(repr((4, (1, 2, 3, None))).encode())
        for a in (rows, point):
            h.update(a.tobytes())
        npz4 = tmp_path / "v4" / "int_d1_r2_s3_full.npz"
        npz4.parent.mkdir()
        with open(npz4, "wb") as fh:
            np.savez(fh, rows=rows, point=point, sha256=h.hexdigest())
        v4 = npz4.read_bytes()
        store = HornStore(arity=3, cache_dir=str(tmp_path))
        store.build_through(1, 2)
        want = HornStore(arity=3).table(1, 2)
        assert len(want) and store.table(1, 2).members == want.members
        path = store._cache_path((1, 2, None))
        assert path == str(tmp_path / "v6" / "int_d1_r2_s3_full.level")
        assert pathlib.Path(path).read_bytes() == (
            checksum((1, 2, 3, None), want.rows, want._point)
            + want.rows.astype("<u2").tobytes() + want._point.tobytes())
        assert old.read_text().startswith('{"schema": 1,')
        assert json2.read_text() == '{"schema": 2, "rows": [1, 1, 1]}'
        assert npz3.read_bytes() == v3 and npz4.read_bytes() == v4
        assert sorted(os.listdir(npz4.parent)) == [npz4.name]

    def test_v5_tree_is_ignored(self, tmp_path):
        # a leftover schema-5 tree: every level an empty file under the
        # sha256 a schema-5 reader would accept, which a read would take
        # for a level without members
        cold = HornStore(arity=3).build_through(3, 4)
        v5 = {}
        for size, ambient, _ in cold.tables:
            h = hashlib.sha256(repr((5, (size, ambient, 3, None))).encode())
            v5[f"int_d{size}_r{ambient}_s3_full.level"] = h.digest()
        (tmp_path / "v5").mkdir()
        for name, data in v5.items():
            (tmp_path / "v5" / name).write_bytes(data)
        store = HornStore(arity=3, cache_dir=str(tmp_path)).build_through(3, 4)
        for key, table in cold.tables.items():
            got = store.table(*key)
            assert np.array_equal(got.rows, table.rows) and got.point == table.point
        assert sorted(os.listdir(tmp_path)) == ["v5", "v6"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "v5").iterdir()} == v5
        assert len(os.listdir(tmp_path / "v6")) == len(cold.tables)

    def test_file_of_another_level_is_a_miss(self, tmp_path):
        store = HornStore(arity=3, cache_dir=str(tmp_path))
        store.build_through(1, 3)
        os.replace(store._cache_path((1, 3, None)),
                   store._cache_path((1, 2, None)))
        assert store._load_cached((1, 2, None)) is None

    def test_save_ignores_a_stale_fixed_tmp_path(self, tmp_path):
        # a leftover at the fixed name "<file>.tmp" must not break a
        # save; nothing temporary is left behind
        store = HornStore(arity=3, cache_dir=str(tmp_path))
        path = store._cache_path((1, 2, None))
        os.makedirs(path + ".tmp")
        store.build_through(1, 2)
        again = HornStore(arity=3, cache_dir=str(tmp_path))
        assert again._load_cached((1, 2, None)).members == store.table(1, 2).members
        leftovers = [n for n in os.listdir(os.path.dirname(path))
                     if n.endswith(".tmp") and n != os.path.basename(path) + ".tmp"]
        assert leftovers == []
        # the published file keeps the permissions the umask gives
        mask = os.umask(0o022)
        os.umask(mask)
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~mask

    def test_sigma_table_roundtrip(self, tmp_path, monkeypatch):
        table = HornStore(arity=3, cache_dir=str(tmp_path)).table(4, 7, (3,))
        # a fresh store reads the level back and builds nothing
        monkeypatch.setattr(HornStore, "_compute_table", None)
        back = HornStore(arity=3, cache_dir=str(tmp_path)).table(4, 7, (3,))
        assert back.key == table.key == (4, 7, 3, (3,))
        assert np.array_equal(back.rows, table.rows)
        assert back.zero_dim == table.zero_dim and back.point == table.point
        assert back.members == table.members and any(back.point)


def members(path, arity=3):
    """The checksum, index rows and point flags of a schema-6 cache file."""
    raw = pathlib.Path(path).read_bytes()
    m = (len(raw) - 4) // (2 * arity + 1)
    return {"checksum": raw[:4],
            "rows": np.frombuffer(raw, "<u2", m * arity, 4).reshape(m, arity),
            "point": np.frombuffer(raw, bool, m, 4 + 2 * m * arity)}


def resave(path, checksum=b"", rows=(), point=()):
    pathlib.Path(path).write_bytes(checksum + np.asarray(rows, "<u2").tobytes()
                                   + np.asarray(point, bool).tobytes())


def checksum(key, rows, point):
    """The 4 bytes a schema-6 file of level ``key`` (size, ambient, arity,
    sigma) begins with: the CRC-32, little-endian, of the schema and key,
    then the rows as little-endian uint16 and the point flags."""
    crc = zlib.crc32(repr((horn.CACHE_SCHEMA, key)).encode())
    for a in (np.asarray(rows, "<u2"), np.asarray(point, bool)):
        crc = zlib.crc32(a.tobytes(), crc)
    return crc.to_bytes(4, "little")


def _truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])


def _drop_member(path):
    # the file ends after the rows: no point flags
    resave(path, **{k: v for k, v in members(path).items() if k != "point"})


def _zero_d_rows(path):
    # rows of another width (two parts), under a checksum taken of them
    data = members(path)
    rows = data["rows"][:, :2]
    resave(path, **dict(data, rows=rows,
                        checksum=checksum((2, 4, 3, None), rows, data["point"])))


def _point_off_zero_dim(path):
    # a point flag on a row of nonzero expected dimension, under a checksum
    # recomputed the way _digest computes it, so only the table's own
    # check can reject the file
    data = members(path)
    key = (2, 4, 3, None)
    assert checksum(key, data["rows"], data["point"]) == data["checksum"]
    zero_dim = HornStore(arity=3).table(2, 4).zero_dim
    point = data["point"].copy()
    point[zero_dim.index(False)] = True
    resave(path, **dict(data, point=point,
                        checksum=checksum(key, data["rows"], point)))


def _plain_npy(path):
    rows = members(path)["rows"]
    with open(path, "wb") as fh:
        np.save(fh, rows)


def _short_by_a_row(path):
    # one row's worth of bytes less: the length fits the arity
    data = pathlib.Path(path).read_bytes()
    pathlib.Path(path).write_bytes(data[:-7])


def _trailing_byte(path):
    with open(path, "ab") as fh:
        fh.write(b"\0")


def _other_level(path):
    # the three-equal-spectra level (2, 4): rows and flags this level
    # holds too, so only the key inside the digest tells the files apart
    store = HornStore(arity=3, cache_dir=os.path.dirname(os.path.dirname(path)))
    other = store.table(2, 4, (3,))
    assert 0 < len(other) < len(HornStore(arity=3).table(2, 4))
    shutil.copyfile(store._cache_path((2, 4, (3,))), path)


def _renamed_level(path):
    # the file of level (1, 4) under this level's name: its rows and flags
    # fit the length check of arity 3
    store = HornStore(arity=3, cache_dir=os.path.dirname(os.path.dirname(path)))
    store.table(1, 4)
    os.replace(store._cache_path((1, 4, None)), path)


def _flip(part):
    """A damage that changes one bit of the checksum, of the last row (a
    row without a point flag) or of the first row's point flag, and leaves
    a file that only the checksum rejects."""
    def damage(path):
        raw = bytearray(pathlib.Path(path).read_bytes())
        m = (len(raw) - 4) // 7
        raw[{"checksum": 0, "row": 4 + 6 * m - 2, "flag": 4 + 6 * m}[part]] ^= 1
        pathlib.Path(path).write_bytes(raw)
        data = members(path)
        # the damaged rows and flags still make a table of the level
        horn.HornTable(2, 4, 3, None, data["rows"], data["point"])
        assert checksum((2, 4, 3, None), data["rows"], data["point"]) \
            != data["checksum"]
    return damage


def _to_the_checksum(path):
    # cut to the checksum alone: the length of a level without rows
    data = pathlib.Path(path).read_bytes()
    pathlib.Path(path).write_bytes(data[:4])


@pytest.mark.parametrize("damage", [
    lambda path: pathlib.Path(path).write_bytes(b"not a zip archive"),
    lambda path: pathlib.Path(path).write_bytes(b""),
    _truncate,
    _drop_member,
    _zero_d_rows,
    _plain_npy,
    _point_off_zero_dim,
    _short_by_a_row,
    _trailing_byte,
    _other_level,
    _flip("checksum"),
    _flip("row"),
    _flip("flag"),
    _to_the_checksum,
    _renamed_level,
], ids=["non_zip", "empty", "truncated", "missing_member", "zero_d_rows",
        "plain_npy", "point_off_zero_dim", "short_by_a_row", "trailing_byte",
        "other_level", "flipped_checksum_byte", "flipped_row_byte",
        "flipped_flag_byte", "truncated_to_checksum", "renamed_level"])
def test_damaged_cache_file_is_a_miss(tmp_path, damage):
    key = (2, 4, None)
    want = HornStore(arity=3, cache_dir=str(tmp_path)).table(*key)
    store = HornStore(arity=3, cache_dir=str(tmp_path))
    path = store._cache_path(key)
    damage(path)
    assert store._load_cached(key) is None
    # the level is rebuilt, and the rebuilt file replaces the damaged one
    got = store.table(*key)
    assert np.array_equal(got.rows, want.rows) and got.point == want.point
    assert HornStore(arity=3, cache_dir=str(tmp_path))._load_cached(key) \
        is not None


class TestImmutability:
    def test_table_is_frozen(self, store):
        table = store.table(1, 2)
        with pytest.raises(AttributeError):
            table.members = ()

    @pytest.mark.parametrize("make, name", [
        (lambda: HornStore(arity=3).table(1, 2), "rows"),
        (lambda: Subset([1, 3], 4), "elements"),
        (lambda: Subset([1, 3], 4), "mask"),
        (lambda: T([1], [2], [2], ambient=2), "parts"),
        (lambda: Permutation([2, 1, 3]), "images"),
        (lambda: SpectrumFamily([[1, 0]] * 3, 1), "t"),
    ], ids=["HornTable", "Subset", "Subset.mask", "SubsetTuple", "Permutation",
            "SpectrumFamily"])
    def test_assignment_and_del_raise(self, make, name):
        value = make()
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before

    def test_value_equality_and_hashing(self):
        # subsets compare as their bit masks do; the mask is not a field
        subs = all_subsets(2, 4) + all_subsets(2, 5) + all_subsets(3, 5)
        for a, b in itertools.product(subs, repeat=2):
            assert (a == b) == ((a.mask, a.ambient) == (b.mask, b.ambient))
        pairs = [
            (Subset([1, 3], 4), Subset((1, 3), 4)),
            (T([1], [2], [2], ambient=2), T([1], [2], [2], ambient=2)),
            (Permutation([2, 1, 3]), Permutation.from_cycles([(1, 2)], 3)),
            (SpectrumFamily([[1, 0]] * 3, 1),
             SpectrumFamily([["2/2", "0"]] * 3, "1")),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and a is not b
        assert Subset([1], 2) != Subset([1], 3)
        assert Subset([1], 2) != T([1], ambient=2)
        # level tables compare by identity
        table, twin = (HornStore(arity=3).table(1, 2) for _ in range(2))
        assert table == table and table != twin and len({table, twin}) == 2
