import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from _oracles import all_tuples, compose, entry_sum, orbit, quotient, slope

from horncone.subsets import (
    Permutation,
    Subset,
    SubsetTuple,
    all_subsets,
    expected_dim,
    group_into_orbits,
    orbit_representative,
    stable_tuples,
)


def T(*elem_lists, ambient):
    return SubsetTuple.of(*elem_lists, ambient=ambient)


def schubert_partitions(tup):
    return tuple(p.schubert_partition() for p in tup)


class TestSubset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Subset([2, 2], 3)
        with pytest.raises(ValueError):
            Subset([0, 1], 3)
        with pytest.raises(ValueError):
            Subset([1, 4], 3)
        with pytest.raises(ValueError):
            Subset([], 3)

    def test_mask_roundtrip(self):
        for ambient in range(1, 8):
            for size in range(1, ambient + 1):
                for sub in all_subsets(size, ambient):
                    bits = [j for j in range(1, ambient + 1) if sub.mask >> (j - 1) & 1]
                    assert Subset(bits, ambient) == sub

    def test_mask_order_is_canonical(self):
        subs = all_subsets(2, 4)
        assert [s.elements for s in subs] == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)
        ]

    def test_call_and_contains(self):
        s = Subset([2, 5, 6], 7)
        assert (s(1), s(2), s(3)) == (2, 5, 6)
        assert 5 in s and 3 not in s

    def test_ambient_matters_for_equality(self):
        assert Subset([2], 2) != Subset([2], 3)


class TestIntegerInputs:
    """An element, ambient, image or cycle length that is not an integer
    is a ValueError, never truncated; numpy integers are integers."""

    @pytest.mark.parametrize("elements, ambient", [
        ([1.5], 2), ([1, 2], 2.7), ([1.0], 2), ([1], 2.0), ([True], 2),
        ([1], True), (["1"], 2), ([np.float64(1)], 2)])
    def test_subset_rejects(self, elements, ambient):
        with pytest.raises(ValueError, match="not an integer"):
            Subset(elements, ambient)

    @pytest.mark.parametrize("images", [[2.5, 1], [2.0, 1], [True, 2],
                                        ["2", "1"]])
    def test_permutation_rejects(self, images):
        with pytest.raises(ValueError, match="not an integer"):
            Permutation(images)

    @pytest.mark.parametrize("lengths", [(1.5, 1.5), (3.0,), (True, 2)])
    def test_cycle_type_rejects(self, lengths):
        with pytest.raises(ValueError, match="not an integer"):
            Permutation.from_cycle_type(lengths)

    def test_numpy_integers_become_python_ints(self):
        sub = Subset(np.array([1, 3], dtype=np.int16), np.int64(4))
        assert sub == Subset([1, 3], 4)
        assert all(type(x) is int for x in (*sub.elements, sub.ambient))
        perm = Permutation(np.array([2, 3, 1]))
        assert perm == Permutation([2, 3, 1])
        assert all(type(i) is int for i in perm.images)
        assert Permutation.from_cycle_type(np.array([1, 2])).cycle_type() == (1, 2)


class TestGapPartition:
    """The Schubert partition: the gap partition (k - j_k + shift) at the
    shift ambient - size."""

    def test_examples(self):
        assert Subset([1, 5, 6], 6).schubert_partition() == (3, 0, 0)
        assert Subset(range(1, 7), 6).schubert_partition() == (0,) * 6
        assert Subset([2], 2).schubert_partition() == (0,)
        assert Subset([1], 3).schubert_partition() == (2,)

    def test_weakly_decreasing_everywhere(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                for sub in all_subsets(r, n):
                    parts = sub.schubert_partition()
                    assert all(a >= b for a, b in zip(parts, parts[1:]))
                    assert parts[-1] >= 0 and parts[0] <= n - r

    def test_schubert_partition_weight_is_codimension(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                for sub in all_subsets(r, n):
                    lam = sub.schubert_partition()
                    assert sum(lam) == r * (n - r) - sub.dim()


class TestSchubertPartitions:
    def test_full_subsets_give_zero(self):
        t = T([1, 2, 3], [1, 2, 3], [1, 2, 3], ambient=3)
        assert schubert_partitions(t) == ((0, 0, 0),) * 3

    def test_shared_example(self):
        t = T([1, 5, 6], [1, 5, 6], [1, 5, 6], ambient=6)
        assert schubert_partitions(t) == ((3, 0, 0),) * 3

    def test_small_tuple(self):
        t = T([1], [2], [2], ambient=2)
        assert schubert_partitions(t) == ((1,), (0,), (0,))


class TestCompose:
    def test_worked_example(self):
        assert compose(Subset([2, 3, 4], 4), Subset([2], 3)).elements == (3,)

    def test_identity(self):
        I = Subset([2, 4, 7], 9)
        assert compose(I, Subset([1, 2, 3], 3)) == I

    def test_direct(self):
        out = compose(Subset([2, 3, 5], 5), Subset([1, 3], 3))
        assert out.elements == (2, 5) and out.ambient == 5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compose(Subset([2, 3], 4), Subset([1], 3))
        with pytest.raises(ValueError):
            quotient(Subset([2, 3], 4), Subset([1], 3))
        with pytest.raises(ValueError):
            compose(T([2, 3], [2, 3], ambient=4), T([1], [1], [1], ambient=2))

    def test_associative(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(3, 8)
            r = rng.randint(2, n)
            d = rng.randint(1, r)
            m = rng.randint(1, d)
            I = Subset(sorted(rng.sample(range(1, n + 1), r)), n)
            J = Subset(sorted(rng.sample(range(1, r + 1), d)), r)
            K = Subset(sorted(rng.sample(range(1, d + 1), m)), d)
            assert compose(compose(I, J), K) == compose(I, compose(J, K))

    def test_tuple_compose_preserves_stability(self):
        sigma = Permutation.from_cycle_type((3,))
        outer = T([2, 3, 4], [2, 3, 4], [2, 3, 4], ambient=4)
        inner = T([2], [2], [2], ambient=3)
        out = compose(outer, inner)
        assert out == T([3], [3], [3], ambient=4)
        assert out.is_stable(sigma)


class TestQuotient:
    def test_direct(self):
        out = quotient(Subset([2, 3, 5], 5), Subset([1, 3], 3))
        assert out.elements == (2, 4) and out.ambient == 4

    def test_identity_inner(self):
        I = Subset([2, 4, 7], 9)
        assert quotient(I, Subset([1, 2, 3], 3)) == I

    def test_full_outer_collapses(self):
        J = Subset([2, 4], 5)
        out = quotient(Subset(range(1, 6), 5), J)
        assert out.elements == (1, 2)


class TestExpectedDim:
    def test_full_tuples_are_flat(self):
        for n in range(1, 6):
            t = SubsetTuple([Subset(range(1, n + 1), n)] * 3)
            assert expected_dim(t) == 0

    def test_examples(self):
        assert expected_dim(T([1], [2], [2], ambient=2)) == 0
        assert expected_dim(T([1], [1], [1], ambient=2)) == -2

    def test_sigma_invariance_exhaustive(self):
        perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
        for n in range(1, 6):
            for r in range(1, n + 1):
                for t in all_tuples(r, n, 3):
                    e = expected_dim(t)
                    assert all(expected_dim(t.permuted(p)) == e for p in perms)


class TestEntrySumAndSlope:
    def test_full_tuple_gives_total(self):
        lam = [(Fraction(3), Fraction(1)), (2, 0), (5, -1)]
        t = T([1, 2], [1, 2], [1, 2], ambient=2)
        assert entry_sum(t, lam) == 10

    def test_examples(self):
        lam = [(1, -1)] * 3
        assert entry_sum(T([1], [2], [2], ambient=2), lam) == -1
        spec = [(0, 0, 0), (0, 0, 0), (1, 0, -1)]
        assert entry_sum(T([3], [3], [1], ambient=3), spec) == 1

    def test_shape_check(self):
        with pytest.raises(ValueError):
            entry_sum(T([1], [1], ambient=2), [(1, 2)])

    def test_slope(self):
        lam = [(1, -1)] * 3
        assert slope(lam, T([1], [2], [2], ambient=2)) == -1
        zero = [(0, 0)] * 3
        assert slope(zero, T([1, 2], [1, 2], [1, 2], ambient=2)) == 0

    def test_slope_permutation_compatibility(self):
        rng = random.Random(5)
        for _ in range(100):
            theta = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(4)) for _ in range(3)]
            tup = SubsetTuple(
                Subset(sorted(rng.sample(range(1, 5), 2)), 4) for _ in range(3)
            )
            perm = Permutation(rng.sample(range(1, 4), 3))
            assert slope(theta, tup) == slope(perm.act(theta), tup.permuted(perm))


class TestPermutation:
    def test_three_cycle_action(self):
        sigma = Permutation.from_cycle_type((3,))
        assert sigma.act(("a", "b", "c")) == ("c", "a", "b")

    def test_identity(self):
        e = Permutation.from_cycle_type((1, 1, 1, 1))
        assert e.images == (1, 2, 3, 4) and e.cycle_type() == (1, 1, 1, 1)
        assert e.act((1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_group_laws(self):
        rng = random.Random(3)
        for _ in range(100):
            a = Permutation(rng.sample(range(1, 6), 5))
            b = Permutation(rng.sample(range(1, 6), 5))
            x = tuple(rng.randint(0, 9) for _ in range(5))
            ab = Permutation(a(b(l)) for l in range(1, 6))
            assert ab.act(x) == a.act(b.act(x))
            assert a.inverse().act(a.act(x)) == x
            assert [a(a.inverse()(l)) for l in range(1, 6)] == [1, 2, 3, 4, 5]

    def test_cycle_type(self):
        assert Permutation.from_cycle_type((1, 2)).cycle_type() == (1, 2)
        assert Permutation([2, 1, 4, 3]).cycle_type() == (2, 2)

    def test_diagonal_tuple_is_stable(self):
        sigma = Permutation.from_cycle_type((3,))
        t = T([3], [3], [3], ambient=4)
        assert t.is_stable(sigma)
        assert not T([3], [3], [4], ambient=4).is_stable(sigma)
        # a permutation of three positions fixes no pair
        assert not T([3], [3], ambient=4).is_stable(sigma)

    def test_stability_matches_partitions(self):
        # a tuple is fixed by the permutation exactly when its partition
        # tuple is
        sigma = Permutation.from_cycle_type((1, 2))
        for t in all_tuples(2, 4, 3):
            left = t.is_stable(sigma)
            right = sigma.act(schubert_partitions(t)) == schubert_partitions(t)
            assert left == right


class TestIdentities:
    """The two exchange identities relating composition, quotient and
    expected dimension.  Both are sums of independent per-component
    contributions, so the componentwise scan over all shapes up to
    ambient 6 is exhaustive; full tuples are sampled on top to exercise
    the tuple layer."""

    @staticmethod
    def _component_shapes(n_max):
        for n in range(1, n_max + 1):
            for r in range(1, n + 1):
                for d in range(1, r + 1):
                    yield n, r, d

    def test_slope_identity_componentwise(self):
        # dim(I o J) - dim(J) decomposition underlying:
        # edim(II o JJ) - edim(JJ) = d * slope_{-partitions(II)}(JJ) + d(n-r)
        for n, r, d in self._component_shapes(6):
            for I in all_subsets(r, n):
                lam = I.schubert_partition()
                for J in all_subsets(d, r):
                    lhs = compose(I, J).dim() - J.dim()
                    rhs = -sum(lam[j - 1] for j in J.elements) + d * (n - r)
                    assert lhs == rhs

    def test_slope_identity_tuples(self):
        rng = random.Random(17)
        for _ in range(400):
            n = rng.randint(2, 6)
            r = rng.randint(1, n)
            d = rng.randint(1, r)
            outer = SubsetTuple(
                Subset(sorted(rng.sample(range(1, n + 1), r)), n)
                for _ in range(3)
            )
            inner = SubsetTuple(
                Subset(sorted(rng.sample(range(1, r + 1), d)), r)
                for _ in range(3)
            )
            gam = [tuple(-x for x in p) for p in schubert_partitions(outer)]
            lhs = expected_dim(compose(outer, inner)) - expected_dim(inner)
            rhs = d * slope(gam, inner) + d * (n - r)
            assert lhs == rhs

    def test_chain_identity_componentwise(self):
        # dim(I^J o K) - dim(K) == dim(I o J o K) - dim(J o K)
        for n, r, d in self._component_shapes(6):
            for m in range(1, d + 1):
                for I in all_subsets(r, n):
                    for J in all_subsets(d, r):
                        IJ = compose(I, J)
                        IqJ = quotient(I, J)
                        for K in all_subsets(m, d):
                            lhs = compose(IqJ, K).dim() - K.dim()
                            rhs = compose(IJ, K).dim() - compose(J, K).dim()
                            assert lhs == rhs

    def test_chain_identity_tuples_exhaustive_small(self):
        for n in range(1, 5):
            for r in range(1, n + 1):
                for d in range(1, r + 1):
                    for m in range(1, d + 1):
                        for outer in all_tuples(r, n, 3):
                            for mid in all_tuples(d, r, 3):
                                quot = quotient(outer, mid)
                                comp = compose(outer, mid)
                                for inner in all_tuples(m, d, 3):
                                    lhs = expected_dim(compose(quot, inner)) \
                                        - expected_dim(inner)
                                    rhs = expected_dim(compose(comp, inner)) \
                                        - expected_dim(compose(mid, inner))
                                    assert lhs == rhs

    def test_chain_identity_tuples_sampled(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(3, 6)
            r = rng.randint(2, n)
            d = rng.randint(1, r)
            m = rng.randint(1, d)
            pick = lambda size, amb: Subset(sorted(rng.sample(range(1, amb + 1), size)), amb)
            outer = SubsetTuple(pick(r, n) for _ in range(3))
            mid = SubsetTuple(pick(d, r) for _ in range(3))
            inner = SubsetTuple(pick(m, d) for _ in range(3))
            lhs = expected_dim(compose(quotient(outer, mid), inner)) - expected_dim(inner)
            rhs = expected_dim(compose(compose(outer, mid), inner)) \
                - expected_dim(compose(mid, inner))
            assert lhs == rhs


class TestEnumeration:
    def test_tuple_order_is_mask_lex(self):
        tuples = list(all_tuples(2, 4, 2))
        keys = [t.mask_key for t in tuples]
        assert keys == sorted(keys)
        assert len(tuples) == 36

    def test_stable_enumeration_matches_filter(self):
        for kind in [(3,), (1, 2), (1, 1, 1)]:
            sigma = Permutation.from_cycle_type(kind)
            gen = stable_tuples(2, 4, sigma)
            filt = [t for t in all_tuples(2, 4, 3) if t.is_stable(sigma)]
            assert gen == sorted(filt, key=lambda t: t.mask_key)

    def test_orbits_partition_the_level(self):
        tuples = list(all_tuples(1, 3, 3))
        orbits = group_into_orbits(tuples)
        assert sum(len(members) for _, members in orbits) == len(tuples)
        for rep, members in orbits:
            assert rep in members
            assert all(orbit_representative(m) == rep for m in members)

    @pytest.mark.parametrize("size, ambient, s", [(1, 3, 3), (2, 4, 2),
                                                  (1, 3, 4)])
    def test_representative_is_least_of_the_orbit(self, size, ambient, s):
        def elements(tup):
            return tuple(p.elements for p in tup.parts)

        for tup in all_tuples(size, ambient, s):
            want = min(orbit(tup), key=elements)
            assert orbit_representative(tup) == want
