import itertools
import random
from fractions import Fraction

import pytest
from _oracles import orbit

from horncone.subsets import (
    CompositionError,
    InvalidShift,
    Permutation,
    Subset,
    SubsetTuple,
    all_subsets,
    all_tuples,
    entry_sum,
    expected_dim,
    gap_partition,
    group_into_orbits,
    orbit_representative,
    schubert_partitions,
    slope,
    stable_tuples,
)


def T(*elem_lists, ambient):
    return SubsetTuple.of(*elem_lists, ambient=ambient)


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
                    back = Subset.from_mask(sub.mask, ambient)
                    assert back == sub
                    assert back.elements == sub.elements

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


class TestGapPartition:
    def test_examples(self):
        assert Subset([1, 5, 6], 6).gap_partition(3) == (3, 0, 0)
        assert Subset(range(1, 7), 6).gap_partition(0) == (0,) * 6
        assert Subset([2], 2).gap_partition(1) == (0,)

    def test_invalid_shift(self):
        with pytest.raises(InvalidShift):
            Subset([3], 3).gap_partition(1)

    def test_weakly_decreasing_everywhere(self):
        for sub in all_subsets(3, 7):
            parts = sub.gap_partition(7)
            assert all(a >= b for a, b in zip(parts, parts[1:]))
            assert all(p >= 0 for p in parts)

    def test_function_form(self):
        assert gap_partition(Subset([1, 5, 6], 6), 3) == (3, 0, 0)

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
        assert Subset([2, 3, 4], 4).compose(Subset([2], 3)).elements == (3,)

    def test_identity(self):
        I = Subset([2, 4, 7], 9)
        assert I.compose(Subset([1, 2, 3], 3)) == I

    def test_direct(self):
        out = Subset([2, 3, 5], 5).compose(Subset([1, 3], 3))
        assert out.elements == (2, 5) and out.ambient == 5

    def test_shape_mismatch(self):
        with pytest.raises(CompositionError):
            Subset([2, 3], 4).compose(Subset([1], 3))

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
            assert I.compose(J).compose(K) == I.compose(J.compose(K))

    def test_tuple_compose_preserves_stability(self):
        sigma = Permutation.from_cycle_type((3,))
        outer = T([2, 3, 4], [2, 3, 4], [2, 3, 4], ambient=4)
        inner = T([2], [2], [2], ambient=3)
        out = outer.compose(inner)
        assert out == T([3], [3], [3], ambient=4)
        assert out.is_stable(sigma)


class TestQuotient:
    def test_direct(self):
        out = Subset([2, 3, 5], 5).quotient(Subset([1, 3], 3))
        assert out.elements == (2, 4) and out.ambient == 4

    def test_identity_inner(self):
        I = Subset([2, 4, 7], 9)
        assert I.quotient(Subset([1, 2, 3], 3)) == I

    def test_full_outer_collapses(self):
        J = Subset([2, 4], 5)
        out = Subset(range(1, 6), 5).quotient(J)
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
        e = Permutation.identity(4)
        assert e.act((1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_group_laws(self):
        rng = random.Random(3)
        for _ in range(100):
            a = Permutation(rng.sample(range(1, 6), 5))
            b = Permutation(rng.sample(range(1, 6), 5))
            x = tuple(rng.randint(0, 9) for _ in range(5))
            assert (a * b).act(x) == a.act(b.act(x))
            assert a.inverse().act(a.act(x)) == x
            assert (a * a.inverse()) == Permutation.identity(5)

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
                    lhs = I.compose(J).dim() - J.dim()
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
            lhs = expected_dim(outer.compose(inner)) - expected_dim(inner)
            rhs = d * slope(gam, inner) + d * (n - r)
            assert lhs == rhs

    def test_chain_identity_componentwise(self):
        # dim(I^J o K) - dim(K) == dim(I o J o K) - dim(J o K)
        for n, r, d in self._component_shapes(6):
            for m in range(1, d + 1):
                for I in all_subsets(r, n):
                    for J in all_subsets(d, r):
                        IJ = I.compose(J)
                        IqJ = I.quotient(J)
                        for K in all_subsets(m, d):
                            lhs = IqJ.compose(K).dim() - K.dim()
                            rhs = IJ.compose(K).dim() - J.compose(K).dim()
                            assert lhs == rhs

    def test_chain_identity_tuples_exhaustive_small(self):
        for n in range(1, 5):
            for r in range(1, n + 1):
                for d in range(1, r + 1):
                    for m in range(1, d + 1):
                        for outer in all_tuples(r, n, 3):
                            for mid in all_tuples(d, r, 3):
                                quot = outer.quotient(mid)
                                comp = outer.compose(mid)
                                for inner in all_tuples(m, d, 3):
                                    lhs = expected_dim(quot.compose(inner)) \
                                        - expected_dim(inner)
                                    rhs = expected_dim(comp.compose(inner)) \
                                        - expected_dim(mid.compose(inner))
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
            lhs = expected_dim(outer.quotient(mid).compose(inner)) - expected_dim(inner)
            rhs = expected_dim(outer.compose(mid).compose(inner)) \
                - expected_dim(mid.compose(inner))
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
