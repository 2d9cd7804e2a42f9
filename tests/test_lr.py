import itertools
import random

import numpy as np
import pytest

from _oracles import all_tuples, naive_lr, subset_to_schubert_partition
from horncone.lr import (
    classify,
    lr_coefficient,
    normalize_partition,
    point_coefficient,
    schubert_product,
    schur_product_in_box,
)
from horncone.subsets import Subset, SubsetTuple, all_subsets, expected_dim


def partitions_up_to(total, max_len=None):
    """All partitions of every size <= total."""
    out = [()]
    for n in range(1, total + 1):
        stack = [((), n, n)]
        while stack:
            prefix, remaining, cap = stack.pop()
            for first in range(min(cap, remaining), 0, -1):
                p = prefix + (first,)
                if remaining == first:
                    if max_len is None or len(p) <= max_len:
                        out.append(p)
                elif max_len is None or len(p) < max_len:
                    stack.append((p, remaining - first, first))
    return out


class TestLrCoefficient:
    def test_examples(self):
        assert lr_coefficient((1,), (1,), (2,)) == 1
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
        for mu in [(3, 1), (2, 2, 1), ()]:
            assert lr_coefficient((), mu, mu) == 1

    def test_incompatible_shapes(self):
        assert lr_coefficient((2,), (1,), (2,)) == 0
        assert lr_coefficient((3,), (1,), (2, 2)) == 0
        assert lr_coefficient((1, 1, 1), (1,), (2, 1)) == 0

    def test_against_naive_enumeration(self):
        rng = random.Random(29)
        pool = partitions_up_to(6, max_len=4)
        for _ in range(300):
            lam, mu, nu = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert lr_coefficient(lam, mu, nu) == naive_lr(lam, mu, nu)

    def test_symmetry_exhaustive(self):
        nus = [p for p in partitions_up_to(8, max_len=4) if sum(p) <= 8]
        for nu in nus:
            for lam in partitions_up_to(sum(nu)):
                rest = sum(nu) - sum(lam)
                if rest < 0:
                    continue
                for mu in partitions_up_to(rest):
                    if sum(mu) != rest:
                        continue
                    assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)

    def test_normalize(self):
        assert normalize_partition((3, 1, 0, 0)) == (3, 1)
        with pytest.raises(ValueError):
            normalize_partition((1, 2))
        with pytest.raises(ValueError):
            normalize_partition((1, -1))

    def test_parts_must_be_integers(self):
        # a valid partition equal to each bad one is memoized first: a bad
        # input must still raise, on every call, and never be kept
        assert normalize_partition((2, 1)) == (2, 1)
        assert normalize_partition((1,)) == (1,)
        for parts in [(2.5, 1), (2.0, 1), (2, True), (True,), ("2",), (2, "1")]:
            for _ in range(2):
                with pytest.raises(ValueError):
                    normalize_partition(parts)
        for _ in range(2):
            with pytest.raises(ValueError):
                lr_coefficient((1.5,), (1,), (2,))
            with pytest.raises(ValueError):
                point_coefficient([(1,), (1.0,), ()], 2, 4)
        got = normalize_partition(np.array([3, 1, 0]))
        assert got == (3, 1) and all(type(x) is int for x in got)


class TestSchubertProduct:
    def test_fundamental_classes(self):
        for r, n in [(1, 2), (2, 4), (3, 6)]:
            vec = schubert_product([()] * 3, (r, n))
            assert vec == {(): 1}

    def test_point_of_projective_line(self):
        vec = schubert_product([(1,), (), ()], (1, 2))
        assert vec == {(1,): 1}

    def test_two_boxes(self):
        vec = schubert_product([(1,), (1,)], (2, 4))
        assert vec == {(2,): 1, (1, 1): 1}

    def test_box_truncation(self):
        # in Gr(1, 2) the square of the point class dies
        assert schubert_product([(1,), (1,)], (1, 2)) == {}

    def test_degree_additivity(self):
        rng = random.Random(31)
        for _ in range(150):
            r = rng.randint(1, 3)
            n = rng.randint(r, r + 3)
            parts = []
            for _ in range(3):
                sub = Subset(sorted(rng.sample(range(1, n + 1), r)), n)
                parts.append(sub.schubert_partition())
            vec = schubert_product(parts, (r, n))
            weight = sum(sum(p) for p in parts)
            assert all(sum(nu) == weight for nu in vec)

    def test_order_independence(self):
        rng = random.Random(37)
        for _ in range(60):
            r, n = 2, 5
            parts = [
                Subset(sorted(rng.sample(range(1, n + 1), r)), n).schubert_partition()
                for _ in range(4)
            ]
            base = schubert_product(parts, (r, n))
            rng.shuffle(parts)
            assert schubert_product(parts, (r, n)) == base

    def test_coefficients_can_exceed_one(self):
        vec = schubert_product([(2, 1), (2, 1), (2, 1)], (3, 6))
        assert vec == {(3, 3, 3): 2}

    @pytest.mark.parametrize("r, n", [(1, 4), (2, 4), (2, 5), (3, 5), (2, 6),
                                      (3, 6)])
    def test_box_products_are_lr_coefficients(self, r, n):
        # every pair of box partitions against every box partition nu
        box = [p for p in partitions_up_to(r * (n - r), max_len=r)
               if not p or p[0] <= n - r]
        for lam in box:
            for mu in box:
                want = {}
                for nu in sorted(box, reverse=True):
                    c = lr_coefficient(lam, mu, nu)
                    if c:
                        want[nu] = c
                got = schubert_product([lam, mu], (r, n))
                assert got == want, (lam, mu)
                assert list(got) == list(want), (lam, mu)

    def test_factor_outside_the_box(self):
        assert schur_product_in_box((4,), (1,), 2, 3) == ()
        assert schur_product_in_box((1,), (1, 1, 1), 2, 3) == ()
        assert schubert_product([(1,), (4,)], (2, 5)) == {}


class TestSubsetPartitionBridge:
    def test_examples(self):
        assert subset_to_schubert_partition(Subset([1], 2)) == (1,)
        assert subset_to_schubert_partition(Subset([2, 3, 4], 4)) == (0, 0, 0)
        for n in range(1, 6):
            assert subset_to_schubert_partition(Subset(range(1, n + 1), n)) == (0,) * n

    def test_ambient_check(self):
        with pytest.raises(ValueError):
            subset_to_schubert_partition(Subset([1], 2), 3)

    def test_box_fit(self):
        for sub in all_subsets(2, 5):
            p = normalize_partition(sub.schubert_partition())
            assert len(p) <= 2 and (not p or p[0] <= 3)


class TestClassify:
    def test_full_tuples(self):
        for n in (1, 2, 4):
            t = SubsetTuple([Subset(range(1, n + 1), n)] * 3)
            cls = classify(t)
            assert cls.is_point and cls.point_coefficient == 1

    def test_small_point(self):
        cls = classify(SubsetTuple.of([1], [2], [2], ambient=2))
        assert cls.is_point

    def test_point_multiple_but_not_point(self):
        cls = classify(SubsetTuple.of([2, 4, 6], [2, 4, 6], [2, 4, 6], ambient=6))
        assert cls.is_zero_dim and not cls.is_point
        assert cls.point_coefficient == 2

    def test_zero(self):
        cls = classify(SubsetTuple.of([1], [1], [1], ambient=2))
        assert not cls.is_intersecting

    def test_positive_but_not_zero_dim(self):
        t = SubsetTuple.of([2, 3], [2, 3], [2, 3], ambient=3)
        cls = classify(t)
        assert cls.is_intersecting and not cls.is_zero_dim
        assert cls.point_coefficient is None

    def test_permutation_invariance(self):
        for t in all_tuples(2, 4, 3):
            base = classify(t).kind
            for perm in itertools.permutations(t.parts):
                assert classify(SubsetTuple(perm)).kind == base

    def test_kind_lattice(self):
        # point implies zero-dim implies intersecting; zero-dim matches
        # expected dimension zero
        for n in range(1, 6):
            for r in range(1, n + 1):
                for t in all_tuples(r, n, 3):
                    cls = classify(t)
                    if cls.is_point:
                        assert cls.is_zero_dim
                    if cls.is_zero_dim:
                        assert cls.is_intersecting
                        assert expected_dim(t) == 0
                    if cls.is_intersecting:
                        assert expected_dim(t) >= 0


class TestPointCoefficient:
    @pytest.mark.parametrize("s, ambient", [(1, 5), (2, 6), (3, 6), (4, 4)])
    def test_equals_the_full_product(self, s, ambient):
        # the coefficient read from one LR coefficient per term equals the
        # one read off the fully expanded product, on every zero-dim tuple
        seen = set()
        for n in range(1, ambient + 1):
            for r in range(1, n + 1):
                for t in all_tuples(r, n, s):
                    if expected_dim(t) != 0:
                        continue
                    parts = [p.schubert_partition() for p in t.parts]
                    c = point_coefficient(parts, r, n)
                    assert c == classify(t).point_coefficient, t
                    seen.add(c)
        # s >= 3 reaches a coefficient above one: sigma_{2,1}^3 in Gr(3, 6)
        # for s = 3, sigma_1^4 in Gr(2, 4) for s = 4
        assert seen == ({0, 1, 2} if s >= 3 else {0, 1} if s == 2 else {1})

    def test_wrong_degree_has_no_point_term(self):
        assert point_coefficient([(1,), (1,), ()], 2, 4) == 0
