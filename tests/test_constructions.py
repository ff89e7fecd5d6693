import math

import pytest

from schurperturb.constructions import (
    DenseZeroStatement,
    L1,
    L2,
    PairKind,
    claim48_partition,
    construct_by_name,
    dense_zero_statement,
    mod5_construction,
    odd_set,
    pair_P,
    pair_preimages,
    sparse_base,
    top_interval,
)
from schurperturb.intset import IntSet, is_sum_free
from schurperturb.solver import BLUE, RED, SchurStatus, is_schur, validate_colouring


class TestExtremalSets:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 17, 64])
    def test_odd_set(self, n):
        s = odd_set(n)
        assert is_sum_free(s)
        assert len(s) == math.ceil(n / 2)
        assert all(e % 2 for e in s)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 17, 64])
    def test_top_interval(self, n):
        s = top_interval(n)
        assert is_sum_free(s)
        assert len(s) == math.ceil(n / 2)
        assert s.elements()[0] == n // 2 + 1


class TestMod5:
    @pytest.mark.parametrize("n", [5, 10, 13, 15, 40])
    def test_size_and_colouring(self, n):
        a, colouring = mod5_construction(n)
        assert len(a) == math.ceil(4 * n / 5)
        assert validate_colouring(a, colouring) == []
        assert set(colouring.red) == {e for e in a if e % 5 in (1, 4)}
        assert set(colouring.blue) == {e for e in a if e % 5 in (2, 3)}

    @pytest.mark.parametrize("n", [10, 15])
    def test_not_schur(self, n):
        a, _ = mod5_construction(n)
        assert is_schur(a) is SchurStatus.NOT_SCHUR

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            mod5_construction(4)


class TestDenseZeroStatement:
    def test_structure(self):
        dz = dense_zero_statement(100, 10)
        lo = math.ceil(101 / 2) - 10
        assert dz.A == IntSet.interval(100, lo, 100)
        assert dz.B == IntSet.interval(100, lo, 80)
        assert dz.C == IntSet.interval(100, 81, 100)
        assert dz.B.union(dz.C) == dz.A
        assert dz.B.intersection(dz.C).elements() == []
        assert len(dz.A) == math.ceil(100 / 2) + 10

    def test_colouring_is_schur_colouring(self):
        dz = dense_zero_statement(60, 5)
        assert validate_colouring(dz.A, dz.colouring_for(dz.A)) == []

    def test_colour_rule_total(self):
        dz = dense_zero_statement(40, 3)
        assert dz.colour_rule(1) == RED  # below A: red by default
        assert all(dz.colour_rule(e) == BLUE for e in dz.B)
        assert all(dz.colour_rule(e) == RED for e in dz.C)

    def test_c_difference_count(self):
        assert dense_zero_statement(100, 10).c_difference_count() == 19

    @pytest.mark.parametrize("n,t", [(100, 0), (100, 31), (10, 4)])
    def test_domain(self, n, t):
        with pytest.raises(ValueError):
            dense_zero_statement(n, t)


class TestSparseBase:
    def test_structure(self):
        s = sparse_base(50, 7)
        assert s == IntSet.interval(50, 44, 50)
        assert is_sum_free(s)

    def test_domain(self):
        with pytest.raises(ValueError):
            sparse_base(50, 26)
        with pytest.raises(ValueError):
            sparse_base(50, 0)


class TestConfigurations:
    def test_l1_membership(self):
        s = L1(5, 9, 2)
        want = {2, 9, 11, 5, 7, 9, 11, 14, 16, 18, 20}
        assert set(s) == want

    def test_l2_membership(self):
        s = L2(2, 12, 1)
        want = {1, 11, 12, 2, 3, 4, 5, 12 - 2 - 3, 12 - 2 - 2, 12 - 2 - 1, 12 - 2}
        assert set(s) == want

    def test_l2_precondition(self):
        with pytest.raises(ValueError):
            L2(3, 10, 3)  # x <= a + 3d

    def test_configurations_are_schur(self):
        for a, x, d in [(1, 2, 1), (2, 5, 1), (3, 4, 2), (5, 9, 2)]:
            assert is_schur(L1(a, x, d)) is SchurStatus.SCHUR
        for a, x, d in [(1, 5, 1), (2, 12, 1), (1, 9, 2)]:
            assert is_schur(L2(a, x, d)) is SchurStatus.SCHUR

    def test_ground_override(self):
        s = L1(1, 2, 1, n=50)
        assert s.n == 50


class TestPairs:
    def test_pair_p(self):
        assert pair_P(9, 2, PairKind.PLUS) == frozenset({2, 11})
        assert pair_P(9, 2, PairKind.MINUS) == frozenset({2, 7})

    def test_pair_p_degenerate(self):
        with pytest.raises(ValueError):
            pair_P(4, 2, PairKind.MINUS)

    def test_preimages_example(self):
        pre = pair_preimages(frozenset({2, 5}))
        assert (3, 2, PairKind.PLUS) in pre
        assert (7, 2, PairKind.MINUS) in pre
        assert (7, 5, PairKind.MINUS) in pre
        assert len(pre) == 3

    def test_preimages_round_trip(self):
        for u in range(1, 15):
            for v in range(u + 1, 15):
                pre = pair_preimages(frozenset({u, v}))
                assert 1 <= len(pre) <= 3
                for x, d, kind in pre:
                    assert pair_P(x, d, kind) == frozenset({u, v})


class TestClaim48Partition:
    def test_example_10_2(self):
        part = claim48_partition(10, 2)
        assert sorted(map(sorted, part.pairs)) == [[1, 3], [5, 7], [6, 8]]
        assert part.Q.elements() == [1, 3, 5, 6, 7, 8]
        assert part.eta == 8

    def test_example_17_9(self):
        part = claim48_partition(17, 9)
        assert sorted(map(sorted, part.pairs)) == [[1, 8], [2, 7], [3, 6]]
        assert part.eta == 9

    def test_invariants_sweep(self):
        for n in range(1, 80):
            for alpha in range(1, n + 1):
                part = claim48_partition(n, alpha)
                seen = set()
                for pair in part.pairs:
                    assert len(pair) == 2
                    assert not (seen & pair)
                    seen |= pair
                    u, v = sorted(pair)
                    # pair + alpha hosts a Schur triple
                    assert u + alpha == v or u + v == alpha
                    assert pair <= set(part.Q)
                assert len(part.Q) >= part.eta - 3
                assert 2 * part.eta >= n
                assert part.small_eta == (part.eta < 60)

    def test_domain(self):
        with pytest.raises(ValueError):
            claim48_partition(10, 11)


class TestConstructByName:
    def test_named(self):
        assert construct_by_name("odd", 9) == odd_set(9)
        assert construct_by_name("top", 9) == top_interval(9)

    def test_mod5(self):
        a, colouring = construct_by_name("mod5", 10)
        assert a == mod5_construction(10)[0]

    def test_parameterized(self):
        dz = construct_by_name("dense0:100,10")
        assert isinstance(dz, DenseZeroStatement)
        assert construct_by_name("sparse:50,7") == sparse_base(50, 7)
        assert construct_by_name("L1:1,2,1") == L1(1, 2, 1)
        assert construct_by_name("L2:2,12,1") == L2(2, 12, 1)

    def test_unknown(self):
        with pytest.raises(ValueError):
            construct_by_name("nope", 5)
