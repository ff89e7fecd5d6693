import itertools
import random

import numpy as np
import pytest

from oracles import count_wickets_unordered, is_wicket, wicket_entry_masks
from schurperturb import intset, wickets
from schurperturb.intset import IntSet
from schurperturb.wickets import (
    claim_extension_bound,
    count_wickets,
    count_wickets_containing,
    iter_wickets,
)


def enumerated_containing(u, n: int) -> int:
    um = np.uint64(sum(1 << v for v in set(u)))
    return int(np.count_nonzero(wicket_entry_masks(n) & um == um))


class TestIsWicket:
    def test_valid(self):
        w = (1, 9, 10, 2, 11, 13, 3, 4, 7)
        assert is_wicket(w, 13)

    def test_rejects_repeats_and_bad_sums(self):
        assert not is_wicket((1, 9, 10, 2, 11, 13, 3, 4, 8), 13)  # 3+4 != 8
        assert not is_wicket((1, 9, 10, 2, 11, 13, 3, 9, 12), 13)  # repeat 9
        assert not is_wicket((1, 2, 3), 9)

    def test_range(self):
        assert not is_wicket((1, 9, 10, 2, 11, 13, 3, 4, 7), 12)


class TestCountWickets:
    def test_nine_is_zero(self):
        assert count_wickets(IntSet(9, range(1, 10))) == 0

    def test_matches_oracle_small(self):
        for n in range(1, 21):
            s = IntSet.full(n)
            assert count_wickets(s) == sum(1 for _ in iter_wickets(s))

    def test_matches_enumerate(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(10, 26)
            s = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.7])
            assert count_wickets(s) == sum(1 for _ in iter_wickets(s))

    def test_random_sets_vs_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(8, 18)
            s = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.6])
            assert count_wickets(s) == sum(1 for _ in iter_wickets(s))

    def test_chi_restriction(self):
        rng = random.Random(3)
        for _ in range(8):
            n = rng.randint(10, 16)
            s = IntSet.full(n)
            chi = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.7])
            assert count_wickets(s, chi) == sum(1 for _ in iter_wickets(s, chi))

    def test_chi_must_be_subset(self):
        with pytest.raises(ValueError, match="chi must be a subset of s"):
            count_wickets(IntSet(10, [1, 2, 3]), IntSet(10, [4]))
        with pytest.raises(ValueError, match="chi must be a subset of s"):
            count_wickets(IntSet(10, [1, 2, 3]), IntSet(12, [1, 12]))
        assert count_wickets(IntSet.full(14), IntSet.full(14)) == count_wickets(IntSet.full(14))

    def test_unordered_divides_ordered(self):
        s = IntSet.full(14)
        ordered = count_wickets(s)
        unordered = count_wickets_unordered(s)
        assert unordered <= ordered
        # each entry set supports at least one ordering
        assert (ordered == 0) == (unordered == 0)

    def test_iter_yields_wickets(self):
        s = IntSet.full(13)
        seen = 0
        for w in iter_wickets(s):
            assert is_wicket(w, 13)
            seen += 1
        assert seen == count_wickets(s)


class TestCountContaining:
    def test_oracle(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(8, 14)
            u = rng.sample(range(1, n + 1), rng.randint(1, 4))
            want = sum(
                1 for w in iter_wickets(IntSet.full(n)) if set(u) <= set(w)
            )
            assert count_wickets_containing(u, n) == want

    def test_enumeration_every_size(self):
        rng = random.Random(24)
        for n in (12, 17, 24, 30):
            for size in range(1, 10):
                for _ in range(4):
                    u = rng.sample(range(1, n + 1), size)
                    assert count_wickets_containing(u, n) == enumerated_containing(u, n)
        # a whole wicket, and its subsets of each size
        w = (1, 9, 10, 2, 11, 13, 3, 4, 7)
        for size in range(1, 10):
            u = list(w[:size])
            assert count_wickets_containing(u, 13) == enumerated_containing(u, 13) >= 1

    def test_small_batches(self, monkeypatch):
        # blocks of one or a few rows and items give the same counts, the
        # row table's leg-triple counts included (the table starts empty)
        rng = random.Random(25)
        cases = [rng.sample(range(1, 18), size) for size in range(1, 10)]
        want = [enumerated_containing(u, 17) for u in cases]
        full = count_wickets(IntSet.full(17))
        monkeypatch.setattr(intset, "BLOCK_CELLS", 40)
        monkeypatch.setattr(wickets, "ITEM_BATCH", 5)
        wickets._row_table.cache_clear()
        assert [count_wickets_containing(u, 17) for u in cases] == want
        assert count_wickets(IntSet.full(17)) == full
        wickets._row_table.cache_clear()
        # sets that are not intervals, with max s = n (whose indicator is
        # longer than n + 1 unless n + 1 is a multiple of 8) or max s < n,
        # and legs on all of s or on a chi with a smaller maximum
        for n, top in ((17, 17), (19, 19), (20, 13), (23, 16), (15, 15), (22, 21)):
            s = IntSet(n, [e for e in range(1, top) if rng.random() < 0.75] + [top])
            chi = IntSet(n, [e for e in s if e < top and rng.random() < 0.8])
            assert count_wickets(s) == sum(1 for _ in iter_wickets(s))
            assert count_wickets(s, chi) == sum(1 for _ in iter_wickets(s, chi))

    def test_splits_with_several_pairs(self, monkeypatch):
        # a split with two or three pairs takes the run of its first pair's
        # leg and drops the rows its other pairs rule out, one item at a
        # time; in the second case the row (1, 2, 3) both pairs of some
        # splits pin lies in another group, since its x3 = 3 is in u
        cases = [
            (([9, 10, 11, 13], 13), 116),
            (([3, 9, 10, 11, 13], 13), 78),
            (([3, 9, 10, 11, 13], 17), 270),
            (([4, 7, 9, 10, 11, 13], 13), 30),
        ]
        monkeypatch.setattr(intset, "BLOCK_CELLS", 40)
        monkeypatch.setattr(wickets, "ITEM_BATCH", 1)
        wickets._row_table.cache_clear()
        for (u, n), want in cases:
            assert enumerated_containing(u, n) == want
            assert count_wickets_containing(u, n) == want
        wickets._row_table.cache_clear()

    def test_row_tables_interleaved(self):
        # more values of n than the cache holds, in turn and repeated: the
        # same counts whether a call builds its table or reuses one
        rng = random.Random(26)
        ns = (12, 24, 17, 12, 30, 13, 15, 24, 12)
        assert len(set(ns)) > wickets.ROW_TABLE_NS
        wickets._row_table.cache_clear()
        for n in ns:
            for size in (1, 3, 5, 7):
                u = rng.sample(range(1, n + 1), size)
                want = enumerated_containing(u, n)
                assert count_wickets_containing(u, n) == want
                assert count_wickets_containing(u, n) == want
                assert count_wickets_containing(u[::-1], n) == want

    def test_tiny_n(self):
        for n in range(1, 7):
            for size in (1, 2, 3):
                for u in itertools.combinations(range(1, n + 1), size):
                    assert count_wickets_containing(u, n) == enumerated_containing(u, n)

    def test_non_integral_elements_rejected(self):
        # a float is not truncated to the count of its integer part
        with pytest.raises(TypeError):
            count_wickets_containing([3.5], 12)
        with pytest.raises(TypeError):
            count_wickets_containing([2, 3.0], 12)
        assert count_wickets_containing([np.int64(3)], 12) == count_wickets_containing([3], 12) == 374

    def test_singletons_sum_to_nine_counts(self):
        n = 20
        counts = [count_wickets_containing([v], n) for v in range(1, n + 1)]
        assert counts == [enumerated_containing([v], n) for v in range(1, n + 1)]
        assert sum(counts) == 9 * count_wickets(IntSet.full(n))

    def test_empty_u_rejected(self):
        with pytest.raises(ValueError):
            count_wickets_containing([], 10)

    def test_out_of_range_is_zero(self):
        assert count_wickets_containing([11], 10) == 0

    def test_full_tuple(self):
        w = (1, 9, 10, 2, 11, 13, 3, 4, 7)
        assert count_wickets_containing(list(w), 13) >= 1


class TestClaimBound:
    def test_formula(self):
        f9 = 362880
        assert claim_extension_bound(8, 60) == f9
        assert claim_extension_bound(9, 60) == f9
        assert claim_extension_bound(6, 60) == f9**2 * 60
        assert claim_extension_bound(1, 60) == f9**5 * 60**4

    def test_bound_holds(self):
        rng = random.Random(9)
        n = 30
        for size in range(1, 10):
            for _ in range(5):
                u = rng.sample(range(1, n + 1), size)
                assert count_wickets_containing(u, n) <= claim_extension_bound(size, n)
