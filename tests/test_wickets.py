import random
from functools import lru_cache

import numpy as np
import pytest

from schurperturb import wickets
from schurperturb.intset import IntSet
from schurperturb.wickets import (
    claim_extension_bound,
    count_wickets,
    count_wickets_containing,
    count_wickets_unordered,
    is_wicket,
    iter_wickets,
)


def oracle_count(s: IntSet, chi: IntSet | None = None) -> int:
    """Independent nested-loop count of ordered wickets."""
    elems = s.elements()
    mem = set(elems)
    ground = set(chi) if chi is not None else mem
    total = 0
    for x1 in elems:
        for x2 in elems:
            if x1 == x2:
                continue
            x3 = x1 + x2
            if x3 not in mem:
                continue
            xs = (x1, x2, x3)
            for y1 in ground:
                z1 = y1 + x1
                if z1 not in ground or y1 in xs or z1 in xs:
                    continue
                for y2 in ground:
                    z2 = y2 + x2
                    if z2 not in ground or y2 in xs or z2 in xs:
                        continue
                    if len({y1, z1, y2, z2}) != 4:
                        continue
                    for y3 in ground:
                        z3 = y3 + x3
                        if z3 not in ground or y3 in xs or z3 in xs:
                            continue
                        if {y3, z3} & {y1, z1, y2, z2}:
                            continue
                        total += 1
    return total


@lru_cache(maxsize=None)
def wicket_entry_masks(n: int) -> np.ndarray:
    """The entry set of every ordered wicket in [n], as bitmasks: per
    (x1, x2), all triples of legs {y, y + x_i} avoiding the x's, kept when
    pairwise disjoint (the enumeration of bench/oracle.py)."""
    out = []
    for x1 in range(1, n + 1):
        for x2 in range(1, n + 1 - x1):
            if x1 == x2:
                continue
            xs = (1 << x1) | (1 << x2) | (1 << (x1 + x2))
            legs = []
            for x in (x1, x2, x1 + x2):
                masks = [(1 << y) | (1 << (y + x)) for y in range(1, n - x + 1)]
                legs.append(np.array([m for m in masks if not m & xs], dtype=np.uint64))
            l1, l2, l3 = legs[0][:, None, None], legs[1][None, :, None], legs[2][None, None, :]
            ok = ((l1 & l2) == 0) & ((l1 & l3) == 0) & ((l2 & l3) == 0)
            out.append((l1 | l2 | l3)[ok] | np.uint64(xs))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.uint64)


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
            assert count_wickets(s) == oracle_count(s)

    def test_matches_enumerate(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(10, 26)
            s = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.7])
            assert count_wickets(s) == count_wickets(s, method="enumerate")

    def test_random_sets_vs_oracle(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(8, 18)
            s = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.6])
            assert count_wickets(s) == oracle_count(s)

    def test_chi_restriction(self):
        rng = random.Random(3)
        for _ in range(8):
            n = rng.randint(10, 16)
            s = IntSet.full(n)
            chi = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.7])
            assert count_wickets(s, chi) == oracle_count(s, chi)

    def test_chi_must_be_subset(self):
        with pytest.raises(ValueError, match="chi must be a subset of s"):
            count_wickets(IntSet(10, [1, 2, 3]), IntSet(10, [4]))
        with pytest.raises(ValueError, match="chi must be a subset of s"):
            count_wickets(IntSet(10, [1, 2, 3]), IntSet(12, [1, 12]))
        assert count_wickets(IntSet.full(14), IntSet.full(14)) == count_wickets(IntSet.full(14))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            count_wickets(IntSet(5), method="bogus")

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
        for n in (12, 17, 24):
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
        # batches of one or a few rows and items give the same counts
        rng = random.Random(25)
        cases = [rng.sample(range(1, 18), size) for size in range(1, 8)]
        want = [enumerated_containing(u, 17) for u in cases]
        full = count_wickets(IntSet.full(17))
        monkeypatch.setattr(wickets, "BATCH_CELLS", 40)
        monkeypatch.setattr(wickets, "ITEM_BATCH", 5)
        assert [count_wickets_containing(u, 17) for u in cases] == want
        assert count_wickets(IntSet.full(17)) == full

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
