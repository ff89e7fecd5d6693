import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurperturb import intset, odd_set, sample_perturbation, top_interval, RngSpec
from schurperturb.intset import (
    EXHAUSTIVE_SUM_FREE_LIMIT,
    FFT_MEMORY_CAP,
    IntSet,
    LimitExceededError,
    MAX_GROUND,
    ap_differences,
    count_4aps,
    count_ordered_triples,
    enumerate_large_sum_free,
    hosting_sets,
    is_sum_free,
    link,
    link_minus,
    link_plus,
    schur_triples,
)

small_sets = st.integers(1, 24).flatmap(
    lambda n: st.sets(st.integers(1, n)).map(lambda m: IntSet(n, m))
)


def ref_is_sum_free(s):
    """Reference: one big-int shift per element."""
    mask = s.mask
    for x in s:
        if (mask >> x) & mask:
            return False
    return True


def ref_schur_triples(s, nondegenerate_only=False):
    """Reference: per x, the bits of (mask >> x) & mask, lowest first."""
    mask = s.mask
    for x in s:
        both = (mask >> x) & mask
        both >>= x
        while both:
            lsb = both & -both
            y = x + lsb.bit_length() - 1
            if not (nondegenerate_only and y == x):
                yield (x, y, x + y)
            both ^= lsb


def ref_hosting_sets(s):
    out = set()
    for x, y, z in ref_schur_triples(s):
        out.add((x, z) if x == y else (x, y, z))
    return sorted(out)


def ref_count_ordered_triples(s, nondegenerate_only=False):
    count = 0
    for x, y, _ in ref_schur_triples(s):
        if x == y:
            if not nondegenerate_only:
                count += 1
        else:
            count += 2
    return count


def naive_triples(s):
    elems = s.elements()
    mem = set(elems)
    return [(x, y, x + y) for x in elems for y in elems if x + y in mem]


class TestConstruction:
    def test_basic(self):
        s = IntSet(10, [3, 1, 4, 1, 5])
        assert s.elements() == [1, 3, 4, 5]
        assert len(s) == 4
        assert 3 in s and 2 not in s

    def test_interval_and_full(self):
        assert IntSet.interval(10, 4, 7).elements() == [4, 5, 6, 7]
        assert IntSet.interval(10, 8, 2).elements() == []
        assert IntSet.full(5).elements() == [1, 2, 3, 4, 5]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            IntSet(5, [6])
        with pytest.raises(ValueError):
            IntSet(5, [0])
        with pytest.raises(ValueError):
            IntSet(MAX_GROUND + 1)

    def test_set_algebra(self):
        a = IntSet(9, [1, 2, 3])
        b = IntSet(9, [3, 4])
        assert a.union(b).elements() == [1, 2, 3, 4]
        assert a.intersection(b).elements() == [3]
        assert a.difference(b).elements() == [1, 2]
        assert a.with_element(7).elements() == [1, 2, 3, 7]

    def test_equality_requires_same_ground(self):
        assert IntSet(5, [1]) != IntSet(6, [1])
        assert IntSet(5, [1]) == IntSet(5, [1])


class TestIteration:
    @given(
        st.integers(1, 2000).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n + 1)) - 1))
        )
    )
    @example((1, 0))
    @example((1, 0b10))
    @settings(max_examples=300)
    def test_matches_bitwise_decode(self, case):
        n, mask = case
        mask &= ~1  # bit 0 is unused
        s = IntSet._from_mask(n, mask)
        naive = [i for i in range(1, n + 1) if mask >> i & 1]
        assert list(s) == naive
        assert s.elements() == naive
        assert all(type(x) is int for x in s)


class TestSerialization:
    def test_runs_format(self):
        s = IntSet(12, [1, 2, 3, 5, 9, 10])
        assert s.to_runs() == "1-3,5,9-10"
        assert IntSet.from_runs("1-3,5,9-10", 12) == s

    def test_empty_runs(self):
        assert IntSet(8).to_runs() == ""
        assert IntSet.from_runs("", 8) == IntSet(8)

    def test_json_round_trip(self):
        s = IntSet(9, [2, 5, 7])
        assert IntSet.from_json(s.to_json(), 9) == s

    @settings(max_examples=50)
    @given(small_sets)
    def test_round_trip_property(self, s):
        assert IntSet.from_runs(s.to_runs(), s.n) == s
        assert IntSet.from_json(s.to_json(), s.n) == s


class TestSumFree:
    def test_examples(self):
        assert is_sum_free(IntSet(10, [1, 3, 5]))  # odd
        assert is_sum_free(IntSet(10, [6, 7, 8, 9, 10]))  # top half
        assert not is_sum_free(IntSet(10, [1, 2, 3]))
        assert not is_sum_free(IntSet(10, [2, 4]))  # degenerate 2+2=4
        assert is_sum_free(IntSet(10))

    @settings(max_examples=80)
    @given(small_sets)
    def test_against_naive(self, s):
        elems = s.elements()
        mem = set(elems)
        naive = not any(x + y in mem for x in elems for y in elems)
        assert is_sum_free(s) == naive


class TestSumFreeAgainstReference:
    N = 10**5

    @pytest.mark.parametrize(
        "s, extra",
        [
            (odd_set(N), 2),
            (top_interval(N), 1),
            (IntSet.interval(N, N // 2, N - 200), 200),
        ],
        ids=["odd", "top", "interval"],
    )
    def test_bench_sets(self, s, extra):
        assert is_sum_free(s) is ref_is_sum_free(s) is True
        t = s.with_element(extra)
        assert is_sum_free(t) is ref_is_sum_free(t) is False

    def test_sparse_sets(self):
        # |s|^2 <= max(s): the pair finder decides, as for a perturbation
        rng = random.Random(5)
        n = self.N
        for size in (1, 2, 5, 40, 300):
            s = IntSet(n, rng.sample(range(1, n // 2, 2), size))
            assert is_sum_free(s) is ref_is_sum_free(s) is True
            x = min(s)
            assert is_sum_free(s.with_element(2 * x)) is ref_is_sum_free(s.with_element(2 * x)) is False

    def test_just_past_one_block(self):
        b = intset.FFT_BLOCK
        n = b + 10
        crossing = IntSet(n, [3, b - 1, b + 2])  # 3 + (b - 1) = b + 2
        clear = IntSet(n, [3, b - 1, b + 3])
        rng = random.Random(4)
        odd = IntSet(n, [x for x in range(1, n + 1, 2) if rng.random() < 0.01] + [n - 1])
        for s in (crossing, clear, odd, odd.with_element(n - 2)):
            assert is_sum_free(s) == ref_is_sum_free(s)
        assert not is_sum_free(crossing) and is_sum_free(clear)

    @settings(max_examples=150)
    @given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
    def test_many_small_blocks(self, case):
        n, members = case
        s = IntSet(n, members)
        old = intset.FFT_BLOCK
        intset.FFT_BLOCK = 8
        try:
            assert is_sum_free(s) == ref_is_sum_free(s)
        finally:
            intset.FFT_BLOCK = old

    def test_fft_memory_is_capped(self):
        # odd elements in the first and last blocks of [2^22 - 5]: sum-free,
        # so every block pair that can reach max(s) is transformed
        n = (1 << 22) - 5
        rng = random.Random(8)
        lo = [x for x in range(1, 1 << 16, 2) if rng.random() < 0.5]
        hi = [x for x in range(n - (1 << 16), n + 1) if x % 2 and rng.random() < 0.5]
        bits = np.zeros(n + 1, dtype=bool)
        bits[lo + hi] = True
        s = IntSet._from_mask(n, int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
        tracemalloc.start()
        try:
            assert is_sum_free(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the indicator takes max(s) + max(s) / 8 bytes; the FFTs the rest
        assert peak < FFT_MEMORY_CAP + 2 * (n + 1)


class TestTriplesAgainstReference:
    @settings(max_examples=200)
    @given(small_sets)
    @example(IntSet(1))
    @example(IntSet(1, [1]))
    @example(IntSet(12, [1, 2, 3]))
    @example(IntSet(12, [2, 4, 6, 8, 12]))
    @example(IntSet(12, [1, 2, 3, 4, 6]))
    def test_same_values_and_order(self, s):
        for nd in (False, True):
            assert list(schur_triples(s, nd)) == list(ref_schur_triples(s, nd))
            assert count_ordered_triples(s, nd) == ref_count_ordered_triples(s, nd)
        assert hosting_sets(s) == ref_hosting_sets(s)

    def test_double_before_triple(self):
        # (x, 2x) and (x, 2x, 3x) share a prefix: the pair sorts first
        s = IntSet(12, [2, 4, 6, 8, 12])
        hosts = hosting_sets(s)
        assert hosts == ref_hosting_sets(s)
        assert hosts.index((2, 4)) + 1 == hosts.index((2, 4, 6))
        assert hosts.index((4, 8)) + 1 == hosts.index((4, 8, 12))

    def test_empty_and_tiny(self):
        for s in (IntSet(1), IntSet(1, [1]), IntSet(7), IntSet(2, [1, 2])):
            assert hosting_sets(s) == ref_hosting_sets(s)
            assert list(schur_triples(s)) == list(ref_schur_triples(s))
        assert hosting_sets(IntSet(2, [1, 2])) == [(1, 2)]

    def test_pair_chunks(self, monkeypatch):
        monkeypatch.setattr(intset, "PAIR_CHUNK_CELLS", 5)
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 120)
            s = IntSet(n, [x for x in range(1, n + 1) if rng.random() < 0.4])
            assert hosting_sets(s) == ref_hosting_sets(s)
            assert list(schur_triples(s)) == list(ref_schur_triples(s))

    def test_sample_at_two_million(self):
        s = sample_perturbation(2 * 10**6, 1e-3, RngSpec(11), 0)
        assert hosting_sets(s) == ref_hosting_sets(s)

    def test_ordered_counts_dense(self):
        rng = random.Random(9)
        n = 20000
        s = IntSet(n, [x for x in range(1, n + 1) if rng.random() < 0.03])
        for nd in (False, True):
            assert count_ordered_triples(s, nd) == ref_count_ordered_triples(s, nd)


class TestTriples:
    @settings(max_examples=60)
    @given(small_sets)
    def test_schur_triples_match_naive(self, s):
        got = sorted(schur_triples(s))
        want = sorted((x, y, z) for x, y, z in naive_triples(s) if x <= y)
        assert got == want

    @settings(max_examples=60)
    @given(small_sets)
    def test_ordered_count(self, s):
        assert count_ordered_triples(s) == len(naive_triples(s))
        assert count_ordered_triples(s, nondegenerate_only=True) == len(
            [t for t in naive_triples(s) if t[0] != t[1]]
        )

    def test_hosting_sets(self):
        s = IntSet(6, [1, 2, 3, 4])
        hosts = hosting_sets(s)
        assert (1, 2) in hosts  # degenerate 1+1=2
        assert (2, 4) in hosts
        assert (1, 2, 3) in hosts
        assert (1, 3, 4) in hosts
        assert all(h == tuple(sorted(set(h))) for h in hosts)
        assert len(hosts) == len(set(hosts))


class TestAps:
    @settings(max_examples=60)
    @given(small_sets)
    def test_count_4aps_naive(self, s):
        mem = set(s)
        naive = sum(
            1
            for a in mem
            for d in range(1, s.n)
            if {a + d, a + 2 * d, a + 3 * d} <= mem
        )
        assert count_4aps(s) == naive

    def test_ap_differences(self):
        s = IntSet(10, range(1, 11))
        assert ap_differences(s).elements() == [1, 2, 3]


class TestLinks:
    def test_examples(self):
        a = IntSet(10, [2, 3, 5, 7, 9])
        assert link_plus(a, 2).elements() == [3, 5, 7]
        assert link_minus(a, 9).elements() == [2, 7]  # pairs summing to 9
        assert link(a, 2) == link_plus(a, 2).union(link_minus(a, 2))

    @settings(max_examples=40)
    @given(small_sets, st.integers(1, 24))
    def test_against_naive(self, a, x):
        if x > a.n:
            return
        mem = set(a)
        assert set(link_plus(a, x)) == {y for y in mem if x + y in mem}
        assert set(link_minus(a, x)) == {y for y in mem if x - y in mem}


class TestEnumerateLargeSumFree:
    def test_against_brute_force(self):
        for n in range(1, 13):
            for min_size in (1, 2, n // 2):
                got = {s.mask for s in enumerate_large_sum_free(n, min_size)}
                want = set()
                for r in range(min_size, n + 1):
                    for combo in itertools.combinations(range(1, n + 1), r):
                        if is_sum_free(IntSet(n, combo)):
                            want.add(IntSet(n, combo).mask)
                assert got == want

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            list(enumerate_large_sum_free(EXHAUSTIVE_SUM_FREE_LIMIT + 1, 1))
