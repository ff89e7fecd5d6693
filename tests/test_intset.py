import itertools
import json
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ap_differences, count_4aps, is_sum_free_mask, link, link_minus, link_plus
from schurperturb import intset, odd_set, sample_perturbation, top_interval, RngSpec
from schurperturb.intset import (
    EXHAUSTIVE_SUM_FREE_LIMIT,
    FFT_MEMORY_CAP,
    IntSet,
    LimitExceededError,
    MAX_GROUND,
    count_hosting_sets,
    count_ordered_triples,
    enumerate_large_sum_free,
    hosting_sets,
    is_sum_free,
    schur_triples,
)

small_sets = st.integers(1, 24).flatmap(
    lambda n: st.sets(st.integers(1, n)).map(lambda m: IntSet(n, m))
)


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


def ref_count_ordered_triples(s):
    return sum(1 if x == y else 2 for x, y, _ in ref_schur_triples(s))


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

    def test_numpy_integer_members(self):
        s = IntSet(100, np.array([70, 5]))
        assert len(s) == 2 and 70 in s and type(s.mask) is int
        t = IntSet(100, [3, np.int64(70)])
        assert list(t) == [3, 70] and type(t.mask) is int
        assert np.int64(70) in t and np.int32(4) not in t
        u = t.with_element(np.int64(80))
        assert u.elements() == [3, 70, 80] and type(u.mask) is int

    @settings(max_examples=200)
    @given(
        st.integers(1, 300).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(1, n), max_size=60),
                st.sampled_from(["list", "generator", "int64", "uint16", "int32 scalars"]),
            )
        )
    )
    @example((1, [], "int64"))
    @example((9, [9, 1, 9, 8], "generator"))
    def test_mask_matches_reference(self, case):
        n, members, kind = case
        arg = {
            "list": lambda: members,
            "generator": lambda: (x for x in members),
            "int64": lambda: np.array(members, dtype=np.int64),
            "uint16": lambda: np.array(members, dtype=np.uint16),
            "int32 scalars": lambda: [np.int32(x) for x in members],
        }[kind]()
        s = IntSet(n, arg)
        assert s.mask == sum(1 << x for x in set(members))
        assert type(s.mask) is int and len(s) == len(set(members))

    @settings(max_examples=60)
    @given(
        st.integers(1, 200).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(1, n), st.integers(0, n))
        )
    )
    def test_ranges(self, case):
        n, lo, hi, step = case
        r = range(lo, hi + 1, step + 1)
        assert IntSet(n, r).mask == sum(1 << x for x in r)

    @settings(max_examples=100)
    @given(
        st.integers(1, 100).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(1, n), max_size=10),
                st.lists(st.integers(-5, 0) | st.integers(n + 1, n + 50), min_size=1, max_size=4),
                st.randoms(use_true_random=False),
            )
        )
    )
    def test_first_outside_member_named(self, case):
        n, inside, outside, rng = case
        members = inside + outside
        rng.shuffle(members)
        first = next(x for x in members if not 1 <= x <= n)
        for arg in (members, iter(members), np.array(members)):
            with pytest.raises(ValueError, match=rf"^element {first} outside ground interval \[1, {n}\]$"):
                IntSet(n, arg)


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

    @pytest.mark.parametrize("text", ["5-3", "1,4-2"])
    def test_reversed_run_rejected(self, text):
        with pytest.raises(ValueError, match="reversed run"):
            IntSet.from_runs(text)

    @settings(max_examples=50)
    @given(small_sets)
    def test_round_trip_property(self, s):
        assert IntSet.from_runs(s.to_runs(), s.n) == s


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
        assert is_sum_free(s) == is_sum_free_mask(s.mask)


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
        assert is_sum_free(s) is is_sum_free_mask(s.mask) is True
        t = s.with_element(extra)
        assert is_sum_free(t) is is_sum_free_mask(t.mask) is False

    def test_sparse_sets(self):
        # |s|^2 <= max(s): the pair finder decides, as for a perturbation
        rng = random.Random(5)
        n = self.N
        for size in (1, 2, 5, 40, 300):
            s = IntSet(n, rng.sample(range(1, n // 2, 2), size))
            assert is_sum_free(s) is is_sum_free_mask(s.mask) is True
            x = min(s)
            assert is_sum_free(s.with_element(2 * x)) is is_sum_free_mask(s.with_element(2 * x).mask) is False

    def test_sum_avoiding_the_minimum(self):
        # 1 is in no sum, so the one-shift test on min(s) passes these sets
        # on and the pair finder (sparse) or the transform (dense) decides
        n = self.N
        top_odd = list(range(n // 2 + 1, n + 1, 2))
        for members, summand in (([1, 1000, 3000], 4000), ([1] + top_odd, 20000)):
            s = IntSet(n, members)
            assert is_sum_free(s) is is_sum_free_mask(s.mask) is True
            t = s.with_element(summand)
            assert is_sum_free(t) is is_sum_free_mask(t.mask) is False

    def test_just_past_one_block(self):
        b = intset.FFT_BLOCK
        n = b + 10
        crossing = IntSet(n, [3, b - 1, b + 2])  # 3 + (b - 1) = b + 2
        clear = IntSet(n, [3, b - 1, b + 3])
        rng = random.Random(4)
        odd = IntSet(n, [x for x in range(1, n + 1, 2) if rng.random() < 0.01] + [n - 1])
        for s in (crossing, clear, odd, odd.with_element(n - 2)):
            assert is_sum_free(s) == is_sum_free_mask(s.mask)
        assert not is_sum_free(crossing) and is_sum_free(clear)

    @settings(max_examples=150)
    @given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
    def test_many_small_blocks(self, case):
        # the dispatch's path, then each path forced
        n, members = case
        s = IntSet(n, members)
        old = intset.FFT_BLOCK, intset._shifts_cheaper
        intset.FFT_BLOCK = 8
        try:
            for forced in (None, True, False):
                if forced is not None:
                    intset._shifts_cheaper = lambda *_: forced
                assert is_sum_free(s) == is_sum_free_mask(s.mask)
        finally:
            intset.FFT_BLOCK, intset._shifts_cheaper = old

    def test_first_nonzero_block_ends_the_test(self, monkeypatch):
        # odd numbers up to 1999 without 9 and 11, plus 10 = 3 + 7: about
        # 500 elements below max / 2 at 32 words a shift, so the transforms
        # decide, whatever the block length; the min-shift test passes, and
        # the first block product finds 3 + 7
        s = IntSet(2000, [x for x in range(1, 2000, 2) if x not in (9, 11)] + [10])
        monkeypatch.setattr(intset, "FFT_BLOCK", 64)
        products = []
        block_counts = intset._block_triple_counts

        def counted(ind, top):
            for part in block_counts(ind, top):
                products.append(part[0])
                yield part

        monkeypatch.setattr(intset, "_block_triple_counts", counted)
        assert not is_sum_free(s) and not is_sum_free_mask(s.mask)
        assert products == [0]
        products.clear()
        assert count_ordered_triples(s) == ref_count_ordered_triples(s)
        assert len(products) > 100

    def test_paths_agree_across_the_dispatch(self, monkeypatch):
        # max(s) = 999: 16 words a shift against transforms of length
        # 2 * 1000, so a set with at most 125 elements below 500 takes the
        # shift path
        length = intset._transform_length(999)
        rng = random.Random(14)
        cases = []
        for k in range(100, 157):
            odd = rng.sample(range(1, 500, 2), k) + [x for x in range(501, 1000, 2) if rng.random() < 0.5]
            s = IntSet(999, odd + [999])
            cases += [s, s.with_element(rng.randrange(2, 999, 2))]
        taken = []
        shifts = intset._sum_free_by_shifts

        def spy(mask, summands):
            taken.append(summands.bit_count())
            return shifts(mask, summands)

        monkeypatch.setattr(intset, "_sum_free_by_shifts", spy)
        want = [is_sum_free_mask(s.mask) for s in cases]
        assert [is_sum_free(s) for s in cases] == want
        below = [(s.mask & ((1 << 500) - 1)).bit_count() for s in cases]
        assert taken == [k for k in below if 16 * k <= length]
        assert 0 < len(taken) < len(cases) and 0 < sum(want) < len(cases)
        for forced in (True, False):
            monkeypatch.setattr(intset, "_shifts_cheaper", lambda *_: forced)
            assert [is_sum_free(s) for s in cases] == want

    def test_top_half_needs_no_transform(self, monkeypatch):
        # no element below max / 2 to be a smaller summand: no shift, no FFT
        def unexpected(*_):
            raise AssertionError("transform for a set with no summand")

        monkeypatch.setattr(intset, "_triple_counts", unexpected)
        for s in (top_interval(self.N), IntSet.interval(self.N, self.N // 2, self.N - 200)):
            assert is_sum_free(s)

    def test_fft_memory_is_capped(self):
        # odd elements in the first and last blocks of [2^22 - 5]: sum-free,
        # so every block pair that can reach max(s) is transformed
        n = (1 << 22) - 5
        rng = random.Random(8)
        lo = [x for x in range(1, 1 << 16, 2) if rng.random() < 0.5]
        hi = [x for x in range(n - (1 << 16), n + 1) if x % 2 and rng.random() < 0.5]
        s = IntSet(n, lo + hi)
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
        assert count_ordered_triples(s) == ref_count_ordered_triples(s)
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
        monkeypatch.setattr(intset, "BLOCK_CELLS", 5)
        # a row wider than a block is a block of its own; no rows, no block
        assert list(intset.row_blocks(5, 2)) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        assert list(intset.row_blocks(3, 7)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert list(intset.row_blocks(0, 2)) == []
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 120)
            s = IntSet(n, [x for x in range(1, n + 1) if rng.random() < 0.4])
            assert hosting_sets(s) == ref_hosting_sets(s)
            assert list(schur_triples(s)) == list(ref_schur_triples(s))

    def test_sample_at_two_million(self):
        s = sample_perturbation(2 * 10**6, 1e-3, RngSpec(11), 0)
        assert hosting_sets(s) == ref_hosting_sets(s)

    def test_counts_straddle_fft_block(self):
        # the FFT path with two blocks, so the off-diagonal pair (0, 1) runs
        b = intset.FFT_BLOCK
        rng = random.Random(10)
        for n in (b + 1, b + 5000, 2 * b - 3):
            s = IntSet(n, [x for x in range(1, n + 1) if rng.random() < 0.004] + [n])
            assert len(s) ** 2 > max(s)
            assert count_ordered_triples(s) == ref_count_ordered_triples(s)

    @settings(max_examples=150)
    @given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))))
    def test_counts_many_small_blocks(self, case):
        n, members = case
        s = IntSet(n, members)
        old = intset.FFT_BLOCK
        intset.FFT_BLOCK = 8
        try:
            assert count_ordered_triples(s) == ref_count_ordered_triples(s)
        finally:
            intset.FFT_BLOCK = old

    def test_counts_at_dispatch_boundary(self, monkeypatch):
        # |s|^2 <= max(s) counts with the pair finder, else with the FFTs
        calls = []
        block_counts = intset._block_triple_counts

        def spy(ind, top):
            calls.append(top)
            return block_counts(ind, top)

        monkeypatch.setattr(intset, "_block_triple_counts", spy)
        rng = random.Random(12)
        for k in (1, 2, 3, 7, 30):
            for top, fft in ((k * k, False), (k * k - 1, True)):
                if top < k:
                    continue
                s = IntSet(top, rng.sample(range(1, top), k - 1) + [top])
                calls.clear()
                assert count_ordered_triples(s) == ref_count_ordered_triples(s)
                assert bool(calls) == fft
        for s in (IntSet(1), IntSet(1, [1]), IntSet(7), IntSet(2, [1, 2])):
            assert count_ordered_triples(s) == ref_count_ordered_triples(s)

    def test_full_intervals_at_block_edges(self):
        # [n] has n(n-1)/2 ordered triples; a full block is the float
        # worst case, and past 2 * FFT_BLOCK windows span two blocks
        b = intset.FFT_BLOCK
        for n in (b - 1, b + 1, 3 * b + 5):
            assert count_ordered_triples(IntSet.full(n)) == n * (n - 1) // 2

    @settings(max_examples=150)
    @given(
        st.sampled_from([6, 12]),
        st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)))),
    )
    def test_spectral_counts_small_blocks(self, block, case):
        # blocks of 6 and 12 elements, whose transforms have lengths 12
        # and 24, not powers of two
        n, members = case
        s = IntSet(n, members)
        old = intset.FFT_BLOCK, intset._shifts_cheaper
        intset.FFT_BLOCK = block
        intset._shifts_cheaper = lambda *_: False
        try:
            parts = intset._block_triple_counts(intset.indicator(s), max(members, default=0))
            assert sum(count for _, count in parts) == ref_count_ordered_triples(s)
            assert count_ordered_triples(s) == ref_count_ordered_triples(s)
            assert is_sum_free(s) == is_sum_free_mask(s.mask)
        finally:
            intset.FFT_BLOCK, intset._shifts_cheaper = old

    def test_count_memory_is_capped(self):
        # odd elements in the first and last blocks of [2^22 - 5], plus 2:
        # the only triples are 2 + x = x + 2 and 1 + 1 = 2
        n = (1 << 22) - 5
        rng = random.Random(8)
        lo = [x for x in range(1, 1 << 16, 2) if rng.random() < 0.5]
        hi = [x for x in range(n - (1 << 16), n + 1) if x % 2 and rng.random() < 0.5]
        s = IntSet(n, [2] + lo + hi)
        odd = set(lo + hi)
        want = 2 * sum(x + 2 in odd for x in odd) + (1 in odd)
        tracemalloc.start()
        try:
            got = count_ordered_triples(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < FFT_MEMORY_CAP

    def test_ordered_counts_dense(self):
        rng = random.Random(9)
        n = 20000
        s = IntSet(n, [x for x in range(1, n + 1) if rng.random() < 0.03])
        assert count_ordered_triples(s) == ref_count_ordered_triples(s)


# Each kernel four times on one input in a fresh process, printing the
# minor page faults of each call (resource.getrusage).
FAULT_SCRIPT = """
import json, random, resource, sys
from schurperturb.intset import IntSet, count_ordered_triples, hosting_sets
from schurperturb.montecarlo import RngSpec, sample_perturbation

if sys.argv[1] == "count_ordered_triples":
    rng = random.Random(1)
    n = 10**5
    s = IntSet(n, (x for x in range(1, n + 1) if rng.random() < 0.03))
    kernel = count_ordered_triples
else:
    s = sample_perturbation(2 * 10**6, 1e-3, RngSpec(5), 0)
    kernel = hosting_sets
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    kernel(s)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="page faults are counted for glibc's malloc on Linux",
)
@pytest.mark.parametrize("kernel", ["count_ordered_triples", "hosting_sets"])
def test_kernels_take_no_fresh_pages_after_their_first_calls(kernel):
    # a buffer from fresh mmap pages faults in again on every call, about
    # 1,700 times for a count on a 3% subset of [10^5]; 50 allows only for
    # small allocations
    src = str(Path(intset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT, kernel], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    faults = json.loads(out.stdout)
    assert max(faults[2:]) <= 50, faults


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

    @settings(max_examples=60)
    @given(small_sets)
    def test_hosting_set_count(self, s):
        assert count_hosting_sets(s) == len(hosting_sets(s))

    def test_hosting_set_count_by_transform(self):
        # |s|^2 > max(s): the count comes from the block products
        rng = random.Random(3)
        s = IntSet(5000, [x for x in range(1, 5001) if rng.random() < 0.05])
        assert count_hosting_sets(s) == len(hosting_sets(s)) == len(ref_hosting_sets(s))

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

    def test_empty_ground_rejected(self):
        # as IntSet(0) is; the empty set of [0] was once yielded
        for n in (0, -3):
            with pytest.raises(ValueError, match="ground size"):
                list(enumerate_large_sum_free(n, 0))
