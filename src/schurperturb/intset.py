"""Ground-set arithmetic over [1, n]: membership, sum-free tests, Schur
triples, hosting sets and 4-AP starts.

Sets are immutable and bit-indexed, so membership tests and sumset-style
scans are cheap even at n in the millions. All enumeration orders are
ascending and deterministic.
"""

from __future__ import annotations

import bisect
import operator
from typing import Iterable, Iterator

import numpy as np

MAX_GROUND = 1 << 24

# Longest block of _block_triple_counts (is_sum_free and
# count_ordered_triples): a block's spectrum is one real FFT of length
# 2 * FFT_BLOCK, 16 * (FFT_BLOCK + 1) bytes. The spectra kept for reuse, the
# window buffer and one transform's input stay below FFT_MEMORY_CAP bytes:
# four spectra are kept at this block length, all those of a set up to
# n = 10^6 (measured: 23 MB for a set at n = 10^6, 30 MB at n = 2^22 with
# the indicator included).
FFT_BLOCK = 1 << 18
FFT_MEMORY_CAP = 128 * FFT_BLOCK

# Cells (rows x width) of one row block of every batched counting kernel.
BLOCK_CELLS = 1 << 18

# glibc's malloc takes a block of at least its mmap threshold from fresh
# mmap pages and unmaps it when freed, so such a buffer faults its pages in
# again on every call. Freeing a block of at most MMAP_THRESHOLD_MAX raises
# the threshold to that block's size (and the heap's trim threshold to
# twice that) for the rest of the process; MMAP_THRESHOLD is where it starts.
MMAP_THRESHOLD = 1 << 17
MMAP_THRESHOLD_MAX = 1 << 25

# Largest n for which enumerate_large_sum_free will run exhaustively.
EXHAUSTIVE_SUM_FREE_LIMIT = 26


class LimitExceededError(ValueError):
    """Raised when an exhaustive enumeration is asked to exceed its limit."""


class IntSet:
    """An immutable subset of [1, n] with bitmask-backed membership.

    Bit i of the mask corresponds to the element i (bit 0 is unused); the
    mask is always a Python int, whatever integer type the members have.
    Building a set takes time O(n / 8 + |members|) and one (n + 1)-bit
    buffer: each member sets its bit in a bytearray, converted to the mask
    once (under 0.1 s for 5 * 10^5 members at n = 10^6 on a 2-core x86
    machine).
    """

    __slots__ = ("n", "_mask", "_size")

    def __init__(self, n: int, members: Iterable[int] = ()):
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground size must be in [1, {MAX_GROUND}], got {n}")
        buf = bytearray(n // 8 + 1)
        for x in members:
            if not 1 <= x <= n:
                raise ValueError(f"element {x} outside ground interval [1, {n}]")
            buf[x >> 3] |= 1 << (x & 7)
        mask = int.from_bytes(buf, "little")
        self.n = n
        self._mask = mask
        self._size = mask.bit_count()

    @classmethod
    def _from_mask(cls, n: int, mask: int) -> "IntSet":
        s = object.__new__(cls)
        s.n = n
        s._mask = mask
        s._size = mask.bit_count()
        return s

    @classmethod
    def interval(cls, n: int, lo: int, hi: int) -> "IntSet":
        """The interval [lo, hi] inside [1, n]; empty when lo > hi."""
        if lo > hi:
            return cls(n)
        if not (1 <= lo and hi <= n):
            raise ValueError(f"interval [{lo}, {hi}] outside [1, {n}]")
        return cls._from_mask(n, ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1))

    @classmethod
    def full(cls, n: int) -> "IntSet":
        return cls.interval(n, 1, n)

    @property
    def mask(self) -> int:
        return self._mask

    def __len__(self) -> int:
        return self._size

    def __contains__(self, x: int) -> bool:
        x = operator.index(x)
        return 0 < x <= self.n and (self._mask >> x) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntSet)
            and self.n == other.n
            and self._mask == other._mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self._mask))

    def __repr__(self) -> str:
        if self._size > 20:
            return f"IntSet(n={self.n}, size={self._size})"
        return f"IntSet(n={self.n}, {{{', '.join(map(str, self))}}})"

    def union(self, other: "IntSet") -> "IntSet":
        return IntSet._from_mask(max(self.n, other.n), self._mask | other._mask)

    def intersection(self, other: "IntSet") -> "IntSet":
        return IntSet._from_mask(max(self.n, other.n), self._mask & other._mask)

    def difference(self, other: "IntSet") -> "IntSet":
        return IntSet._from_mask(self.n, self._mask & ~other._mask)

    def with_element(self, x: int) -> "IntSet":
        x = operator.index(x)
        if not 1 <= x <= self.n:
            raise ValueError(f"element {x} outside [1, {self.n}]")
        return IntSet._from_mask(self.n, self._mask | (1 << x))

    def elements(self) -> list[int]:
        """The members in ascending order, decoded from the mask in one pass."""
        return np.flatnonzero(indicator(self)).tolist()

    # ---- serialization ----

    def to_runs(self) -> str:
        """Compact run-length form "a-b,c,d-e" (empty set -> "")."""
        parts = []
        elems = self.elements()
        i = 0
        while i < len(elems):
            j = i
            while j + 1 < len(elems) and elems[j + 1] == elems[j] + 1:
                j += 1
            parts.append(str(elems[i]) if i == j else f"{elems[i]}-{elems[j]}")
            i = j + 1
        return ",".join(parts)

    @classmethod
    def from_runs(cls, text: str, n: int | None = None) -> "IntSet":
        """Parse "a-b,c,d-e" back into a set; a run "a-b" needs a <= b."""
        elems: list[int] = []
        text = text.strip()
        if text:
            for part in text.split(","):
                if "-" in part:
                    lo, hi = map(int, part.split("-"))
                    if lo > hi:
                        raise ValueError(f"reversed run {part!r}")
                    elems.extend(range(lo, hi + 1))
                else:
                    elems.append(int(part))
        if n is None:
            n = max(elems) if elems else 1
        return cls(n, elems)


def indicator(s: IntSet) -> np.ndarray:
    """Bool array whose entry x is True iff x is in s, of length max(s) + 1
    rounded up to a whole byte (length 0 for the empty set); one pass over
    the mask."""
    return mask_bits(s.mask)


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices covering range(rows), each of at most BLOCK_CELLS
    cells of rows of the given width, or of one row when a row is wider."""
    step = max(1, BLOCK_CELLS // width)
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def mask_bits(m: int, length: int = 0) -> np.ndarray:
    """Bool array of the bits of m >= 0, bit i at entry i, of length
    max(bit_length(m), length) rounded up to a whole byte."""
    raw = np.frombuffer(m.to_bytes((max(m.bit_length(), length) + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little").view(bool)


def reserve_heap(nbytes: int) -> None:
    """Allocate and free one untouched block of nbytes, at most
    MMAP_THRESHOLD_MAX less a page; nothing below MMAP_THRESHOLD. Freeing
    it raises glibc's mmap threshold to its size and the heap's trim
    threshold to twice that, so later buffers up to that size come from
    heap pages the process keeps, not from fresh mmap pages.

    A kernel calls it before its first large buffer with the most memory
    it holds at once, which makes its page faults independent of what ran
    before it in the process. A block only the size of its largest buffer
    is not enough: the trim threshold then stays below the kernel's
    working set, and the heap hands those pages back at the end of every
    call (a count on a 3% subset of [10^5] still took 1,726 faults a call
    with a 1.6 MB block, and none with 4 MB, on a 2-core x86 machine with
    glibc 2.36). The block is never touched, so it costs no page faults,
    and it adds nothing to peak memory when the kernel later holds as much
    itself.
    """
    if nbytes >= MMAP_THRESHOLD:
        np.empty(min(nbytes, MMAP_THRESHOLD_MAX - 4096), dtype=np.uint8)


def is_sum_free(s: IntSet) -> bool:
    """True iff no x, y in s (x = y allowed) have x + y in s.

    Only x <= max(s) / 2 can be the smaller summand of a sum in s. When
    their number times the mask's words, max(s) // 64 + 1, is at most the
    transform length of _block_triple_counts, one big-int shift per such x,
    ascending, looks for every y with x + y in s, and the first hit ends
    the test (_sum_free_by_shifts): a set with a sum of small summands
    costs one shift, and a set with no element below max(s) / 2 (an
    interval's top half) none. Otherwise one shift by a = min(s) looks for
    a sum a + y = z, which rules out most sets that are not sum-free, and
    any other set is sum-free iff every part of _triple_counts is zero;
    the first nonzero part ends the test, so it takes at most
    count_ordered_triples' time and memory. On a 2-core x86 machine: 1 us
    for a dense0:300,15 trial, whose first shift finds a sum, 17 us for
    the odd numbers below 300 (75 shifts), 6 us for the top half of [10^5]
    (no shift); on the FFT path, 5 ms for a random half of the odd
    numbers below 10^5 (one transform of length 2 * 10^5) and 1.5 s for
    the odd numbers below 2^22.
    """
    mask = s.mask
    if not mask:
        return True
    top = mask.bit_length() - 1
    summands = _smaller_summands(mask)
    if _shifts_cheaper(summands.bit_count(), top, _transform_length(top)):
        return _sum_free_by_shifts(mask, summands)
    if (mask >> ((mask & -mask).bit_length() - 1)) & mask:
        return False
    return not any(_triple_counts(s))


def _smaller_summands(mask: int) -> int:
    """The bits x <= max / 2 of a nonzero mask: the only elements that can
    be the smaller summand of a sum x + y = z inside it."""
    return mask & ((2 << ((mask.bit_length() - 1) // 2)) - 1)


def _sum_free_by_shifts(mask: int, summands: int) -> bool:
    """No x in summands and y in mask with x + y in mask: one shift of mask
    per x, ascending, each x peeled off as the lowest set bit."""
    while summands:
        if (mask >> ((summands & -summands).bit_length() - 1)) & mask:
            return False
        summands &= summands - 1
    return True


def _shifts_cheaper(shifts: int, top: int, length: int) -> bool:
    """Whether that many big-int shifts of a mask whose top bit is top, of
    top // 64 + 1 machine words each, cost at most one FFT of that length:
    the choice between the shift and FFT paths of is_sum_free and
    schur_certificate."""
    return shifts * (top // 64 + 1) <= length


def _transform_length(top: int) -> int:
    """Length N = 2L of the real FFTs _block_triple_counts uses up to top:
    the block length L is the smallest 2^a 3^b 5^c >= top + 1, at most
    FFT_BLOCK."""
    return 2 * min(FFT_BLOCK, _SMOOTH_LENGTHS[bisect.bisect_left(_SMOOTH_LENGTHS, top + 1)])


def _smooth_numbers(limit: int) -> list[int]:
    """Every 2^a 3^b 5^c <= limit, ascending."""
    out = []
    p5 = 1
    while p5 <= limit:
        odd = p5
        while odd <= limit:
            out.extend(odd << a for a in range((limit // odd).bit_length()))
            odd *= 3
        p5 *= 5
    return sorted(out)


# The block lengths of _transform_length, for every top <= MAX_GROUND: a
# lookup, since is_sum_free asks for one on every call.
_SMOOTH_LENGTHS = _smooth_numbers(2 * MAX_GROUND)


def _block_triple_counts(ind: np.ndarray, top: int) -> Iterator[tuple[int, int]]:
    """The ordered triple count of the indicator up to top in parts, one
    per block pair, from float64 spectra and no inverse transform.

    The indicator is cut into blocks of L elements (_transform_length), and
    F_b is the real FFT of length N = 2L of the block starting at b. For
    each pair of non-empty blocks i <= j whose sums can reach top, the
    number of x in block i and y in block j with x + y in the set is
    sum_z (ind_i * ind_j)[z] ind[z] over the window [lo, lo + N), lo the
    sum of the two block starts. By Parseval that is
    (1/N) sum_k F_i(k) F_j(k) conj(W(k)) over the full spectrum, where the
    rfft bins 1..L-1 stand for two bins each and bins 0 and L for one. The
    window's second half is the block at lo + L shifted by L = N/2, so
    W = F_lo + (-1)^k F_{lo+L}: every spectrum is a block spectrum. Each is
    computed once per call while the kept spectra fit under
    FFT_MEMORY_CAP, and recomputed beyond that (least recently used out
    first). Yields (lo, count), the count doubled for i < j, since each
    such x, y is also y, x.

    Rounding each pair's sum once gives it exactly. The spectra of 0/1
    blocks of at most L entries carry float64 errors below c u log2(N)
    times their norms (u = 2^-53; Higham, Accuracy and Stability of
    Numerical Algorithms, section 24.1), and |F_j| <= L, ||F_i|| <=
    sqrt(N L), ||W|| <= N, so the sum is off by less than about
    sqrt(2) c u log2(N) L^2, the pairwise summation included: under 1e-3
    at L = 2^18 for c up to 5, where rounding needs only 1/2.

    Before its first transform it reserves (reserve_heap) what it holds
    at most at once: the window buffer, a spectrum per non-empty block
    while they are kept, and one transform's input. From its third call on
    in a process, whatever ran before, it then takes no fresh pages: a
    count on a 3% subset of [10^5] took about 1,700 page faults a call
    without it, and one of [10^6] 11,385. Buffers above the 32 MiB
    threshold ceiling would still come from fresh pages.
    """
    size = _transform_length(top)
    block = size // 2
    # live besides the kept spectra: the window buffer, block i's spectrum
    # once it is no longer kept, and one transform's float64 input
    keep = max(1, FFT_MEMORY_CAP // (16 * (block + 1)) - 3)
    spectra = sum(bool(ind[lo : lo + block].any()) for lo in range(0, top + 1, block))
    reserve_heap(16 * (block + 1) * (min(spectra, keep) + 1) + 8 * block)
    kept: dict[int, np.ndarray] = {}

    def spectrum(lo: int) -> np.ndarray | None:
        if lo in kept:
            kept[lo] = kept.pop(lo)  # now the most recently used
            return kept[lo]
        part = ind[lo : lo + block]
        if not part.any():
            return None
        if len(kept) >= keep:
            del kept[next(iter(kept))]
        kept[lo] = np.fft.rfft(part.astype(np.float64), size)
        return kept[lo]

    w = np.empty(block + 1, dtype=np.complex128)
    for lo_i in range(0, top // 2 + 1, block):
        fi = spectrum(lo_i)
        if fi is None:
            continue
        for lo_j in range(lo_i, top - lo_i + 1, block):
            fj = spectrum(lo_j)
            if fj is None:
                continue
            lo = lo_i + lo_j
            f_lo, f_hi = spectrum(lo), spectrum(lo + block)
            if f_lo is None and f_hi is None:
                continue
            if f_lo is None:
                w.fill(0)
            else:
                w[:] = f_lo
            if f_hi is not None:
                w[::2] += f_hi[::2]
                w[1::2] -= f_hi[1::2]
            np.conj(w, out=w)
            w *= fi
            w *= fj
            re = w.real
            pairs = round((2 * re.sum() - re[0] - re[-1]) / size)
            yield lo, pairs if lo_j == lo_i else 2 * pairs


def _sum_pairs(s: IntSet) -> tuple[np.ndarray, np.ndarray]:
    """All (x, y) with x <= y and x, y, x + y in s, as two int64 arrays in
    ascending (x, y) order.

    Only x <= max(s) / 2 can be the smaller summand, and its partners y lie
    in [x, max(s) - x]. Rows x are taken in chunks whose candidate matrix
    (x <= y and x + y in s) has at most BLOCK_CELLS cells (or one row). The
    matrix is int32 while 2 max(s) < 2^31 (always, below MAX_GROUND), and
    every sum x + y <= 2 max(s) reads the indicator clipped at its last
    entry, which lies past max(s) and is False. What it holds at most at
    once, the indicator, and a chunk's int32 sums, the intp copy of them
    that np.take reads and two bool matrices, is reserved first
    (reserve_heap). Working memory O(BLOCK_CELLS + max s) bytes (6 MB for
    a 2000-element set at n = 2 * 10^6, 2 MB of it the indicator), time
    O(sum over x of |s cap [x, max s - x]|) plus output.
    """
    mask = s.mask
    if not mask:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    top = mask.bit_length() - 1
    n_rows = _smaller_summands(mask).bit_count()
    reserve_heap(top + 2 + 14 * min(n_rows * len(s), BLOCK_CELLS))
    ind = mask_bits(mask, top + 2)
    e = np.flatnonzero(ind).astype(np.int32 if 2 * top < 2**31 else np.int64)
    xs, ys = [e[:0]], [e[:0]]
    lo = 0
    while lo < n_rows:
        cols = e[lo : np.searchsorted(e, top - e[lo], side="right")]
        hi = min(n_rows, lo + max(1, BLOCK_CELLS // cols.size))
        x = e[lo:hi, None]
        ok = (cols >= x) & np.take(ind, x + cols, mode="clip")
        # np.nonzero on the 2-D matrix takes about 10x as long
        i, j = np.divmod(np.flatnonzero(ok), cols.size)
        xs.append(x[i, 0])
        ys.append(cols[j])
        lo = hi
    return np.concatenate(xs).astype(np.int64), np.concatenate(ys).astype(np.int64)


def schur_triples(s: IntSet, nondegenerate_only: bool = False):
    """Yield unordered-generator triples (x, y, z), x <= y, x + y = z in s,
    in ascending (x, y) order."""
    x, y = _sum_pairs(s)
    if nondegenerate_only:
        keep = x != y
        x, y = x[keep], y[keep]
    yield from zip(x.tolist(), y.tolist(), (x + y).tolist())


def _hosting_columns(s: IntSet) -> tuple[np.ndarray, ...]:
    """The hosting sets of s in ascending order as four columns (first,
    second, third, is_pair): a pair x = y gives the 2-set (x, 2x), marked
    is_pair with third = 2x; any other gives (x, y, x + y). No two pairs
    give the same set.

    One stable sort on the integer key (first, second, length) reproduces
    Python's tuple order, where (x, 2x) comes before (x, 2x, 3x). Any
    increasing map of the values (such as an element's rank in s) keeps
    that order.
    """
    x, y = _sum_pairs(s)
    is_pair = x == y
    second = np.where(is_pair, 2 * x, y)
    key = (x * (2 * s.n + 1) + second) * 2 + ~is_pair
    order = np.argsort(key, kind="stable")
    return x[order], second[order], (x + y)[order], is_pair[order]


def _edge_tuples(
    first: np.ndarray, second: np.ndarray, third: np.ndarray, is_pair: np.ndarray
) -> list[tuple[int, ...]]:
    """The columns of _hosting_columns (or any map of their values) as a
    list of 2- and 3-tuples."""
    out = list(zip(first.tolist(), second.tolist(), third.tolist()))
    for i in np.flatnonzero(is_pair).tolist():
        out[i] = out[i][:2]
    return out


def hosting_sets(s: IntSet) -> list[tuple[int, ...]]:
    """Distinct 2-/3-element subsets of s hosting a Schur triple, ascending
    (see _hosting_columns)."""
    return _edge_tuples(*_hosting_columns(s))


def count_ordered_triples(s: IntSet) -> int:
    """Number of ordered (x, y, z) in s^3 with x + y = z.

    A set with |s|^2 <= max(s) counts the pairs x <= y of the pair finder,
    2 #pairs - #{x = y}, in time and memory O(|s|^2 + max s): at most
    |s|^2 / 2 candidate pairs are cheaper than one transform of length
    2 max(s). Otherwise the count is the sum of the exact block pair counts
    of _block_triple_counts, one forward FFT per block and none inverse
    while the spectra fit: time O(m L log L + m^2 L) with
    m = ceil((max s + 1) / L) blocks, i.e. O(n log n) up to n = FFT_BLOCK
    (3 ms at n = 10^5, 55 ms at n = 10^6 on a 2-core x86 machine), and
    memory max(s) bytes plus at most FFT_MEMORY_CAP = 32 MiB of spectra,
    whatever n is.
    """
    return sum(_triple_counts(s))


def count_hosting_sets(s: IntSet) -> int:
    """len(hosting_sets(s)) without listing them: one hosting set per pair
    x <= y with x + y in s, and the ordered count takes each x < y twice,
    so (ordered triples + #{x in s : 2x in s}) / 2, at
    count_ordered_triples' cost."""
    return (sum(_triple_counts(s)) + _doubles(s)) // 2


def _doubles(s: IntSet) -> int:
    """Number of x in s with 2x in s."""
    ind = indicator(s)
    doubles = 2 * np.flatnonzero(ind)
    return int(np.count_nonzero(ind[doubles[doubles < ind.size]]))


def _triple_counts(s: IntSet) -> Iterator[int]:
    """The ordered triple count of s in parts, computed one at a time: one
    part from the pair finder, or one per block pair of
    _block_triple_counts (see count_ordered_triples)."""
    mask = s.mask
    if not mask:
        return
    top = mask.bit_length() - 1
    if len(s) ** 2 <= top:
        x, y = _sum_pairs(s)
        yield 2 * x.size - int(np.count_nonzero(x == y))
        return
    for _, count in _block_triple_counts(indicator(s), top):
        yield count


def _ap4_starts(mask: int, d: int) -> int:
    """Bitmask of the a with a, a+d, a+2d, a+3d all set in mask."""
    return mask & (mask >> d) & (mask >> (2 * d)) & (mask >> (3 * d))


def l1_values(a: int, x: int, d: int) -> list[int]:
    """The eleven values of the Schur configuration L1(a, x, d): {d, x, x+d}
    and the 4-APs with step d from a and from a + x."""
    return [
        d, x, x + d,
        a, a + d, a + 2 * d, a + 3 * d,
        a + x, a + x + d, a + x + 2 * d, a + x + 3 * d,
    ]


def l2_values(a: int, x: int, d: int) -> list[int]:
    """The eleven values of the Schur configuration L2(a, x, d): {d, x-d, x}
    and the 4-APs with step d from a and from x - a - 3d."""
    return [
        d, x - d, x,
        a, a + d, a + 2 * d, a + 3 * d,
        x - a - 3 * d, x - a - 2 * d, x - a - d, x - a,
    ]


def enumerate_large_sum_free(n: int, min_size: int) -> Iterator[IntSet]:
    """Every sum-free S in [n] with |S| >= min_size, by pruned backtracking.

    Refuses n above EXHAUSTIVE_SUM_FREE_LIMIT rather than sampling, and
    n < 1 (ValueError), as IntSet does.
    """
    if n < 1:
        raise ValueError(f"ground size must be at least 1, got {n}")
    if n > EXHAUSTIVE_SUM_FREE_LIMIT:
        raise LimitExceededError(
            f"n = {n} exceeds exhaustive limit {EXHAUSTIVE_SUM_FREE_LIMIT}"
        )

    def extend(mask: int, sums: int, size: int, x: int):
        # sums has bit y + z set for every y, z in mask (y = z included);
        # elements join in ascending order, so x may join iff bit x is clear
        if size + n - x + 1 < min_size:
            return
        if x > n:
            if size >= min_size:
                yield mask
            return
        yield from extend(mask, sums, size, x + 1)
        if not (sums >> x) & 1:
            grown = mask | (1 << x)
            yield from extend(grown, sums | (grown << x), size + 1, x + 1)

    for mask in extend(0, 0, 0, 1):
        yield IntSet._from_mask(n, mask)
