"""Ground-set arithmetic over [1, n]: membership, Schur triples, 4-APs, links.

Sets are immutable and bit-indexed, so membership tests and sumset-style
scans are cheap even at n in the millions. All enumeration orders are
ascending and deterministic.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

import numpy as np

MAX_GROUND = 1 << 24

# Block length of is_sum_free's FFTs: one block pair is one real FFT of
# length 2 * FFT_BLOCK, whose input, two spectra, product and output stay
# below FFT_MEMORY_CAP bytes (measured: 20 MB at this block length).
FFT_BLOCK = 1 << 18
FFT_MEMORY_CAP = 128 * FFT_BLOCK

# Cells of one chunk of the pair finder's candidate matrix.
PAIR_CHUNK_CELLS = 1 << 20

# Largest n for which enumerate_large_sum_free will run exhaustively.
EXHAUSTIVE_SUM_FREE_LIMIT = 26


class LimitExceededError(ValueError):
    """Raised when an exhaustive enumeration is asked to exceed its limit."""


class IntSet:
    """An immutable subset of [1, n] with bitmask-backed membership.

    Bit i of the mask corresponds to the element i (bit 0 is unused).
    """

    __slots__ = ("n", "_mask", "_size")

    def __init__(self, n: int, members: Iterable[int] = ()):
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground size must be in [1, {MAX_GROUND}], got {n}")
        mask = 0
        for x in members:
            if not 1 <= x <= n:
                raise ValueError(f"element {x} outside ground interval [1, {n}]")
            mask |= 1 << x
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
        if not 1 <= x <= self.n:
            raise ValueError(f"element {x} outside [1, {self.n}]")
        return IntSet._from_mask(self.n, self._mask | (1 << x))

    def elements(self) -> list[int]:
        """The members in ascending order, decoded from the mask in one pass."""
        return np.flatnonzero(indicator(self)).tolist()

    # ---- serialization ----

    def to_json(self) -> str:
        return json.dumps(self.elements())

    @classmethod
    def from_json(cls, text: str, n: int | None = None) -> "IntSet":
        elems = json.loads(text)
        if n is None:
            n = max(elems) if elems else 1
        return cls(n, elems)

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
        """Parse "a-b,c,d-e" back into a set."""
        elems: list[int] = []
        text = text.strip()
        if text:
            for part in text.split(","):
                if "-" in part:
                    lo, hi = part.split("-")
                    elems.extend(range(int(lo), int(hi) + 1))
                else:
                    elems.append(int(part))
        if n is None:
            n = max(elems) if elems else 1
        return cls(n, elems)


def indicator(s: IntSet) -> np.ndarray:
    """Bool array whose entry x is True iff x is in s, of length max(s) + 1
    rounded up to a whole byte (length 0 for the empty set); one pass over
    the mask."""
    m = s.mask
    raw = np.frombuffer(m.to_bytes((m.bit_length() + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little").view(bool)


def _has_sum_pair(ind: np.ndarray, z: int) -> bool:
    """Exact test: some x, y >= 1 in the indicator with x + y = z."""
    return bool(np.any(ind[1:z] & ind[z - 1 : 0 : -1]))


def is_sum_free(s: IntSet) -> bool:
    """True iff no x, y in s (x = y allowed) have x + y in s.

    A set with |s|^2 <= max(s) goes to the exact pair finder of
    schur_triples (time and memory O(|s|^2 + max s)). Otherwise the
    self-convolution of the indicator counts, for each z, the ordered
    pairs with x + y = z. It is computed with float64 FFTs over blocks of
    L = min(FFT_BLOCK, 2^ceil(log2(max s + 1))) elements: for each pair of
    blocks i <= j whose sums can reach max(s), one FFT of length 2L. Every
    z in s where a block product exceeds 0.5 is confirmed by an exact scan
    before False is returned. The answer is exact: a block product
    convolves 0/1 vectors of at most L entries, so its float64 rounding
    error is below c * 2^-53 * log2(2L) * L (Higham, Accuracy and Stability
    of Numerical Algorithms, section 24.1), under 1e-6 for L <= 2^18 and
    any small constant c; a true pair gives a value >= 1, so none is
    missed, and a spurious hit is rejected by the exact scan.

    Time O(m^2 L log L) with m = ceil((max s + 1) / L) blocks, i.e.
    O(n log n) up to n = FFT_BLOCK (on a 2-core x86 machine: 17 ms at
    n = 10^5, 1.8 s for the odd numbers below 2^22). Memory: the
    indicator (max s bytes) plus at most FFT_MEMORY_CAP = 32 MiB of
    transforms, whatever n is.
    """
    ind = indicator(s)
    if not ind.any():
        return True
    top = int(np.flatnonzero(ind)[-1])
    if len(s) ** 2 <= top:
        # at most |s|^2 / 2 candidate pairs: the exact pair finder is cheaper
        # than one transform of length 2 max(s)
        return _sum_pairs(s)[0].size == 0
    block = min(FFT_BLOCK, 1 << top.bit_length())
    size = 2 * block
    starts = range(0, top + 1, block)

    def spectrum(lo: int) -> np.ndarray:
        return np.fft.rfft(ind[lo : lo + block].astype(np.float64), size)

    for i, lo_i in enumerate(starts):
        if 2 * lo_i > top:
            break
        if not ind[lo_i : lo_i + block].any():
            continue
        fi = spectrum(lo_i)
        for lo_j in starts[i:]:
            lo = lo_i + lo_j
            if lo > top:
                break
            if not ind[lo_j : lo_j + block].any():
                continue
            fj = fi if lo_j == lo_i else spectrum(lo_j)
            conv = np.fft.irfft(fi * fj, size)
            window = ind[lo : lo + size]
            for k in np.flatnonzero((conv[: window.size] > 0.5) & window).tolist():
                if _has_sum_pair(ind, lo + k):
                    return False
    return True


def _sum_pairs(s: IntSet) -> tuple[np.ndarray, np.ndarray]:
    """All (x, y) with x <= y and x, y, x + y in s, as two int64 arrays in
    ascending (x, y) order.

    Only x <= max(s) / 2 can be the smaller summand, and its partners y lie
    in [x, max(s) - x]. Rows x are taken in chunks whose candidate matrix
    (x <= y and x + y in s, then np.nonzero) has at most PAIR_CHUNK_CELLS
    cells, so the working memory is O(PAIR_CHUNK_CELLS + max s) bytes and
    the time O(sum over x of |s cap [x, max s - x]|) plus the output.
    """
    ind = indicator(s)
    e = np.flatnonzero(ind)
    if e.size == 0:
        return e, e
    top = int(e[-1])
    lookup = np.zeros(top + 2, dtype=bool)  # index top + 1 stands for any z > top
    lookup[: top + 1] = ind[: top + 1]
    n_rows = int(np.searchsorted(e, top // 2, side="right"))
    xs, ys = [], []
    lo = 0
    while lo < n_rows:
        cols = e[lo : np.searchsorted(e, top - e[lo], side="right")]
        hi = min(n_rows, lo + max(1, PAIR_CHUNK_CELLS // cols.size))
        x = e[lo:hi, None]
        ok = (cols >= x) & lookup[np.minimum(x + cols, top + 1)]
        i, j = np.nonzero(ok)
        xs.append(x[i, 0])
        ys.append(cols[j])
        lo = hi
    if not xs:
        return e[:0], e[:0]
    return np.concatenate(xs), np.concatenate(ys)


def schur_triples(s: IntSet, nondegenerate_only: bool = False):
    """Yield unordered-generator triples (x, y, z), x <= y, x + y = z in s,
    in ascending (x, y) order."""
    x, y = _sum_pairs(s)
    if nondegenerate_only:
        keep = x != y
        x, y = x[keep], y[keep]
    yield from zip(x.tolist(), y.tolist(), (x + y).tolist())


def hosting_sets(s: IntSet) -> list[tuple[int, ...]]:
    """Distinct 2-/3-element subsets of s hosting a Schur triple, ascending.

    A pair x = y gives (x, 2x), any other gives (x, y, x + y); no two pairs
    give the same set. One stable sort on the integer key (first, second,
    length) reproduces Python's tuple order, where (x, 2x) comes before
    (x, 2x, 3x).
    """
    x, y = _sum_pairs(s)
    degenerate = x == y
    second = np.where(degenerate, 2 * x, y)
    key = (x * (2 * s.n + 1) + second) * 2 + ~degenerate
    order = np.argsort(key, kind="stable")
    x, second, degenerate = x[order], second[order], degenerate[order]
    out = list(zip(x.tolist(), second.tolist(), (x + y[order]).tolist()))
    for i in np.flatnonzero(degenerate).tolist():
        out[i] = out[i][:2]
    return out


def count_ordered_triples(s: IntSet, nondegenerate_only: bool = False) -> int:
    """Number of ordered (x, y, z) in s^3 with x + y = z.

    Bit y of mask & (mask >> x) is set iff y and x + y are in s, so the
    count is the sum over x in s of its popcount, minus #{x : 2x in s}
    without the degenerate triples: exact integer arithmetic, time
    O(|s| n / 64) word operations, memory O(n) bits.
    """
    mask = s.mask
    count = sum((mask & (mask >> x)).bit_count() for x in s)
    if nondegenerate_only:
        ind = indicator(s)
        doubles = 2 * np.flatnonzero(ind)
        count -= int(np.count_nonzero(ind[doubles[doubles < ind.size]]))
    return count


def count_4aps(s: IntSet) -> int:
    """Number of pairs (a, d), d >= 1, with a, a+d, a+2d, a+3d all in s."""
    mask = s.mask
    count = 0
    max_d = (s.n - 1) // 3
    for d in range(1, max_d + 1):
        m = mask & (mask >> d) & (mask >> (2 * d)) & (mask >> (3 * d))
        count += m.bit_count()
    return count


def ap_differences(s: IntSet) -> IntSet:
    """Set of d such that s contains a 4-AP with common difference d."""
    mask = s.mask
    out = 0
    max_d = (s.n - 1) // 3
    for d in range(1, max_d + 1):
        if mask & (mask >> d) & (mask >> (2 * d)) & (mask >> (3 * d)):
            out |= 1 << d
    return IntSet._from_mask(s.n, out)


def link_plus(a: IntSet, x: int) -> IntSet:
    """S^+ link: elements y of a with x + y in a."""
    if not 1 <= x <= a.n:
        raise ValueError(f"x = {x} outside [1, {a.n}]")
    mask = a.mask
    return IntSet._from_mask(a.n, mask & (mask >> x))


def link_minus(a: IntSet, x: int) -> IntSet:
    """S^- link: elements y of a with x - y in a."""
    if not 1 <= x <= a.n:
        raise ValueError(f"x = {x} outside [1, {a.n}]")
    mask = a.mask
    out = 0
    for y in a:
        if 0 < x - y <= a.n and (mask >> (x - y)) & 1:
            out |= 1 << y
    return IntSet._from_mask(a.n, out)


def link(a: IntSet, x: int) -> IntSet:
    return link_plus(a, x).union(link_minus(a, x))


def enumerate_large_sum_free(n: int, min_size: int) -> Iterator[IntSet]:
    """Every sum-free S in [n] with |S| >= min_size, by pruned backtracking.

    Refuses n above EXHAUSTIVE_SUM_FREE_LIMIT rather than sampling.
    """
    if n > EXHAUSTIVE_SUM_FREE_LIMIT:
        raise LimitExceededError(
            f"n = {n} exceeds exhaustive limit {EXHAUSTIVE_SUM_FREE_LIMIT}"
        )

    def extend(mask: int, size: int, next_elem: int):
        remaining = n - next_elem + 1
        if size + remaining < min_size:
            return
        if next_elem > n:
            if size >= min_size:
                yield mask
            return
        # skip next_elem
        yield from extend(mask, size, next_elem + 1)
        # take next_elem: since elements are added in ascending order, the
        # only new violation possible is x = y + z with y, z already in
        x = next_elem
        violation = False
        m = mask
        while m:
            lsb = m & -m
            y = lsb.bit_length() - 1
            if x - y > 0 and (mask >> (x - y)) & 1:
                violation = True
                break
            m ^= lsb
        if not violation:
            yield from extend(mask | (1 << x), size + 1, next_elem + 1)

    for mask in extend(0, 0, 1):
        yield IntSet._from_mask(n, mask)
