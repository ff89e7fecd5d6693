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
        m = self._mask
        raw = np.frombuffer(m.to_bytes((m.bit_length() + 7) // 8, "little"), np.uint8)
        return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()

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


def is_sum_free(s: IntSet) -> bool:
    """True iff no x, y in s (x = y allowed) have x + y in s."""
    mask = s.mask
    for x in s:
        if (mask >> x) & mask:
            return False
    return True


def schur_triples(s: IntSet, nondegenerate_only: bool = False):
    """Yield unordered-generator triples (x, y, z), x <= y, x + y = z in s."""
    mask = s.mask
    for x in s:
        # y >= x with x + y in s: bits of (mask >> x) & mask at positions y
        both = (mask >> x) & mask
        both >>= x
        while both:
            lsb = both & -both
            y = x + lsb.bit_length() - 1
            if not (nondegenerate_only and y == x):
                yield (x, y, x + y)
            both ^= lsb


def hosting_sets(s: IntSet) -> list[tuple[int, ...]]:
    """Distinct 2-/3-element subsets of s hosting a Schur triple, ascending."""
    out = set()
    for x, y, z in schur_triples(s):
        out.add((x, z) if x == y else (x, y, z))
    return sorted(out)


def count_ordered_triples(s: IntSet, nondegenerate_only: bool = False) -> int:
    """Number of ordered (x, y, z) in s^3 with x + y = z."""
    count = 0
    for x, y, _ in schur_triples(s):
        if x == y:
            if not nondegenerate_only:
                count += 1
        else:
            count += 2
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
