"""Explicit sets, colourings and pair machinery used throughout.

Includes the two extremal sum-free sets, the mod-5 non-Schur colouring,
the dense lower-bound construction with its blue/red rule, the top-interval
sparse base, the eleven-element Schur configurations, and the pair
partition of the interval used in the container density argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .intset import IntSet, l1_values, l2_values
from .solver import BLUE, RED, Colouring


def odd_set(n: int) -> IntSet:
    """Odd integers of [n]; sum-free of size ceil(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return IntSet(n, range(1, n + 1, 2))


def top_interval(n: int) -> IntSet:
    """The upper half [floor(n/2)+1, n]; sum-free of size ceil(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return IntSet.interval(n, n // 2 + 1, n)


def mod5_construction(n: int) -> tuple[IntSet, Colouring]:
    """[n] minus multiples of 5, coloured 1,4 (mod 5) red and 2,3 blue."""
    if n < 5:
        raise ValueError("n must be >= 5")
    a = IntSet(n, (x for x in range(1, n + 1) if x % 5 != 0))
    red = IntSet(n, chain(range(1, n + 1, 5), range(4, n + 1, 5)))
    return a, Colouring(red, a.difference(red))


@dataclass(frozen=True)
class DenseZeroStatement:
    """The dense lower-bound construction A = B u C with B blue, C red."""

    n: int
    t: int
    A: IntSet
    B: IntSet
    C: IntSet

    def colour_rule(self, e: int) -> str:
        """Total rule on [n]: B is blue, everything else red."""
        return BLUE if e in self.B else RED

    def colouring_for(self, s: IntSet) -> Colouring:
        """colour_rule on s."""
        return Colouring(s.difference(self.B), s.intersection(self.B))

    def c_difference_count(self) -> int:
        """Number of possible differences within the interval C."""
        return 2 * self.t - 1


def check_dense_t(n: int, t: int) -> None:
    """ValueError unless |A| = ceil(n/2) + t is a dense size of the paper,
    1 <= t and ceil(n/2) + t <= ceil(4n/5)."""
    if t < 1 or math.ceil(n / 2) + t > math.ceil(4 * n / 5):
        raise ValueError(f"require 1 <= t and ceil(n/2)+t <= ceil(4n/5); got n={n}, t={t}")


def check_sparse_s(n: int, s: int) -> None:
    """ValueError unless 1 <= s <= floor(n/2), the sizes of a sum-free top
    interval."""
    if not 1 <= s <= n // 2:
        raise ValueError(f"require 1 <= s <= floor(n/2); got n={n}, s={s}")


def dense_zero_statement(n: int, t: int) -> DenseZeroStatement:
    check_dense_t(n, t)
    lo = math.ceil((n + 1) / 2) - t
    a = IntSet.interval(n, lo, n)
    b = IntSet.interval(n, lo, n - 2 * t)
    c = IntSet.interval(n, n - 2 * t + 1, n)
    return DenseZeroStatement(n=n, t=t, A=a, B=b, C=c)


def sparse_base(n: int, s: int) -> IntSet:
    """Top-s interval [n-s+1, n]; sum-free whenever s <= floor(n/2)."""
    check_sparse_s(n, s)
    return IntSet.interval(n, n - s + 1, n)


def L1(a: int, x: int, d: int, n: int | None = None) -> IntSet:
    """Eleven-value Schur configuration built from a, x and step d."""
    if min(a, x, d) < 1:
        raise ValueError("a, x, d must be >= 1")
    values = l1_values(a, x, d)
    bound = n if n is not None else max(values)
    if max(values) > bound:
        raise ValueError(f"element {max(values)} exceeds ground size {bound}")
    return IntSet(bound, values)


def L2(a: int, x: int, d: int, n: int | None = None) -> IntSet:
    """Companion configuration; needs x > a + 3d so all values are positive."""
    if min(a, x, d) < 1:
        raise ValueError("a, x, d must be >= 1")
    if x <= a + 3 * d or x <= d:
        raise ValueError("require x > a + 3d and x > d")
    values = l2_values(a, x, d)
    bound = n if n is not None else max(values)
    if max(values) > bound:
        raise ValueError(f"element {max(values)} exceeds ground size {bound}")
    return IntSet(bound, values)


class PairKind(Enum):
    PLUS = "plus"
    MINUS = "minus"


def pair_P(x: int, d: int, kind: PairKind) -> frozenset[int]:
    """The pair {d, x+d} (plus) or {d, x-d} (minus, x != 2d)."""
    if d < 1 or x < 1:
        raise ValueError("x and d must be >= 1")
    if kind is PairKind.PLUS:
        return frozenset((d, x + d))
    if x == 2 * d:
        raise ValueError("minus pair degenerates when x = 2d")
    if x - d < 1:
        raise ValueError("minus pair needs x > d")
    return frozenset((d, x - d))


def pair_preimages(pair: frozenset[int]) -> list[tuple[int, int, PairKind]]:
    """All (x, d, kind) mapping to the pair; never more than three."""
    if len(pair) != 2:
        raise ValueError("pair must have two distinct values")
    u, v = sorted(pair)
    out = []
    # {d, x+d} with d = u, x = v-u
    if v - u >= 1:
        out.append((v - u, u, PairKind.PLUS))
    # {d, x-d} with x = u+v and d = u (x-d = v) or d = v (x-d = u)
    x = u + v
    if x != 2 * u:
        out.append((x, u, PairKind.MINUS))
    if x != 2 * v:
        out.append((x, v, PairKind.MINUS))
    return out


@dataclass(frozen=True)
class PairPartition:
    alpha: int
    eta: int
    Q: IntSet
    pairs: list[frozenset[int]]
    small_eta: bool  # below 60 the 19/20 density bound is not enforced


def claim48_partition(n: int, alpha: int) -> PairPartition:
    """Partition of almost all of [eta] into pairs forming triples with alpha.

    Below alpha <= n/2 the pairs step by alpha inside 2*alpha blocks; above,
    they are the complementary pairs {i, alpha - i}.
    """
    if not 1 <= alpha <= n:
        raise ValueError(f"alpha must be in [1, {n}]")
    if 2 * alpha <= n:
        ell = n // (2 * alpha)
        eta = 2 * alpha * ell
        pairs = []
        for j in range(ell):
            for i in range(1, alpha + 1):
                pair = frozenset((2 * alpha * j + i, 2 * alpha * j + i + alpha))
                if pair != frozenset((alpha, 2 * alpha)):
                    pairs.append(pair)
        q = IntSet(max(eta, 1), (e for e in range(1, eta + 1) if e not in (alpha, 2 * alpha)))
    else:
        eta = alpha
        removed = {alpha // 2, (alpha + 1) // 2, alpha}
        pairs = [
            frozenset((i, alpha - i)) for i in range(1, alpha // 2)
        ]
        q = IntSet(max(eta, 1), (e for e in range(1, eta + 1) if e not in removed))
    return PairPartition(alpha=alpha, eta=eta, Q=q, pairs=pairs, small_eta=eta < 60)


_NAMED = {"odd": odd_set, "top": top_interval}


def construct_by_name(name: str, n: int | None = None):
    """CLI-facing lookup: "odd", "top", "mod5", "dense0:n,t", "sparse:n,s",
    "L1:a,x,d", "L2:a,x,d". Returns an IntSet (plus colouring data where
    the construction defines one)."""
    if ":" in name:
        head, argstr = name.split(":", 1)
        args = [int(v) for v in argstr.split(",")]
        if head == "dense0":
            return dense_zero_statement(*args)
        if head == "sparse":
            return sparse_base(*args)
        if head == "L1":
            return L1(*args, n=n)
        if head == "L2":
            return L2(*args, n=n)
        raise ValueError(f"unknown construction {head!r}")
    if name == "mod5":
        if n is None:
            raise ValueError("mod5 needs a ground size")
        return mod5_construction(n)
    if name in _NAMED:
        if n is None:
            raise ValueError(f"{name} needs a ground size")
        return _NAMED[name](n)
    raise ValueError(f"unknown construction {name!r}")
