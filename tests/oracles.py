"""Independent test oracles, written on plain ints and numpy arrays without
the library's kernels: a big-int sum-free test, an exhaustive Schur test,
the enumeration of the wickets in [n] and of the loose cycles of a
hypergraph. Masks use bit i for the element i.
"""

from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator

import numpy as np


def mask_members(mask: int) -> Iterator[int]:
    """The set bits of mask >= 0, ascending."""
    bits = bin(mask)[:1:-1]  # bit i at index i
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def is_sum_free_mask(mask: int) -> bool:
    """No x + y = z among the set bits of mask (x = y allowed): one
    big-int shift per member x finds every y with y + x in the set."""
    return not any(mask & (mask >> x) for x in mask_members(mask))


def is_schur_mask(mask: int) -> bool:
    """True iff the set of mask has no split into two sum-free classes.

    Exhaustive over the splits: members are placed in ascending order, the
    first one red (swapping the colours maps splits to splits), and a
    partial split is dropped once a class stops being sum-free, since no
    superset of that class is sum-free either.
    """
    members = [1 << v for v in mask_members(mask)]

    def split(i: int, red: int, blue: int) -> bool:
        if i == len(members):
            return True
        bit = members[i]
        return (is_sum_free_mask(red | bit) and split(i + 1, red | bit, blue)) or (
            i > 0 and is_sum_free_mask(blue | bit) and split(i + 1, red, blue | bit)
        )

    return not split(0, 0, 0)


@lru_cache(maxsize=1)
def wicket_entry_masks(n: int) -> np.ndarray:
    """The entry set of every ordered wicket in [n] (n <= 63), as uint64
    bitmasks: per (x1, x2), all triples of legs {y, y + x_i} avoiding the
    x's, kept when pairwise disjoint (the enumeration of bench/oracle.py).
    Its length is the number of ordered wickets in [n]."""
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


def is_loose_cycle(cycle) -> bool:
    """True iff the edges, in this cyclic order, form a loose cycle: at
    least 3 of them, each meeting the next in exactly one vertex, those
    connecting vertices all distinct, and edges that are not neighbours
    disjoint."""
    ell = len(cycle)
    sets = [set(e) for e in cycle]
    joints = [sets[i] & sets[(i + 1) % ell] for i in range(ell)]
    return (
        ell >= 3
        and all(len(m) == 1 for m in joints)
        and len(set().union(*joints)) == ell
        and not any(
            sets[i] & sets[j] for i, j in combinations(range(ell), 2) if j - i not in (1, ell - 1)
        )
    )


def loose_cycles(edges) -> Iterator[tuple]:
    """Every loose cycle among the edges, once each: every subset of at
    least 3 edges in every cyclic order that starts at its lowest index and
    is not the reverse of another."""
    for ell in range(3, len(edges) + 1):
        for head, *rest in combinations(range(len(edges)), ell):
            for order in permutations(rest):
                cycle = tuple(edges[i] for i in (head, *order))
                if order[0] < order[-1] and is_loose_cycle(cycle):
                    yield cycle
