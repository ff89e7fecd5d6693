"""Test oracles and reference implementations, each defined once.

Independent oracles, written on plain ints and numpy arrays without the
library's kernels: a big-int sum-free test, an exhaustive Schur test, the
enumeration of the wickets in [n] and of the loose cycles of a hypergraph,
wicket recognition (is_wicket), the links of a set (link_plus, link_minus,
link), and the materialized colouring hypergraph H_A (build_HA) with its
exact degree statistics (ha_stats, codegree_delta_exact); ha_stats
judges ha_stats_fast.

References built on the library: 4-AP counts (count_4aps,
ap_differences) from intset's 4-AP start masks, the number of distinct
wicket entry sets (count_wickets_unordered) from iter_wickets, and the
solver's search on an explicit edge list of element values (_solve_edges),
which the reference deletion loop of the obstruction tests runs.

Masks use bit i for the element i; a set taken or handed back as such is
an IntSet.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator

import numpy as np

from schurperturb.colouring_hypergraph import HAStats
from schurperturb.intset import IntSet, _ap4_starts
from schurperturb.solver import ColourConstraint, SolveOutcome, _solve_mapped
from schurperturb.wickets import iter_wickets


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


def is_wicket(entries, n: int) -> bool:
    """True iff entries is an ordered wicket in [n]: nine distinct elements
    (x1, y1, z1, x2, y2, z2, x3, y3, z3) with x_i + y_i = z_i and
    x1 + x2 = x3."""
    t = tuple(entries)
    if len(t) != 9 or len(set(t)) != 9:
        return False
    if any(not 1 <= e <= n for e in t):
        return False
    x1, y1, z1, x2, y2, z2, x3, y3, z3 = t
    return (
        x1 + y1 == z1 and x2 + y2 == z2 and x3 + y3 == z3 and x1 + x2 == x3
    )


def count_wickets_unordered(s: IntSet, chi: IntSet | None = None) -> int:
    """Number of distinct 9-element entry sets supporting a wicket."""
    return len({frozenset(w) for w in iter_wickets(s, chi)})


def count_4aps(s: IntSet) -> int:
    """Number of pairs (a, d), d >= 1, with a, a+d, a+2d, a+3d all in s."""
    mask = s.mask
    return sum(_ap4_starts(mask, d).bit_count() for d in range(1, (s.n - 1) // 3 + 1))


def ap_differences(s: IntSet) -> IntSet:
    """Set of d such that s contains a 4-AP with common difference d."""
    return IntSet(s.n, [d for d in range(1, (s.n - 1) // 3 + 1) if _ap4_starts(s.mask, d)])


def link_plus(a: IntSet, x: int) -> IntSet:
    """S^+ link: elements y of a with x + y in a."""
    return IntSet(a.n, mask_members(a.mask & (a.mask >> x)))


def link_minus(a: IntSet, x: int) -> IntSet:
    """S^- link: elements y of a with x - y in a."""
    return IntSet(a.n, [y for y in mask_members(a.mask) if y < x and a.mask >> (x - y) & 1])


def link(a: IntSet, x: int) -> IntSet:
    return link_plus(a, x).union(link_minus(a, x))


# An edge of H_A: its red pair, its blue pair and its ascending targets.
Edge = tuple[frozenset[int], frozenset[int], tuple[int, ...]]


@dataclass
class ColouringHypergraph:
    n: int
    base: IntSet
    edges: list[Edge]


def hosting_pairs(a: int, n: int) -> list[frozenset[int]]:
    """Pairs {u, v} in [n] such that {a, u, v} hosts a nondegenerate
    Schur triple."""
    pairs = [frozenset((u, a - u)) for u in range(1, (a - 1) // 2 + 1)]
    pairs.extend(
        frozenset((u, u + a)) for u in range(1, n - a + 1) if u != a
    )
    return pairs


def build_HA(a_set: IntSet, n: int) -> ColouringHypergraph:
    """Materialize all edges, deduplicated as vertex 4-sets, each carrying
    its full ascending target list."""
    if a_set.mask >> (n + 1):
        raise ValueError("base set must live inside [1, n]")
    targets: dict[tuple[frozenset[int], frozenset[int]], set[int]] = {}
    for a in a_set:
        pairs = hosting_pairs(a, n)
        for rp in pairs:
            for bp in pairs:
                targets.setdefault((rp, bp), set()).add(a)
    edges = [
        (rp, bp, tuple(sorted(ts)))
        for (rp, bp), ts in sorted(
            targets.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))
        )
    ]
    return ColouringHypergraph(n=n, base=a_set, edges=edges)


def _edge_vertices(edge: Edge) -> list[tuple[int, str]]:
    rp, bp, _ = edge
    return [(e, "R") for e in rp] + [(e, "B") for e in bp]


def _j_set_degrees(h: ColouringHypergraph, j: int) -> dict[tuple, int]:
    """Number of edges containing each j-set of vertices, over the j-sets
    that some edge contains."""
    counts: dict[tuple, int] = {}
    for edge in h.edges:
        for sigma in combinations(sorted(_edge_vertices(edge)), j):
            counts[sigma] = counts.get(sigma, 0) + 1
    return counts


def ha_stats(h: ColouringHypergraph) -> HAStats:
    """Exact stats from a materialized edge list."""
    e = len(h.edges)
    deltas = {2: 0, 3: 0, 4: 1 if e else 0}
    for j in (2, 3):
        deltas[j] = max(_j_set_degrees(h, j).values(), default=0)
    return HAStats(
        edge_count=e,
        average_degree=4 * e / (2 * h.n),
        max_pair_degree=deltas[2],
        max_triple_degree=deltas[3],
        max_quad_degree=deltas[4],
    )


def codegree_delta_exact(h: ColouringHypergraph, tau: float) -> float:
    """Codegree function with the exact per-vertex maxima."""
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    if not h.edges:
        return 0.0
    big_n = 2 * h.n
    d = 4 * len(h.edges) / big_n
    sums = {}
    for j in (2, 3, 4):
        per_vertex: dict[tuple[int, str], int] = {}
        for sigma, cnt in _j_set_degrees(h, j).items():
            for v in sigma:
                per_vertex[v] = max(per_vertex.get(v, 0), cnt)
        sums[j] = sum(per_vertex.values())
    weights = {2: 1.0, 3: 0.5, 4: 0.125}
    return 32 * sum(
        w * sums[j] / (tau ** (j - 1) * big_n * d) for j, w in weights.items()
    )


def _solve_edges(
    s: IntSet,
    edges: list[tuple[int, ...]],
    constraints: ColourConstraint,
    budget: int,
) -> SolveOutcome:
    """The solver's search over an explicit edge list on the elements of s."""
    index = {e: i for i, e in enumerate(s)}
    mapped = [tuple(map(index.__getitem__, edge)) for edge in edges]
    return _solve_mapped(s, mapped, constraints, budget)
