"""The 4-uniform colouring hypergraph on two copies of [n], its degree
statistics, container records and the compatibility relation.

Vertices are (element, side) with side "R" or "B". An edge is a red pair
and a blue pair that both form a nondegenerate hosting set with a common
target element of the base set; the full target list (one or two elements)
is kept on the edge.

Stats come in two exact flavours: ha_stats walks a materialized edge list,
ha_stats_fast computes the same numbers analytically from (A, n) so that
million-edge instances never need materializing. The two agree everywhere
they are both feasible (cross-checked in tests). ha_stats and
codegree_delta_exact share one count of the edges through each j-set of
vertices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .intset import IntSet, count_ordered_triples
from .solver import BLUE, RED, ColourConstraint, Status, find_schur_colouring

Edge = tuple[frozenset[int], frozenset[int], tuple[int, ...]]


@dataclass
class ColouringHypergraph:
    n: int
    base: IntSet
    edges: list[Edge]


@dataclass(frozen=True)
class HAStats:
    edge_count: int
    average_degree: float
    max_pair_degree: int
    max_triple_degree: int
    max_quad_degree: int


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
    for a in a_set:
        if a > n:
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
    return [(e, RED) for e in rp] + [(e, BLUE) for e in bp]


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


# Cells (rows x (n + 1)) of one row block of ha_stats_fast's cross-colour
# matrix, and of one chunk of its shared-pair sums.
HA_BLOCK_CELLS = 1 << 18


def _pair_counts(a: np.ndarray, n: int) -> np.ndarray:
    """k_a: the number of hosting pairs of each target a."""
    return (a - 1) // 2 + (n - a) - (a <= n - a)


def _double_pairs(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of targets a > a2 with a common hosting pair {u, v}, as
    index arrays (i, j) into a and the arrays u < v: it exists iff a - a2
    is even, a != 3 a2 and v = (a + a2) / 2 <= n."""
    i, j = np.nonzero(a[:, None] > a[None, :])
    big, small = a[i], a[j]
    ok = ((big - small) % 2 == 0) & (big != 3 * small) & (big + small <= 2 * n)
    i, j = i[ok], j[ok]
    return i, j, (a[i] - a[j]) // 2, (a[i] + a[j]) // 2


def _elem_pair_degrees(a: np.ndarray, n: int) -> np.ndarray:
    """c[i, e] = number of hosting pairs of a[i] containing element e, as an
    |a| x (n + 1) int8 matrix (entries 0..3)."""
    a = a[:, None]
    e = np.arange(n + 1)[None, :]
    c = ((e >= 1) & (e <= a - 1) & (a != 2 * e)).astype(np.int8)
    c += (e >= 1) & (e + a <= n) & (e != a)
    c += (e - a >= 1) & (e != 2 * a)
    return c


def ha_stats_fast(a_set: IntSet, n: int) -> HAStats:
    """Exact stats computed analytically, without materializing edges.

    With C the |A| x (n + 1) matrix of _elem_pair_degrees, the number of
    edges through the cross-colour vertex pair ((x, R), (z, B)) is
    (C^T C)[x, z] minus the shared hosting pairs {u, v} (one per double
    target pair) with x, z in {u, v}. Its maximum is taken over row blocks
    of at most HA_BLOCK_CELLS cells of the upper triangle (the matrix is
    symmetric), each one float64 BLAS product; the entries are integers of
    at most 9 |A| < 2^53, so the products are exact. No (n + 1)^2 array
    exists: time O(|A| n^2) flops plus O(|A|^2 n) for the shared pairs,
    memory O(|A| n + HA_BLOCK_CELLS) (under 20 MB at n = 2000, |A| = 45).
    """
    a = np.array(a_set.elements(), dtype=np.int64)
    if not a.size:
        return HAStats(0, 0.0, 0, 0, 0)
    k = _pair_counts(a, n)
    i, j, u, v = _double_pairs(a, n)
    e = sum(v * v for v in k.tolist()) - len(i)  # Python ints: exact at any n

    # same-colour pair degree: k_a, or k_a + k_a2 - 1 on a shared pair
    d2_same = int(max(k.max(initial=0), (k[i] + k[j] - 1).max(initial=0)))

    c = _elem_pair_degrees(a, n)
    rows = max(1, HA_BLOCK_CELLS // (n + 1))
    d2_cross = 0
    if e:
        cf = c.astype(np.float64)
        shared_x = np.concatenate([u, u, v, v])
        shared_z = np.concatenate([u, v, u, v])
        for lo in range(0, n + 1, rows):
            hi = min(n + 1, lo + rows)
            block = cf[:, lo:hi].T @ cf[:, lo:]
            sel = (shared_x >= lo) & (shared_x < hi) & (shared_z >= lo)
            np.subtract.at(block, (shared_x[sel] - lo, shared_z[sel] - lo), 1)
            d2_cross = max(d2_cross, int(block.max()))
    delta2 = max(d2_same, d2_cross)

    delta3 = int(c[k > 0].max(initial=0))
    for lo in range(0, len(i), rows):
        vec = c[i[lo : lo + rows]] + c[j[lo : lo + rows]]
        r = np.arange(len(vec))
        vec[r, u[lo : lo + rows]] -= 1
        vec[r, v[lo : lo + rows]] -= 1
        delta3 = max(delta3, int(vec.max()))

    return HAStats(
        edge_count=e,
        average_degree=4 * e / (2 * n),
        max_pair_degree=delta2,
        max_triple_degree=delta3,
        max_quad_degree=1 if e else 0,
    )


def codegree_delta(stats: HAStats, n: int, tau: float, d: float | None = None) -> float:
    """Container codegree function with the per-vertex sums relaxed to
    N * Delta_j; decreasing in tau. d overrides the average degree."""
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    deltas = {
        2: stats.max_pair_degree,
        3: stats.max_triple_degree,
        4: stats.max_quad_degree,
    }
    if all(v == 0 for v in deltas.values()):
        return 0.0
    if d is None:
        d = stats.average_degree
    if d <= 0:
        raise ValueError("average degree must be positive")
    weights = {2: 1.0, 3: 0.5, 4: 0.125}  # 2^-binom(j-1, 2)
    return 32 * sum(w * deltas[j] / (tau ** (j - 1) * d) for j, w in weights.items())


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


@dataclass(frozen=True)
class ContainerLike:
    """A container as a pair of allowed-red / allowed-blue subsets of [n]."""

    n: int
    red_side: IntSet
    blue_side: IntSet

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContainerLike":
        n = data["n"]
        return cls(n, IntSet(n, data["red"]), IntSet(n, data["blue"]))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "red": self.red_side.elements(),
                "blue": self.blue_side.elements(),
            },
            sort_keys=True,
        )


def partition_by_container(c: ContainerLike) -> tuple[IntSet, IntSet, IntSet, IntSet]:
    """(missing, red-only, blue-only, two-coloured); a partition of [n]."""
    full = IntSet.full(c.n)
    red = c.red_side
    blue = c.blue_side
    m = full.difference(red.union(blue))
    r = red.difference(blue)
    b = blue.difference(red)
    t = red.intersection(blue)
    return m, r, b, t


def container_case(c: ContainerLike, epsilon: float) -> str:
    """CaseI: many missing elements; CaseII: a colour class rich in
    triples; CaseIII: everything else."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    m, r, b, _ = partition_by_container(c)
    n = c.n
    if len(m) >= epsilon * n:
        return "CaseI"
    if (
        count_ordered_triples(r) >= epsilon * n**2
        or count_ordered_triples(b) >= epsilon * n**2
    ):
        return "CaseII"
    return "CaseIII"


class Compatibility(Enum):
    COMPATIBLE = "compatible"
    INCOMPATIBLE = "incompatible"
    UNKNOWN = "unknown"


@dataclass
class CompatibilityOutcome:
    status: Compatibility
    witness: object | None  # Colouring when compatible


def is_compatible(
    a_set: IntSet, p_set: IntSet, c: ContainerLike, budget: int = 10**7
) -> CompatibilityOutcome:
    """Does some Schur colouring of a_set u p_set fit inside the container?"""
    union = a_set.union(p_set)
    allowed: dict[int, frozenset[str]] = {}
    for e in union:
        cols = set()
        if e in c.red_side:
            cols.add(RED)
        if e in c.blue_side:
            cols.add(BLUE)
        if not cols:
            return CompatibilityOutcome(Compatibility.INCOMPATIBLE, None)
        allowed[e] = frozenset(cols)
    outcome = find_schur_colouring(union, ColourConstraint(allowed), budget)
    if outcome.status is Status.COLOURABLE:
        return CompatibilityOutcome(Compatibility.COMPATIBLE, outcome.witness)
    if outcome.status is Status.NOT_COLOURABLE:
        return CompatibilityOutcome(Compatibility.INCOMPATIBLE, None)
    return CompatibilityOutcome(Compatibility.UNKNOWN, None)


def claim48_density_witness(c: ContainerLike) -> tuple[int, str] | None:
    """Search eta in [ceil(n/2), n] for a colour class of density at least
    9/20 on [eta]; smallest witnessing eta wins, red before blue on ties."""
    _, r, b, _ = partition_by_container(c)
    n = c.n
    eta = np.arange((n + 1) // 2, n + 1)
    hits = []
    for side in (r, b):
        ind = np.zeros(n + 1, dtype=np.int64)
        ind[side.elements()] = 1
        hits.append(20 * np.cumsum(ind)[eta] >= 9 * eta)
    first = np.flatnonzero(hits[0] | hits[1])
    if not first.size:
        return None
    i = int(first[0])
    return int(eta[i]), "R" if hits[0][i] else "B"
