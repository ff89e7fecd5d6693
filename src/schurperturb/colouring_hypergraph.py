"""The 4-uniform colouring hypergraph on two copies of [n], its degree
statistics, container records and the compatibility relation.

Vertices are (element, side) with side "R" or "B". An edge is a red pair
and a blue pair that both form a nondegenerate hosting set with a common
target element of the base set.

ha_stats_fast computes the degree statistics analytically from (A, n), so
that million-edge instances are never materialized; it takes its row
blocks from intset.row_blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .intset import IntSet, count_ordered_triples, row_blocks
from .solver import DEFAULT_BUDGET, ColourConstraint, SolveOutcome, find_schur_colouring


@dataclass(frozen=True)
class HAStats:
    edge_count: int
    average_degree: float
    max_pair_degree: int
    max_triple_degree: int
    max_quad_degree: int


def _check_base(a_set: IntSet, n: int) -> None:
    if a_set.mask >> (n + 1):
        raise ValueError("base set must live inside [1, n]")


def _pair_counts(a: np.ndarray, n: int) -> np.ndarray:
    """k_a: the number of hosting pairs of each target a."""
    return (a - 1) // 2 + (n - a) - (a <= n - a)


def _double_pairs(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of targets a > a2 with a common hosting pair {u, v}, as
    index arrays (i, j) into the ascending array a and the arrays u < v: it
    exists iff a - a2 is even, a != 3 a2 and v = (a + a2) / 2 <= n. Rows
    of targets a are taken in row_blocks."""
    i, j = [], []
    for b in row_blocks(a.size, a.size):
        big = a[b, None]
        bi, bj = np.nonzero((big > a) & ((big - a) % 2 == 0) & (big != 3 * a) & (big + a <= 2 * n))
        i.append(b.start + bi)
        j.append(bj)
    i, j = np.concatenate(i), np.concatenate(j)
    return i, j, (a[i] - a[j]) // 2, (a[i] + a[j]) // 2


def _elem_pair_degrees(a: np.ndarray, n: int, e: np.ndarray) -> np.ndarray:
    """c[i, t] = number of hosting pairs of a[i] containing the element
    e[t], as an |a| x |e| int8 matrix: one from [1, a - 1] but a / 2, one
    from [1, n - a] but a, one from [a + 1, n] but 2a, so at most 2."""
    a = a[:, None]
    e = e[None, :]
    c = ((e >= 1) & (e <= a - 1) & (a != 2 * e)).astype(np.int8)
    c += (e >= 1) & (e <= n - a) & (e != a)
    c += (e >= a + 1) & (e != 2 * a)
    return c


def _runs(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts and sizes of the runs of [0, n] on which every row of
    _elem_pair_degrees is constant: cut at the ends of each target's three
    intervals and on both sides of its excluded points a / 2, a and 2a.
    At most min(n + 1, 9 |a| + 2) runs (no np.unique: it imports numpy.ma)."""
    half = a[a % 2 == 0] // 2
    cuts = np.concatenate([[0, 1], a, a + 1, n - a + 1, half, half + 1, 2 * a, 2 * a + 1])
    starts = np.flatnonzero(np.bincount(cuts[cuts <= n], minlength=n + 1))
    return starts, np.diff(starts, append=n + 1)


def _gram_row_blocks(c: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """G = c^T c for an int8 matrix c whose rows change value at few
    columns, exactly in int64, as row blocks (r0, G[r0 : r0 + rows]) of at
    most intset.BLOCK_CELLS cells (row_blocks).

    With d a row's differences along the columns, the 2-D difference of
    its outer product is d d^T: one signed corner per pair of changes, so
    each row adds a few rectangles. A block sums its rows' corners, then
    prefix-sums them down (from the sum of all rows above) and across, in
    time O(corners + q^2) overall for q columns.
    """
    q = c.shape[1]
    d = c.copy()
    d[:, 1:] -= c[:, :-1]
    t, col = np.nonzero(d)
    count = np.bincount(t, minlength=len(c))
    slot = np.arange(t.size) - np.repeat(np.cumsum(count) - count, count)
    pos = np.zeros((len(c), count.max(initial=0)), dtype=np.int64)
    val = np.zeros_like(pos)
    pos[t, slot] = col
    val[t, slot] = d[t, col]
    weight = (val[:, :, None] * val[:, None, :]).ravel()
    corner = (pos[:, :, None] * q + pos[:, None, :]).ravel()
    keep = weight != 0
    corner, weight = corner[keep], weight[keep]
    order = np.argsort(corner, kind="stable")
    corner, weight = corner[order], weight[order]

    above = np.zeros(q, dtype=np.int64)
    for b in row_blocks(q, q):
        r0, r1 = b.start, b.stop
        lo, hi = np.searchsorted(corner, [r0 * q, r1 * q])
        g = np.zeros((r1 - r0, q), dtype=np.int64)
        np.add.at(g.ravel(), corner[lo:hi] - r0 * q, weight[lo:hi])
        np.cumsum(g, axis=0, out=g)
        g += above
        above = g[-1].copy()
        np.cumsum(g, axis=1, out=g)
        yield r0, g


def _cross_pair_degree(
    c: np.ndarray, starts: np.ndarray, sizes: np.ndarray, u: np.ndarray, v: np.ndarray, ru: np.ndarray, rv: np.ndarray
) -> int:
    """The largest (C^T C)[x, z] less the shared pairs {u, v} with x, z in
    {u, v}, over all x, z, from the row blocks of the run Gram matrix G of
    c (_gram_row_blocks); ru <= rv are the runs of u < v.

    A shared pair corrects the cells (u, v) and (v, u) by 1, since no
    other shared pair has that {u, v}, and each cell (x, x) by the number
    of shared pairs holding x. A run pair with an uncorrected cell keeps G
    as its largest entry. One whose cells are all corrected has G less 1
    (its cells off the diagonal, corrected by 1), or less that number for
    a run of one element x and the cell (x, x). G and the corrections are
    symmetric, so only run pairs on and above the diagonal are taken.
    """
    q = sizes.size
    held = np.bincount(np.concatenate([u, v]))
    rx = np.searchsorted(starts, np.flatnonzero(held), "right") - 1
    same = ru == rv
    key = ru[~same] * q + rv[~same]
    key.sort()
    first = np.flatnonzero(np.diff(key, prepend=-1))
    hits = np.diff(first, append=key.size)
    key = key[first]
    full = key[hits == sizes[key // q] * sizes[key % q]]  # ascending, row-major
    # a run pair on the diagonal holds (x, x) and both (u, v) and (v, u)
    hits = np.bincount(rx, minlength=q) + 2 * np.bincount(ru[same], minlength=q)
    diag = np.flatnonzero(hits == sizes * sizes)
    less = np.where(sizes[diag] == 1, held[starts[diag]], 1)

    best = 0
    for r0, g in _gram_row_blocks(c):
        r1 = r0 + len(g)
        lo, hi = np.searchsorted(full, [r0 * q, r1 * q])
        rows, cols = np.divmod(full[lo:hi], q)
        g[rows - r0, cols] -= 1
        lo, hi = np.searchsorted(diag, [r0, r1])
        g[diag[lo:hi] - r0, diag[lo:hi]] -= less[lo:hi]
        best = max(best, int(np.triu(g, r0).max()))
    return best


def ha_stats_fast(a_set: IntSet, n: int) -> HAStats:
    """Exact stats computed analytically, without materializing edges.

    With C the |A| x (n + 1) matrix of _elem_pair_degrees, the number of
    edges through the cross-colour vertex pair ((x, R), (z, B)) is
    (C^T C)[x, z] minus the shared hosting pairs {u, v} (one per double
    target pair) with x, z in {u, v}. Every column of C is constant on
    each of the q runs of _runs, so (C^T C)[x, z] = G[run(x), run(z)] for
    the q x q Gram matrix G of the runs, summed exactly in int64 from a few
    signed rectangles per target and taken in row blocks of at most
    intset.BLOCK_CELLS cells (_gram_row_blocks); the corrections touch at
    most 4 cells per shared pair (_cross_pair_degree). The triple degrees
    scan the shared pairs over the runs in row_blocks. Time
    O(|A| n + q^2) plus O(|A|^2 q) for the shared pairs at most, memory
    O(|A| n + |A|^2 + BLOCK_CELLS), with q <= min(n + 1, 9 |A| + 2),
    and no floating-point product: at n = 2000, 2 ms and 1 MB for
    |A| = 45 and 0.14 s and 28 MB for |A| = 1000 on a 2-core x86 machine.
    """
    _check_base(a_set, n)
    a = np.array(a_set.elements(), dtype=np.int64)
    if not a.size:
        return HAStats(0, 0.0, 0, 0, 0)
    k = _pair_counts(a, n)
    i, j, u, v = _double_pairs(a, n)
    e = sum(x * x for x in k.tolist()) - len(i)  # Python ints: exact at any n

    # same-colour pair degree: k_a, or k_a + k_a2 - 1 on a shared pair
    d2_same = int(max(k.max(initial=0), (k[i] + k[j] - 1).max(initial=0)))

    starts, sizes = _runs(a, n)
    q = starts.size
    c = _elem_pair_degrees(a, n, starts)
    ru, rv = (np.searchsorted(starts, w, "right") - 1 for w in (u, v))
    d2_cross = _cross_pair_degree(c, starts, sizes, u, v, ru, rv) if e else 0
    delta2 = max(d2_same, d2_cross)

    # a triple {(u, R), (v, R), (z, B)} of a shared pair: C[i, z] + C[j, z],
    # less 1 for z in {u, v}, which lowers a run's maximum only when the
    # run holds nothing else; no sum of two rows of c exceeds twice its
    # largest entry, so a pair that reaches that ends the scan
    delta3 = int(c[k > 0].max(initial=0))
    less_u = (sizes[ru] == 1 + (ru == rv)).astype(np.int8)
    less_v = ((ru != rv) & (sizes[rv] == 1)).astype(np.int8)
    for part in row_blocks(len(i), q):
        if delta3 == 2 * c.max():
            break
        vec = c[i[part]] + c[j[part]]
        r = np.arange(len(vec))
        vec[r, ru[part]] -= less_u[part]
        vec[r, rv[part]] -= less_v[part]
        delta3 = max(delta3, int(vec.max()))

    return HAStats(
        edge_count=e,
        average_degree=4 * e / (2 * n),
        max_pair_degree=delta2,
        max_triple_degree=delta3,
        max_quad_degree=1 if e else 0,
    )


def codegree_delta(stats: HAStats, tau: float) -> float:
    """Container codegree function with the per-vertex sums relaxed to
    N * Delta_j; decreasing in tau."""
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    deltas = {
        2: stats.max_pair_degree,
        3: stats.max_triple_degree,
        4: stats.max_quad_degree,
    }
    if all(v == 0 for v in deltas.values()):
        return 0.0
    d = stats.average_degree
    if d <= 0:
        raise ValueError("average degree must be positive")
    weights = {2: 1.0, 3: 0.5, 4: 0.125}  # 2^-binom(j-1, 2)
    return 32 * sum(w * deltas[j] / (tau ** (j - 1) * d) for j, w in weights.items())


@dataclass(frozen=True)
class ContainerLike:
    """A container as a pair of allowed-red / allowed-blue subsets of [n]."""

    n: int
    red_side: IntSet
    blue_side: IntSet

    def constraint(self) -> ColourConstraint:
        """Each colour barred outside its side, above n included."""
        return ColourConstraint(no_red=~self.red_side.mask, no_blue=~self.blue_side.mask)

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


def is_compatible(
    a_set: IntSet, p_set: IntSet, c: ContainerLike, budget: int = DEFAULT_BUDGET
) -> SolveOutcome:
    """Does some Schur colouring of a_set u p_set fit inside the container?
    COLOURABLE with such a colouring, NOT_COLOURABLE when none exists."""
    return find_schur_colouring(a_set.union(p_set), c.constraint(), budget)


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
