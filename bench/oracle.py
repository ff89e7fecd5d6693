"""Independent oracles for the benchmark's checks.

Nothing here calls the schurperturb package: edges come from a numpy scan
of x + y = z, colourability from an exact 0/1 feasibility problem (scipy's
HiGHS ``milp``, or exhaustive enumeration for few free elements), and the
counting oracles enumerate their objects directly.

Colours are encoded as 0 = red, 1 = blue.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

EXHAUSTIVE_FREE_LIMIT = 22
BLUE = 1


# ---------------------------------------------------------------- sums


def schur_triples(elems, n: int) -> np.ndarray:
    """All (x, y, z) with x <= y, x + y = z and x, y, z in elems, as an
    (m, 3) int64 array in ascending (x, y) order."""
    e = np.unique(np.asarray(list(elems), dtype=np.int64))
    if e.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    ind = np.zeros(n + 1, dtype=bool)
    ind[e] = True
    out = []
    step = max(1, 4_000_000 // e.size)
    for lo in range(0, e.size, step):
        x = e[lo : lo + step, None]
        z = x + e[None, :]
        ok = (e[None, :] >= x) & (z <= n)
        ok &= ind[np.minimum(z, n)]
        i, j = np.nonzero(ok)
        out.append(np.stack([x[i, 0], e[j], z[i, j]], axis=1))
    return np.concatenate(out)


def hosting_sets(elems, n: int) -> list[tuple[int, ...]]:
    """Sorted distinct 2-/3-element subsets hosting a Schur triple."""
    return sorted(
        (int(x), int(z)) if x == y else (int(x), int(y), int(z))
        for x, y, z in schur_triples(elems, n)
    )


def count_ordered_triples(elems, n: int) -> int:
    """Ordered (x, y, z) with x + y = z, all in elems."""
    t = schur_triples(elems, n)
    return int(2 * t.shape[0] - np.count_nonzero(t[:, 0] == t[:, 1]))


# ---------------------------------------------------------------- colouring
#
# Exhaustive path: with f free vertices, the 2^f colourings are the bit
# positions of Python integers. A free vertex's colour is the integer whose
# bit c is bit b of c, so an edge's monochromatic colourings are one AND
# and one OR of its vertices' integers.


class _Problem:
    """An edge list, its vertices, and the vertices whose colour is fixed."""

    def __init__(self, edges, forced_blue):
        self.edges = [tuple(e) for e in edges]
        self.verts = sorted({v for e in self.edges for v in e})
        self.fixed = {v: BLUE for v in self.verts if v in forced_blue}
        if not self.fixed and self.verts:
            # a colour swap maps proper colourings to proper colourings, so
            # the busiest vertex may be fixed red
            degree = {v: 0 for v in self.verts}
            for e in self.edges:
                for v in e:
                    degree[v] += 1
            self.fixed = {max(self.verts, key=lambda v: (degree[v], -v)): 0}
        self.free = [v for v in self.verts if v not in self.fixed]

    def monochromatic(self) -> tuple[int, list[int]]:
        """All-ones mask and, per edge, the mask of colourings in which the
        edge is monochromatic."""
        f = len(self.free)
        full = (1 << (1 << f)) - 1
        colour = {v: full * c for v, c in self.fixed.items()}
        colour.update({v: _column(f, b) for b, v in enumerate(self.free)})
        mono = []
        for e in self.edges:
            blue, red = full, 0
            for v in e:
                blue &= colour[v]
                red |= colour[v]
            mono.append(blue | (full ^ red))
        return full, mono

    def decode(self, code: int) -> dict[int, int]:
        out = dict(self.fixed)
        out.update({v: (code >> b) & 1 for b, v in enumerate(self.free)})
        return out


@lru_cache(maxsize=256)
def _column(f: int, b: int) -> int:
    """The integer whose bit c is bit b of c, for c < 2^f."""
    codes = np.arange(1 << f, dtype=np.uint32)
    bits = np.packbits(((codes >> b) & 1).astype(np.uint8), bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


def _peel(edges, forced_blue):
    """Repeatedly delete an edge through a free vertex that lies in no other
    edge: that vertex can always be coloured to break its one edge, so
    colourability is unchanged. Returns the remaining edges and the
    (vertex, edge) deletions in order."""
    incident: dict[int, set[int]] = {}
    for i, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, set()).add(i)
    alive = [True] * len(edges)
    peeled = []
    stack = [v for v, es in incident.items() if len(es) == 1 and v not in forced_blue]
    while stack:
        v = stack.pop()
        if len(incident[v]) != 1:
            continue
        (i,) = incident[v]
        alive[i] = False
        peeled.append((v, edges[i]))
        for u in edges[i]:
            incident[u].discard(i)
            if len(incident[u]) == 1 and u not in forced_blue:
                stack.append(u)
    return [e for i, e in enumerate(edges) if alive[i]], peeled


def proper_colouring(edges, forced_blue=frozenset()) -> dict[int, int] | None:
    """A colouring of the vertices of edges with no monochromatic edge and
    every forced vertex blue, or None when none exists."""
    edges = [tuple(e) for e in edges]
    core, peeled = _peel(edges, forced_blue)
    prob = _Problem(core, forced_blue)
    colouring: dict[int, int] = {}
    if len(prob.free) <= EXHAUSTIVE_FREE_LIMIT and prob.edges:
        full, mono = prob.monochromatic()
        bad = 0
        for m in mono:
            bad |= m
        good = full ^ bad
        if not good:
            return None
        colouring = prob.decode((good & -good).bit_length() - 1)
    elif prob.edges:
        colouring = _milp_colouring(prob)
        if colouring is None:
            return None
    for v, e in reversed(peeled):
        others = {colouring.setdefault(u, _default(u, forced_blue)) for u in e if u != v}
        colouring[v] = 1 - others.pop() if len(others) == 1 else 0
    for e in edges:
        for v in e:
            colouring.setdefault(v, _default(v, forced_blue))
    for e in edges:
        if len({colouring[v] for v in e}) == 1:
            raise RuntimeError(f"oracle colouring leaves {e} monochromatic")
    if any(colouring[v] != BLUE for v in colouring if v in forced_blue):
        raise RuntimeError("oracle colouring breaks a forced colour")
    return colouring


def _default(v: int, forced_blue) -> int:
    return BLUE if v in forced_blue else 0


def redundant_edges(edges, forced_blue=frozenset()) -> list[tuple[int, ...]]:
    """The edges whose deletion leaves the hypergraph uncolourable (with
    every forced vertex blue); empty iff the hypergraph is edge-minimal
    among uncolourable ones."""
    prob = _Problem(edges, forced_blue)
    if len(prob.free) > EXHAUSTIVE_FREE_LIMIT:
        return [
            e
            for k, e in enumerate(prob.edges)
            if proper_colouring(prob.edges[:k] + prob.edges[k + 1 :], forced_blue) is None
        ]
    full, mono = prob.monochromatic()
    suffix = [0] * (len(mono) + 1)
    for k in range(len(mono) - 1, -1, -1):
        suffix[k] = suffix[k + 1] | mono[k]
    out, prefix = [], 0
    for k, e in enumerate(prob.edges):
        if prefix | suffix[k + 1] == full:
            out.append(e)
        prefix |= mono[k]
    return out


def _milp_colouring(prob: _Problem) -> dict[int, int] | None:
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    index = {v: i for i, v in enumerate(prob.verts)}
    rows, cols = [], []
    for k, e in enumerate(prob.edges):
        rows.extend([k] * len(e))
        cols.extend(index[v] for v in e)
    a = coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(prob.edges), len(prob.verts))
    ).tocsr()
    lo = np.ones(len(prob.edges))
    hi = np.array([1.0 if len(e) == 2 else 2.0 for e in prob.edges])
    lb, ub = np.zeros(len(prob.verts)), np.ones(len(prob.verts))
    for v, c in prob.fixed.items():
        lb[index[v]] = ub[index[v]] = c
    res = milp(
        np.zeros(len(prob.verts)),
        constraints=LinearConstraint(a, lo, hi),
        integrality=np.ones(len(prob.verts)),
        bounds=Bounds(lb, ub),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"milp ended without a verdict: {res.message}")
    return {v: int(round(res.x[index[v]])) for v in prob.verts}


# ---------------------------------------------------------------- wickets


def wicket_count(n: int) -> int:
    """Ordered wickets in [n]: for each (x1, x2, x3 = x1 + x2), count the
    ordered triples of pairwise disjoint legs {y, y + x_i} avoiding the x's,
    with legs as bitmasks and the triple count as a matrix product."""
    total = 0
    for x1 in range(1, n + 1):
        for x2 in range(1, n + 1 - x1):
            if x1 == x2:
                continue
            xs = (1 << x1) | (1 << x2) | (1 << (x1 + x2))
            legs = []
            for x in (x1, x2, x1 + x2):
                masks = [(1 << y) | (1 << (y + x)) for y in range(1, n - x + 1)]
                legs.append(np.array([m for m in masks if not m & xs], dtype=np.uint64))
            if all(leg.size for leg in legs):
                total += _disjoint_leg_triples(*legs)
    return total


def wicket_counts_containing(sets, n: int) -> list[int]:
    """For each set u in sets, the ordered wickets in [n] whose entry set
    contains u. Per (x1, x2) the legs are bitmasks as in wicket_count; the
    elements of u outside {x1, x2, x3} must lie in the legs, so the leg
    holding the least of them is fixed in turn and the other two legs are
    counted by a disjointness and cover test over all their pairs."""
    masks = [sum(1 << v for v in set(u)) for u in sets]
    totals = [0] * len(sets)
    for x1 in range(1, n + 1):
        for x2 in range(1, n + 1 - x1):
            if x1 == x2:
                continue
            xs = (1 << x1) | (1 << x2) | (1 << (x1 + x2))
            rests = [m & ~xs for m in masks]
            if all(r.bit_count() > 6 for r in rests):
                continue
            legs = []
            for x in (x1, x2, x1 + x2):
                leg = [(1 << y) | (1 << (y + x)) for y in range(1, n - x + 1)]
                legs.append(np.array([m for m in leg if not m & xs], dtype=np.uint64))
            if not all(leg.size for leg in legs):
                continue
            for k, rest in enumerate(rests):
                if rest.bit_count() > 6:
                    continue
                if rest == 0:
                    totals[k] += _disjoint_leg_triples(*legs)
                    continue
                low, r = np.uint64(rest & -rest), np.uint64(rest)
                for i in range(3):
                    a, b = (legs[j] for j in range(3) if j != i)
                    for m in legs[i][(legs[i] & low) != 0]:
                        aa, bb = a[(a & m) == 0], b[(b & m) == 0]
                        ab = aa[:, None] | bb[None, :]
                        ok = ((aa[:, None] & bb[None, :]) == 0) & (((ab | m) & r) == r)
                        totals[k] += int(np.count_nonzero(ok))
    return totals


def _disjoint_leg_triples(l1, l2, l3) -> int:
    d12 = ((l1[:, None] & l2[None, :]) == 0).astype(np.int64)
    d13 = ((l1[:, None] & l3[None, :]) == 0).astype(np.int64)
    d23 = ((l2[:, None] & l3[None, :]) == 0).astype(np.int64)
    return int(np.sum(d12 * (d13 @ d23.T)))


# ---------------------------------------------------------------- H_A


def _hosts(a: int, u: int, v: int) -> bool:
    return len({a, u, v}) == 3 and (u + v == a or a + u == v or a + v == u)


def ha_edges(base, n: int) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Edges of H_A as (red pair, blue pair): both pairs host a
    nondegenerate Schur triple with one common target in base."""
    edges = set()
    for a in base:
        pairs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if _hosts(a, u, v)
        ]
        edges.update((rp, bp) for rp in pairs for bp in pairs)
    return edges


def ha_stats(base, n: int) -> dict[str, float]:
    """Edge count, average degree and the maximum j-degrees of H_A, by
    enumerating its edges."""
    edges = ha_edges(base, n)
    degree = {2: {}, 3: {}}
    for rp, bp in edges:
        verts = sorted([(x, "R") for x in rp] + [(x, "B") for x in bp])
        for j in (2, 3):
            for sigma in combinations(verts, j):
                degree[j][sigma] = degree[j].get(sigma, 0) + 1
    e = len(edges)
    return {
        "edge_count": e,
        "average_degree": 4 * e / (2 * n),
        "max_pair_degree": max(degree[2].values(), default=0),
        "max_triple_degree": max(degree[3].values(), default=0),
        "max_quad_degree": 1 if e else 0,
    }
