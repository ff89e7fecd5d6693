"""Constrained proper 2-colouring of Schur hypergraphs.

The solver does unit-style propagation (a 2-edge with one coloured endpoint
forces the other, a 3-edge with two same-coloured endpoints forces the
third) and backtracks on the uncoloured element incident to the most
unresolved edges, breaking ties by smallest value and trying blue before
red. Budget exhaustion is a first-class outcome, never an exception.

The search is iterative: an explicit stack holds one frame per open
branching decision, at most V of them for V elements, so its depth is not
limited by the interpreter's recursion limit. Memory is O(V + |E|) plus
those frames. Each edge keeps how many of its elements are red and how many
blue, and each element how many of its edges are not yet bichromatic;
colouring or uncolouring an element touches only its own edges. A node costs
O(V) to choose the branch element, plus the degrees of the elements it
colours (propagation included) and later uncolours.

`nodes_explored` counts colour trials, one per colour tried at a branch
element; `budget` is checked before each trial, so a budget of k allows
exactly k trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .intset import IntSet, hosting_sets

RED = "R"
BLUE = "B"
BOTH = frozenset((RED, BLUE))

DEFAULT_BUDGET = 10**7


class Status(Enum):
    COLOURABLE = "colourable"
    NOT_COLOURABLE = "not_colourable"
    BUDGET_EXCEEDED = "budget_exceeded"


class SchurStatus(Enum):
    SCHUR = "schur"
    NOT_SCHUR = "not_schur"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Colouring:
    assignment: dict[int, str]

    def red(self) -> set[int]:
        return {e for e, c in self.assignment.items() if c == RED}

    def blue(self) -> set[int]:
        return {e for e, c in self.assignment.items() if c == BLUE}


@dataclass
class ColourConstraint:
    """Per-element allowed-colour sets; elements not listed allow both."""

    allowed: dict[int, frozenset[str]] = field(default_factory=dict)

    def colours_for(self, e: int) -> frozenset[str]:
        return self.allowed.get(e, BOTH)

    @classmethod
    def force_blue(cls, elems) -> "ColourConstraint":
        return cls({e: frozenset((BLUE,)) for e in elems})

    @classmethod
    def free(cls) -> "ColourConstraint":
        return cls()


@dataclass
class HostingHypergraph:
    n: int
    vertices: IntSet
    edges: list[tuple[int, ...]]

    def is_three_uniform(self) -> bool:
        return all(len(e) == 3 for e in self.edges)


@dataclass
class SolveOutcome:
    status: Status
    witness: Colouring | None
    nodes_explored: int


# Colour codes inside the search: sorted((BLUE, RED)) order, so code 0 is
# tried first at every branch.
_CODE = {BLUE: 0, RED: 1}
_NAME = (BLUE, RED)


def _codes(colours: frozenset[str]) -> tuple[int, ...]:
    unknown = colours - BOTH
    if unknown:
        raise ValueError(f"unknown colours {sorted(unknown)}")
    return tuple(sorted(_CODE[c] for c in colours))


def _index(
    elems: list[int], constraints: ColourConstraint
) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """Each element's vertex index, and each vertex's allowed colour codes."""
    index = {e: i for i, e in enumerate(elems)}
    allowed = [_codes(BOTH)] * len(elems)
    for e, colours in constraints.allowed.items():
        if e in index:
            allowed[index[e]] = _codes(colours)
    return index, allowed


def _search(
    allowed: list[tuple[int, ...]],
    edges: list[tuple[int, ...]],
    budget: int,
) -> tuple[Status, list[int], int]:
    """Explicit-stack search over vertex indices 0..V-1, V = len(allowed).

    Returns (status, colour code per vertex or -1 if uncoloured, nodes).
    Each edge keeps how many of its vertices are coloured 0 and 1. key[v]
    is the number of v's incident edges not yet bichromatic, lowered by
    `coloured` while v is coloured, so the branch vertex (most unresolved
    edges, smallest index on ties) is the first maximum of key.
    """
    n_vertices = len(allowed)
    if not all(allowed):
        return Status.NOT_COLOURABLE, [], 0
    incident: list[list[int]] = [[] for _ in range(n_vertices)]
    for i, edge in enumerate(edges):
        for v in edge:
            incident[v].append(i)
    size = [len(edge) for edge in edges]
    count = ([0] * len(edges), [0] * len(edges))
    colour = [-1] * n_vertices
    coloured = len(edges) + 1  # above any vertex degree
    key = [len(inc) for inc in incident]
    trail: list[int] = []

    def propagate(pending: list[tuple[int, int]]) -> bool:
        """Colour each pending (vertex, code) and all it forces; False on a
        monochromatic edge or a forced colour the vertex does not allow.
        Every vertex on the trail has all its edge counts applied."""
        ok = True
        while ok and pending:
            v, c = pending.pop()
            if colour[v] >= 0:
                ok = colour[v] == c
                continue
            colour[v] = c
            trail.append(v)
            key[v] -= coloured
            same, other = count[c], count[c ^ 1]
            for i in incident[v]:
                k = same[i] = same[i] + 1
                if other[i]:
                    if k == 1:  # just became bichromatic: resolved
                        for u in edges[i]:
                            key[u] -= 1
                elif k == size[i]:
                    ok = False  # monochromatic
                elif k == size[i] - 1 and ok:
                    for u in edges[i]:
                        if colour[u] < 0:
                            break  # the one uncoloured vertex
                    if c ^ 1 in allowed[u]:
                        pending.append((u, c ^ 1))
                    else:
                        ok = False
        return ok

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v = trail.pop()
            c = colour[v]
            colour[v] = -1
            key[v] += coloured
            same, other = count[c], count[c ^ 1]
            for i in incident[v]:
                k = same[i] = same[i] - 1
                if k == 0 and other[i]:  # no longer bichromatic
                    for u in edges[i]:
                        key[u] += 1

    def pick_branch_var() -> int:
        """-1 when every unresolved edge is gone; leftovers are then free."""
        best = max(key, default=0)
        return key.index(best) if best > 0 else -1

    seeds = [(v, a[0]) for v, a in enumerate(allowed) if len(a) == 1]
    if not propagate(seeds[::-1]):
        return Status.NOT_COLOURABLE, colour, 0

    nodes = 0
    v = pick_branch_var()
    if v < 0:
        return Status.COLOURABLE, colour, nodes
    stack = [[v, 0, len(trail)]]  # frames: vertex, next colour position, trail mark
    while stack:
        frame = stack[-1]
        v, pos, mark = frame
        if pos == len(allowed[v]):
            stack.pop()
            if stack:
                undo(stack[-1][2])  # the parent's colour failed too
            continue
        if nodes >= budget:
            return Status.BUDGET_EXCEEDED, colour, nodes
        nodes += 1
        frame[1] = pos + 1
        if propagate([(v, allowed[v][pos])]):
            v = pick_branch_var()
            if v < 0:
                return Status.COLOURABLE, colour, nodes
            stack.append([v, 0, len(trail)])
        else:
            undo(mark)
    return Status.NOT_COLOURABLE, colour, nodes


def _solve_edges(
    elems: list[int],
    edges: list[tuple[int, ...]],
    constraints: ColourConstraint,
    budget: int,
) -> SolveOutcome:
    """Core search over an explicit edge list on the elements elems."""
    index, allowed = _index(elems, constraints)
    mapped = [tuple(map(index.__getitem__, edge)) for edge in edges]
    status, colour, nodes = _search(allowed, mapped, budget)
    if status is not Status.COLOURABLE:
        return SolveOutcome(status, None, nodes)
    # unconstrained isolated leftovers take their first allowed colour
    witness = {
        e: _NAME[c if c >= 0 else allowed[v][0]]
        for v, (e, c) in enumerate(zip(elems, colour))
    }
    return SolveOutcome(status, Colouring(witness), nodes)


def find_schur_colouring(
    s: IntSet,
    constraints: ColourConstraint | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SolveOutcome:
    """Search for a total colouring of s with no monochromatic hosting set."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if constraints is None:
        constraints = ColourConstraint.free()
    return _solve_edges(s.elements(), hosting_sets(s), constraints, budget)


def is_schur(s: IntSet, budget: int = DEFAULT_BUDGET) -> SchurStatus:
    outcome = find_schur_colouring(s, None, budget)
    if outcome.status is Status.NOT_COLOURABLE:
        return SchurStatus.SCHUR
    if outcome.status is Status.COLOURABLE:
        return SchurStatus.NOT_SCHUR
    return SchurStatus.UNKNOWN


def validate_colouring(s: IntSet, c: Colouring) -> list[tuple[int, ...]]:
    """The monochromatic hosting sets of s under c; empty iff c is Schur."""
    missing = [e for e in s if e not in c.assignment]
    if missing:
        raise ValueError(f"colouring misses elements {missing[:5]}")
    bad = []
    for edge in hosting_sets(s):
        colours = {c.assignment[v] for v in edge}
        if len(colours) == 1:
            bad.append(edge)
    return bad


@dataclass
class ObstructionResult:
    status: Status  # NOT_COLOURABLE carries the obstruction
    hypergraph: HostingHypergraph | None
    nodes_explored: int


def minimal_obstruction(
    s: IntSet,
    constraints: ColourConstraint | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ObstructionResult:
    """Edge-minimal uncolourable sub-hypergraph, by deletion in descending
    lexicographic order; None hypergraph when the instance is colourable.
    The element index and the index-mapped edges are built once, and each
    deletion trial is one search over the edges still kept."""
    if constraints is None:
        constraints = ColourConstraint.free()
    elems = s.elements()
    index, allowed = _index(elems, constraints)
    edges = hosting_sets(s)
    mapped = {edge: tuple(map(index.__getitem__, edge)) for edge in edges}
    total_nodes = 0

    status, _, nodes = _search(allowed, list(mapped.values()), budget)
    total_nodes += nodes
    if status is not Status.NOT_COLOURABLE:
        return ObstructionResult(status, None, total_nodes)

    current = list(edges)
    for edge in sorted(edges, reverse=True):
        trial = [e for e in current if e != edge]
        status, _, nodes = _search(allowed, [mapped[e] for e in trial], budget)
        total_nodes += nodes
        if status is Status.BUDGET_EXCEEDED:
            return ObstructionResult(Status.BUDGET_EXCEEDED, None, total_nodes)
        if status is Status.NOT_COLOURABLE:
            current = trial
    hg = HostingHypergraph(n=s.n, vertices=s, edges=current)
    return ObstructionResult(Status.NOT_COLOURABLE, hg, total_nodes)


@dataclass
class HminReport:
    uniform3: bool
    one_base_per_edge: bool
    linear: bool


def check_hmin_properties(h: HostingHypergraph, base: IntSet) -> HminReport:
    uniform3 = all(len(e) == 3 for e in h.edges)
    one_base = all(sum(1 for v in e if v in base) <= 1 for e in h.edges)
    linear = True
    for i, e in enumerate(h.edges):
        se = set(e)
        for f in h.edges[i + 1 :]:
            if len(se.intersection(f)) > 1:
                linear = False
                break
        if not linear:
            break
    return HminReport(uniform3, one_base, linear)


@dataclass
class LooseCycle:
    edges: list[tuple[int, ...]]
    types: list[str]  # "t1" (disjoint from base) or "t2" (one base element)
    consecutive_t2_pairs: int

    def to_json_dict(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "types": self.types,
            "consecutive_t2_pairs": self.consecutive_t2_pairs,
        }


def _edge_type(edge: tuple[int, ...], base: IntSet) -> str:
    return "t2" if any(v in base for v in edge) else "t1"


def _is_loose_cycle(edges: list[tuple[int, ...]]) -> bool:
    ell = len(edges)
    if ell < 3:
        return False
    for i in range(ell):
        for j in range(i + 1, ell):
            inter = len(set(edges[i]).intersection(edges[j]))
            adjacent = (j - i == 1) or (i == 0 and j == ell - 1)
            if adjacent and inter != 1:
                return False
            if not adjacent and inter != 0:
                return False
    return True


def _count_consecutive_t2(types: list[str]) -> int:
    ell = len(types)
    return sum(
        1 for i in range(ell) if types[i] == "t2" and types[(i + 1) % ell] == "t2"
    )


def find_loose_cycle(h: HostingHypergraph, base: IntSet) -> LooseCycle | None:
    """Find a loose cycle (>= 3 edges, consecutive sharing one vertex,
    others disjoint) by a greedy walk: from each start edge, extend through
    shared vertices until an edge touches an earlier walk edge, then trim to
    the cycle and check the loose pattern. The walk is not a complete
    search: None means no cycle was found, not that none exists."""
    if not h.is_three_uniform():
        raise ValueError("loose-cycle search requires a 3-uniform hypergraph")
    edges = h.edges
    by_vertex: dict[int, list[tuple[int, ...]]] = {}
    for e in edges:
        for v in e:
            by_vertex.setdefault(v, []).append(e)

    for start in edges:
        walk = [start]
        used = {start}
        guard = 2 * len(edges) + 4
        while len(walk) <= guard:
            last = walk[-1]
            nxt = None
            for v in last:
                for cand in by_vertex.get(v, ()):
                    if cand in used:
                        continue
                    if len(set(cand).intersection(last)) == 1:
                        nxt = cand
                        break
                if nxt:
                    break
            if nxt is None:
                break
            # does nxt close a cycle with some earlier walk edge?
            closing = None
            for r in range(len(walk) - 2, -1, -1):
                if set(nxt).intersection(walk[r]):
                    closing = r
                    break
            walk.append(nxt)
            used.add(nxt)
            if closing is not None:
                cyc = walk[closing:]
                if _is_loose_cycle(cyc):
                    types = [_edge_type(e, base) for e in cyc]
                    return LooseCycle(cyc, types, _count_consecutive_t2(types))
                break
    return None
