"""Constrained proper 2-colouring of Schur hypergraphs.

The solver does unit-style propagation (a 2-edge with one coloured endpoint
forces the other, a 3-edge with two same-coloured endpoints forces the
third) and backtracks on the uncoloured element incident to the most
unresolved edges, breaking ties by smallest value. Budget exhaustion is a
first-class outcome, never an exception.
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


def _solve_edges(
    elems: list[int],
    edges: list[tuple[int, ...]],
    constraints: ColourConstraint,
    budget: int,
) -> SolveOutcome:
    """Core search over an explicit edge list."""
    colour: dict[int, str | None] = {e: None for e in elems}
    incident: dict[int, list[tuple[int, ...]]] = {e: [] for e in elems}
    for edge in edges:
        for v in edge:
            incident[v].append(edge)

    for e in elems:
        if not constraints.colours_for(e):
            return SolveOutcome(Status.NOT_COLOURABLE, None, 0)

    nodes = 0

    def propagate(queue: list[int], trail: list[int]) -> bool:
        """Assign forced colours reachable from queue; False on conflict."""
        while queue:
            v = queue.pop()
            for edge in incident[v]:
                uncoloured = None
                free = 0
                seen: set[str] = set()
                for u in edge:
                    c = colour[u]
                    if c is None:
                        free += 1
                        if free > 1:
                            break
                        uncoloured = u
                    else:
                        seen.add(c)
                if free > 1 or len(seen) > 1:
                    continue  # nothing forced / already non-monochromatic
                if free == 0:
                    return False  # monochromatic edge
                forced = BLUE if RED in seen else RED
                if forced not in constraints.colours_for(uncoloured):
                    return False
                colour[uncoloured] = forced
                trail.append(uncoloured)
                queue.append(uncoloured)
        return True

    def assign(v: int, c: str, trail: list[int]) -> bool:
        colour[v] = c
        trail.append(v)
        return propagate([v], trail)

    def undo(trail: list[int]) -> None:
        for v in trail:
            colour[v] = None

    def pick_branch_var() -> int | None:
        best = None
        best_count = -1
        counts: dict[int, int] = {}
        for edge in edges:
            coloured = {colour[u] for u in edge if colour[u] is not None}
            if len(coloured) > 1:
                continue  # resolved
            for u in edge:
                if colour[u] is None:
                    counts[u] = counts.get(u, 0) + 1
        for v in elems:  # ascending, so ties keep the smallest element
            if colour[v] is None:
                cnt = counts.get(v, 0)
                if cnt > best_count:
                    best, best_count = v, cnt
        if best_count == 0:
            return None  # every unresolved edge is gone; leftovers are free
        return best

    def search() -> Status:
        nonlocal nodes
        v = pick_branch_var()
        if v is None:
            return Status.COLOURABLE
        for c in sorted(constraints.colours_for(v)):
            if nodes >= budget:
                return Status.BUDGET_EXCEEDED
            nodes += 1
            trail: list[int] = []
            if assign(v, c, trail):
                result = search()
                if result is not Status.NOT_COLOURABLE:
                    return result
            undo(trail)
        return Status.NOT_COLOURABLE

    # seed propagation from single-colour constraints
    trail: list[int] = []
    for e in elems:
        allowed = constraints.colours_for(e)
        if len(allowed) == 1 and colour[e] is None:
            colour[e] = next(iter(allowed))
            trail.append(e)
    if not propagate(list(trail), trail):
        return SolveOutcome(Status.NOT_COLOURABLE, None, 0)

    status = search()
    if status is Status.COLOURABLE:
        # fill unconstrained isolated leftovers deterministically
        witness = {}
        for e in elems:
            if colour[e] is None:
                allowed = sorted(constraints.colours_for(e))
                colour[e] = allowed[0]
            witness[e] = colour[e]
        return SolveOutcome(status, Colouring(witness), nodes)
    return SolveOutcome(status, None, nodes)


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
    lexicographic order; None hypergraph when the instance is colourable."""
    if constraints is None:
        constraints = ColourConstraint.free()
    elems = s.elements()
    edges = hosting_sets(s)
    total_nodes = 0

    outcome = _solve_edges(elems, edges, constraints, budget)
    total_nodes += outcome.nodes_explored
    if outcome.status is Status.COLOURABLE:
        return ObstructionResult(Status.COLOURABLE, None, total_nodes)
    if outcome.status is Status.BUDGET_EXCEEDED:
        return ObstructionResult(Status.BUDGET_EXCEEDED, None, total_nodes)

    current = list(edges)
    for edge in sorted(edges, reverse=True):
        trial = [e for e in current if e != edge]
        outcome = _solve_edges(elems, trial, constraints, budget)
        total_nodes += outcome.nodes_explored
        if outcome.status is Status.BUDGET_EXCEEDED:
            return ObstructionResult(Status.BUDGET_EXCEEDED, None, total_nodes)
        if outcome.status is Status.NOT_COLOURABLE:
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
