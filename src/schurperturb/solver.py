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

Each coloured element records the edge that forced it. A search that ends
NOT_COLOURABLE also returns an unsat core: the union of its conflict cones,
each the conflict edge plus, transitively, the forcing edges of its
coloured elements. `minimal_obstruction` deletes edges in descending order
as the plain deletion loop does and returns the same obstruction, but
drops an edge outside the latest core without a search and keeps, without
a search, every edge that model rotation of a colourable witness proves
necessary. Its budget applies to each search that runs; a skipped deletion
never searches, so it never uses budget.
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
) -> tuple[Status, list[int], int, list[int]]:
    """Explicit-stack search over vertex indices 0..V-1, V = len(allowed).

    Returns (status, colour code per vertex or -1 if uncoloured, nodes,
    core). Each edge keeps how many of its vertices are coloured 0 and 1.
    key[v] is the number of v's incident edges not yet bichromatic, lowered
    by `coloured` while v is coloured, so the branch vertex (most unresolved
    edges, smallest index on ties) is the first maximum of key.

    reason[v] is the edge that forced v's colour, -1 for a decision or a
    constraint seed. Every conflict marks its conflict cone: the conflict
    edge and, transitively, the reasons of its coloured vertices (visited
    once per conflict). The core is the sorted indices of every marked edge
    when the status is NOT_COLOURABLE, else empty. The search tree refutes
    each decision path by propagation over its cone alone, so the core with
    the allowed colours is itself uncolourable.
    """
    n_vertices = len(allowed)
    if not all(allowed):
        return Status.NOT_COLOURABLE, [], 0, []
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
    reason = [-1] * n_vertices
    marked = [False] * len(edges)
    seen = [0] * n_vertices  # conflict stamp of the last cone walk through v
    stamp = 0

    def explain(i: int, roots) -> None:
        """Mark edge i (if >= 0) and the reason cone of the coloured roots."""
        nonlocal stamp
        stamp += 1
        if i >= 0:
            marked[i] = True
        todo = [u for u in roots if colour[u] >= 0]
        while todo:
            u = todo.pop()
            if seen[u] == stamp:
                continue
            seen[u] = stamp
            r = reason[u]
            if r >= 0:  # its other vertices were coloured before u
                marked[r] = True
                todo.extend(edges[r])

    def propagate(pending: list[tuple[int, int, int]]) -> bool:
        """Colour each pending (vertex, code, reason) and all it forces;
        False, with the conflict explained, on a monochromatic edge, a
        forced colour the vertex does not allow, or two opposite colours for
        one vertex. Every vertex on the trail has all its edge counts
        applied."""
        conflict = -1
        while pending:
            v, c, r = pending.pop()
            if colour[v] >= 0:
                # a guard, never true: a force against a seed is not
                # allowed, and colouring v against edge r's force made r
                # monochromatic, a conflict that returned first
                if colour[v] != c:
                    explain(r, [v] if r < 0 else edges[r])
                    return False
                continue
            colour[v] = c
            reason[v] = r
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
                    if conflict < 0:
                        conflict = i  # monochromatic
                elif k == size[i] - 1 and conflict < 0:
                    for u in edges[i]:
                        if colour[u] < 0:
                            break  # the one uncoloured vertex
                    if c ^ 1 in allowed[u]:
                        pending.append((u, c ^ 1, i))
                    else:
                        conflict = i
            if conflict >= 0:
                explain(conflict, edges[conflict])
                return False
        return True

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

    def refuted(nodes: int) -> tuple[Status, list[int], int, list[int]]:
        core = [i for i, m in enumerate(marked) if m]
        return Status.NOT_COLOURABLE, colour, nodes, core

    seeds = [(v, a[0], -1) for v, a in enumerate(allowed) if len(a) == 1]
    if not propagate(seeds[::-1]):
        return refuted(0)

    nodes = 0
    v = pick_branch_var()
    if v < 0:
        return Status.COLOURABLE, colour, nodes, []
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
            return Status.BUDGET_EXCEEDED, colour, nodes, []
        nodes += 1
        frame[1] = pos + 1
        if propagate([(v, allowed[v][pos], -1)]):
            v = pick_branch_var()
            if v < 0:
                return Status.COLOURABLE, colour, nodes, []
            stack.append([v, 0, len(trail)])
        else:
            undo(mark)
    return refuted(nodes)


def _solve_edges(
    elems: list[int],
    edges: list[tuple[int, ...]],
    constraints: ColourConstraint,
    budget: int,
) -> SolveOutcome:
    """Core search over an explicit edge list on the elements elems."""
    index, allowed = _index(elems, constraints)
    mapped = [tuple(map(index.__getitem__, edge)) for edge in edges]
    status, colour, nodes, _ = _search(allowed, mapped, budget)
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

    The result is that of the plain loop which, for each edge in that
    order, searches the kept edges (in hosting order) without it and drops
    it when they stay uncolourable. Deletions whose answer is already known
    are not searched:
    - core-guided: an edge outside the latest unsat core (the conflict cone
      of the last NOT_COLOURABLE search) is dropped, since the core stays
      inside the kept edges without it;
    - model rotation (Belov & Marques-Silva 2011): a COLOURABLE search
      proves its edge necessary; flipping one vertex of that edge in the
      witness that leaves exactly one other kept edge monochromatic proves
      that edge necessary too, recursively. A necessary edge is kept with
      no search, as every later kept set is smaller.
    `budget` applies to each search that runs, and `nodes_explored` sums
    their nodes; a skipped deletion never searches, so it uses no budget.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if constraints is None:
        constraints = ColourConstraint.free()
    elems = s.elements()
    index, allowed = _index(elems, constraints)
    edges = hosting_sets(s)
    mapped = [tuple(map(index.__getitem__, edge)) for edge in edges]
    status, _, total_nodes, core = _search(allowed, mapped, budget)
    if status is not Status.NOT_COLOURABLE:
        return ObstructionResult(status, None, total_nodes)

    kept = [True] * len(edges)
    necessary = [False] * len(edges)
    in_core = set(core)
    incident: list[list[int]] = [[] for _ in elems]
    for i, edge in enumerate(mapped):
        for v in edge:
            incident[v].append(i)
    for e in sorted(range(len(edges)), key=edges.__getitem__, reverse=True):
        if e not in in_core:
            kept[e] = False
        elif not necessary[e]:
            ids = [i for i, k in enumerate(kept) if k and i != e]
            status, colour, nodes, core = _search(
                allowed, [mapped[i] for i in ids], budget
            )
            total_nodes += nodes
            if status is Status.BUDGET_EXCEEDED:
                return ObstructionResult(status, None, total_nodes)
            if status is Status.NOT_COLOURABLE:
                kept[e] = False
                in_core = {ids[j] for j in core}
            else:
                necessary[e] = True
                _rotate(e, colour, allowed, mapped, incident, kept, necessary)
    hg = HostingHypergraph(
        n=s.n, vertices=s, edges=[edge for edge, k in zip(edges, kept) if k]
    )
    return ObstructionResult(Status.NOT_COLOURABLE, hg, total_nodes)


def _rotate(
    e: int,
    colour: list[int],
    allowed: list[tuple[int, ...]],
    mapped: list[tuple[int, ...]],
    incident: list[list[int]],
    kept: list[bool],
    necessary: list[bool],
) -> None:
    """Recursive model rotation from necessary edge e, whose search witness
    colour (-1 for free vertices) colours every kept edge but e properly.
    Marks in `necessary` every edge the rotations prove necessary."""
    colour = [c if c >= 0 else allowed[v][0] for v, c in enumerate(colour)]
    todo = [(e, colour)]  # (the one monochromatic kept edge, its colouring)
    while todo:
        e, colour = todo.pop()
        for v in mapped[e]:
            c = colour[v] ^ 1
            if c not in allowed[v]:
                continue
            broken = [
                f
                for f in incident[v]
                if f != e and kept[f] and all(colour[u] == c for u in mapped[f] if u != v)
            ]
            if len(broken) == 1 and not necessary[broken[0]]:
                necessary[broken[0]] = True
                flipped = colour.copy()
                flipped[v] = c
                todo.append((broken[0], flipped))


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
