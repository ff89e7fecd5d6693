"""Constrained proper 2-colouring of Schur hypergraphs.

The solver does unit-style propagation (a 2-edge with one coloured endpoint
forces the other, a 3-edge with two same-coloured endpoints forces the
third) and backtracks on the uncoloured element incident to the most
unresolved edges, breaking ties by smallest value and trying blue before
red. Budget exhaustion is a first-class outcome, never an exception.

The search is iterative: an explicit stack holds one frame per open
branching decision, at most V of them for V elements, so its depth is not
limited by the interpreter's recursion limit. Memory is O(V + |E|) plus
those frames, and `find_schur_colouring` builds no hypergraph with more
than HOSTING_SET_CAP edges. Each edge keeps how many of its elements are
red and how many blue, packed in one int that one table lookup per colour
reads, and each element how many of its edges are not yet bichromatic;
colouring or uncolouring an element touches only its own edges. A node
costs O(V) to choose the branch element, plus the degrees of the elements
it colours (propagation included) and later uncolours.

`nodes_explored` counts colour trials, one per colour tried at a branch
element; `budget` is checked before each trial, so a budget of k allows
exactly k trials. When no element is limited to one colour, swapping the
colours maps every colouring to another, so the root tries only its first
colour: a refutation costs half the trials of trying both, and colourable
searches are unchanged.

`find_schur_colouring` (and so `is_schur`) and `minimal_obstruction` give
a sum-free set the search's answer on no edges (0 trials) without building
its hypergraph. `find_schur_colouring` then scans a set whose elements all
allow both colours for an embedded copy of the paper's eleven-value Schur
configurations L1(a, x, d) or L2(a, x, d) (see `schur_certificate`): for
each step d, big-int shifts of the mask of 4-AP starts, or one FFT of it
when that is cheaper, locate a copy. A copy found is checked to lie in the set and, by trying all 2^11
colourings, to be uncolourable; it then decides the set NOT_COLOURABLE.
Failing that, `split_witness` colours the top of the set as the paper's
lower-bound colourings do, an interval split into a blue and a red part,
and each of the few elements below by the one colour that the two parts
leave it; a colouring whose two classes pass `is_sum_free` decides the set
COLOURABLE. Either decision costs one trial (`nodes_explored` 1) and no
hypergraph. Both are work-capped (CERTIFICATE_CELLS; SPLIT_POINTS,
SPLIT_LOW), whatever the input; when neither decides, the search runs with
its full budget.

Each coloured element records the edge that forced it. A search that ends
NOT_COLOURABLE also returns an unsat core: the union of its conflict cones,
each the conflict edge plus, transitively, the forcing edges of its
coloured elements. Propagation is breadth-first, so each forcing edge lies
on a shortest chain of forcings from the decision or the constraint seeds;
the order decides the core, not the search tree. `minimal_obstruction`
deletes edges in descending order as the plain deletion loop does and
returns the same obstruction, but drops an edge outside the latest core
without a search and keeps, without a search, every edge that model
rotation of a colourable witness proves necessary. Its budget applies to
each search that runs; a skipped deletion never searches, so it never uses
budget. All its searches run on one search state (_SearchState), built
once: a deletion unlinks the edge from its elements' incidence lists and a
necessary edge is linked back in place, so each search is the one a fresh
search on the kept edges would make, and the root (the forced colours and
all they force) is propagated again only when the deleted or restored edge
could have changed it. A deletion thus costs the degrees of the edge's
elements plus its search, not a rebuild of the instance.

`find_loose_cycle` looks for the loose cycles that the paper's minimal
obstructions carry with a complete depth-first search, also on an explicit
stack: it only ever grows loose paths, so whatever it closes is a loose
cycle, and None means that the hypergraph has none. Its worst case is
exponential in the number of edges.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import compress

import numpy as np

from .intset import (
    IntSet,
    _ap4_starts,
    _edge_tuples,
    _hosting_columns,
    _shifts_cheaper,
    _smaller_summands,
    count_hosting_sets,
    hosting_sets,
    indicator,
    is_sum_free,
    l1_values,
    l2_values,
    mask_bits,
    reserve_heap,
)

RED = "R"
BLUE = "B"

DEFAULT_BUDGET = 10**7

# Most hosting sets find_schur_colouring builds a hypergraph of; a set with
# more gets BUDGET_EXCEEDED with nothing built. The build and the search's
# incidence lists peak at about 230 bytes per hosting set (tracemalloc, on
# dense0 sets with 1.4 * 10^4 to 7.9 * 10^5 hosting sets; Python 3.11), so
# the cap keeps them under 2 GB. A dense0:100000,1000 trial has 1.1-1.4 *
# 10^6 hosting sets, a dense0:1000000,10000 one about 1.1 * 10^8.
HOSTING_SET_CAP = 1 << 23


class Status(Enum):
    COLOURABLE = "colourable"
    NOT_COLOURABLE = "not_colourable"
    BUDGET_EXCEEDED = "budget_exceeded"


class SchurStatus(Enum):
    SCHUR = "Schur"
    NOT_SCHUR = "NotSchur"
    UNKNOWN = "Unknown"


# The verdict on a set from the status of its colouring search.
VERDICT = {
    Status.NOT_COLOURABLE: SchurStatus.SCHUR,
    Status.COLOURABLE: SchurStatus.NOT_SCHUR,
    Status.BUDGET_EXCEEDED: SchurStatus.UNKNOWN,
}


@dataclass(frozen=True)
class Colouring:
    """A 2-colouring as its two colour classes, which must be disjoint."""

    red: IntSet
    blue: IntSet

    def __post_init__(self):
        if self.red.mask & self.blue.mask:
            raise ValueError("colour classes overlap")


@dataclass(frozen=True)
class ColourConstraint:
    """Masks of the elements barred from red and from blue: an element in
    neither allows both colours, one in both allows none. A negative mask
    (~m) bars every element outside m."""

    no_red: int = 0
    no_blue: int = 0

    @classmethod
    def force_blue(cls, elems: IntSet | Iterable[int]) -> "ColourConstraint":
        if not isinstance(elems, IntSet):
            elems = list(elems)
            elems = IntSet(max(elems, default=1), elems)
        return cls(no_red=elems.mask)

    @classmethod
    def free(cls) -> "ColourConstraint":
        return cls()


@dataclass
class HostingHypergraph:
    edges: list[tuple[int, ...]]

    def is_three_uniform(self) -> bool:
        return all(len(e) == 3 for e in self.edges)


@dataclass
class SolveOutcome:
    status: Status
    witness: Colouring | None
    nodes_explored: int


def _allowed(s: IntSet, constraints: ColourConstraint) -> list[tuple[int, ...]]:
    """Each vertex's allowed colour codes, vertex i being the i-th smallest
    element of s. Code 0 is blue and 1 red, so blue is tried first at every
    branch."""
    no_red, no_blue = constraints.no_red & s.mask, constraints.no_blue & s.mask
    if not no_red | no_blue:
        return [(0, 1)] * len(s)
    member = indicator(s)
    code = np.zeros(member.size, dtype=np.int8)  # by value
    for weight, mask in ((2, no_red), (1, no_blue)):
        bits = mask_bits(mask)  # no longer than member: mask lies in s
        code[: bits.size] += weight * bits
    choices = ((0, 1), (1,), (0,), ())  # by 2 * (red barred) + (blue barred)
    return [choices[k] for k in code[member].tolist()]


def _hosting_instance(s: IntSet) -> tuple[list[int], list[tuple[int, ...]]]:
    """The elements of s ascending, and its hosting sets in hosting order
    with each element replaced by its index among them. Ranks are
    increasing in the values, so the index tuples sort like the value
    tuples."""
    elems = np.flatnonzero(indicator(s))
    first, second, third, is_pair = _hosting_columns(s)
    ranks = (np.searchsorted(elems, col) for col in (first, second, third))
    return elems.tolist(), _edge_tuples(*ranks, is_pair)


# Each edge's colour counts packed in one int, blue + 4 * red, counted from
# 0 for a 3-edge and from _PAIR for a 2-edge, so that one table per colour
# gives what colouring one more vertex does to an edge of either size:
# _TRANSITIONS[c][s], s the packed counts after the vertex is coloured c.
_PAIR = 16
_DELTA = (1, 4)  # by colour code: 0 blue, 1 red
_RESOLVED, _FORCE, _MONO = 1, 2, 3

# (status, colour code per vertex, nodes, core) of one search
_Result = tuple[Status, list[int], int, list[int]]


def _packed(size: int, blue: int, red: int) -> int:
    return (_PAIR if size == 2 else 0) + blue * _DELTA[0] + red * _DELTA[1]


def _transitions(c: int) -> tuple[int, ...]:
    table = [0] * (_packed(2, 0, 2) + 1)
    for size in (3, 2):
        for blue in range(size + 1):
            for red in range(size + 1 - blue):
                same, other = (blue, red) if c == 0 else (red, blue)
                if other:
                    act = _RESOLVED if same == 1 else 0  # just became bichromatic
                else:
                    act = {size: _MONO, size - 1: _FORCE}.get(same, 0)
                table[_packed(size, blue, red)] = act
    return tuple(table)


_TRANSITIONS = (_transitions(0), _transitions(1))


class _SearchState:
    """Explicit-stack search over vertex indices 0..V-1, V = len(allowed),
    on edges of 2 or 3 vertex indices, kept between searches of the same
    instance with edges deleted and restored.

    run(budget) returns (status, colour code per vertex, nodes, core); the
    colours are partial (-1 for uncoloured) unless the status is
    COLOURABLE, when a vertex left uncoloured, all its edges resolved,
    takes its first allowed colour. incident[v] lists v's linked edges
    ascending, and each linked edge keeps its colour counts packed in
    state[i] (see _TRANSITIONS): colouring or uncolouring a vertex reads,
    writes and looks up one int per incident edge. key[v] is the number of
    v's linked edges not yet bichromatic, lowered by `coloured` while v is
    coloured, so the branch vertex (most unresolved edges, smallest index
    on ties) is the first maximum of key.

    Propagation is breadth-first: forced colours are taken first in, first
    out, the seeds in ascending order. Unit propagation reaches the same
    colours, or a conflict, in any order, so a run's tree, node count and
    witness do not depend on the order; its core does. reason[v] is the
    edge that forced v's colour, -1 for a decision or a constraint seed,
    and breadth-first order makes it the last edge of a shortest chain of
    forcings to v, which keeps conflict cones small. Every conflict marks
    its conflict cone: the conflict edge and, transitively, the reasons of
    its coloured vertices (visited once per conflict). The core is the
    sorted indices of every marked edge when the status is NOT_COLOURABLE,
    else empty. The search tree refutes each decision path by propagation
    over its cone alone, so the core with the allowed colours is itself
    uncolourable.

    drop(e) unlinks edge e from its vertices' lists and relink(e) puts it
    back at its ascending place, so the lists always hold the linked edges
    in the order a fresh state on the list of linked edges would, and a run
    visits the same nodes and returns the same core (as indices into the
    full edge list). The root, the constraint seeds and all they force, is
    propagated by the first run and kept: a run leaves its last state on
    the trail, the next run, drop or relink first undoes it back to the
    root, and the root is propagated again only after a drop of the edge
    that forced a root vertex or a relink of an edge with |e| - 1 of its
    vertices of one colour at the root (which could have forced or
    conflicted there), or after a root conflict. Any other drop or relink
    leaves the root's colours and reasons as a fresh propagation would, and
    costs the degrees of the edge's vertices.
    """

    def __init__(self, allowed: list[tuple[int, ...]], edges: list[tuple[int, ...]]):
        if not set(map(len, edges)) <= {2, 3}:
            raise ValueError("edges must have 2 or 3 vertices")
        n_vertices = len(allowed)
        self.allowed = allowed
        self.edges = edges
        self.satisfiable = all(allowed)
        incident: list[list[int]] = [[] for _ in range(n_vertices)]
        for i, edge in enumerate(edges):
            for v in edge:
                incident[v].append(i)
        self.incident = incident
        uncoloured = {2: _packed(2, 0, 0), 3: _packed(3, 0, 0)}
        self.state = [uncoloured[len(edge)] for edge in edges]
        self.colour = [-1] * n_vertices
        self.coloured = len(edges) + 1  # above any vertex degree
        self.key = [len(inc) for inc in incident]
        self.trail: list[int] = []
        self.reason = [-1] * n_vertices
        self.marked: list[bool] = []  # per edge, reset by each run
        self.seen = [0] * n_vertices  # conflict stamp of the last cone walk through v
        self.stamp = 0
        self.seeds = [(v, a[0], -1) for v, a in enumerate(allowed) if len(a) == 1]
        self.root = -1  # trail length of the propagated root; -1 when not propagated

    def _explain(self, i: int) -> None:
        """Mark conflict edge i and the reason cone of its coloured vertices."""
        colour, reason, seen, edges, marked = (
            self.colour, self.reason, self.seen, self.edges, self.marked
        )
        self.stamp += 1
        stamp = self.stamp
        marked[i] = True
        todo = [u for u in edges[i] if colour[u] >= 0]
        while todo:
            u = todo.pop()
            if seen[u] == stamp:
                continue
            seen[u] = stamp
            r = reason[u]
            if r >= 0:  # its other vertices were coloured before u
                marked[r] = True
                todo.extend(edges[r])

    def _propagate(self, pending: list[tuple[int, int, int]]) -> bool:
        """Colour each pending (vertex, code, reason) and all it forces;
        False, with the conflict explained, on a monochromatic edge or a
        forced colour the vertex does not allow. Every vertex on the trail
        has all its edge counts applied."""
        colour, reason, trail, key = self.colour, self.reason, self.trail, self.key
        incident, state, edges, allowed = self.incident, self.state, self.edges, self.allowed
        coloured, resolved, mono = self.coloured, _RESOLVED, _MONO
        conflict = -1
        queue = deque(pending)
        while queue:
            v, c, r = queue.popleft()
            if colour[v] >= 0:
                # Already coloured, and always with c, so there is no
                # opposite-colour conflict to detect here, whatever order
                # the queue is taken in. A decision colours an uncoloured
                # vertex. A seed's vertex allows only c, and a force is
                # queued only with an allowed colour. A force by edge r was
                # queued while r's other vertices had colour c ^ 1; had v
                # been coloured c ^ 1 since, r would have become
                # monochromatic in v's incident loop, a conflict that returns
                # before this entry is taken. The reason kept is that of the
                # first entry taken, the one nearest the decision.
                continue
            colour[v] = c
            reason[v] = r
            trail.append(v)
            key[v] -= coloured
            delta, table = _DELTA[c], _TRANSITIONS[c]
            for i in incident[v]:
                s = state[i] = state[i] + delta
                act = table[s]
                if not act:
                    continue
                if act == resolved:
                    for u in edges[i]:
                        key[u] -= 1
                elif conflict < 0:
                    if act == mono:
                        conflict = i
                        continue
                    for u in edges[i]:
                        if colour[u] < 0:
                            break  # the one uncoloured vertex
                    if c ^ 1 in allowed[u]:
                        queue.append((u, c ^ 1, i))
                    else:
                        conflict = i
            if conflict >= 0:
                self._explain(conflict)
                return False
        return True

    def _undo(self, mark: int) -> None:
        colour, trail, key = self.colour, self.trail, self.key
        incident, state, edges = self.incident, self.state, self.edges
        coloured, resolved = self.coloured, _RESOLVED
        for v in reversed(trail[mark:]):
            c = colour[v]
            colour[v] = -1
            key[v] += coloured
            delta, table = _DELTA[c], _TRANSITIONS[c]
            for i in incident[v]:
                s = state[i]
                state[i] = s - delta
                if table[s] == resolved:  # no longer bichromatic
                    for u in edges[i]:
                        key[u] += 1
        del trail[mark:]

    def run(self, budget: int) -> _Result:
        if not self.satisfiable:
            return Status.NOT_COLOURABLE, [], 0, []
        self.marked = [False] * len(self.edges)
        self._to_root()
        if self.root < 0:
            if not self._propagate(self.seeds):
                return self._refuted(0)
            self.root = len(self.trail)
        return self._branch(budget)

    def _branch(self, budget: int) -> _Result:
        allowed, key, trail = self.allowed, self.key, self.trail
        propagate, undo = self._propagate, self._undo

        def pick_branch_var() -> int:
            """-1 when every unresolved edge is gone; leftovers are then free."""
            best = max(key, default=0)
            return key.index(best) if best > 0 else -1

        nodes = 0
        v = pick_branch_var()
        if v < 0:
            return self._coloured_all(nodes)
        # With no one-colour vertex, swapping the colours maps the search below
        # one root colour onto the search below the other, so the root tries
        # only its first colour.
        # frames: vertex, next colour position, colour positions to try, trail mark
        stack = [[v, 0, 1 if not self.seeds else len(allowed[v]), len(trail)]]
        while stack:
            frame = stack[-1]
            v, pos, end, mark = frame
            if pos == end:
                stack.pop()
                if stack:
                    undo(stack[-1][3])  # the parent's colour failed too
                continue
            if nodes >= budget:
                return Status.BUDGET_EXCEEDED, self.colour.copy(), nodes, []
            nodes += 1
            frame[1] = pos + 1
            if propagate([(v, allowed[v][pos], -1)]):
                v = pick_branch_var()
                if v < 0:
                    return self._coloured_all(nodes)
                stack.append([v, 0, len(allowed[v]), len(trail)])
            else:
                undo(mark)
        return self._refuted(nodes)

    def _refuted(self, nodes: int) -> _Result:
        core = list(compress(range(len(self.marked)), self.marked))
        return Status.NOT_COLOURABLE, self.colour.copy(), nodes, core

    def _coloured_all(self, nodes: int) -> _Result:
        allowed = self.allowed
        total = [c if c >= 0 else allowed[v][0] for v, c in enumerate(self.colour)]
        return Status.COLOURABLE, total, nodes, []

    def _to_root(self) -> None:
        """Undo the last run's colours back to the root, or all of them
        when the root is not propagated."""
        if len(self.trail) > self.root:
            self._undo(max(self.root, 0))

    def drop(self, e: int) -> None:
        """Unlink edge e; the next run searches without it."""
        self._to_root()
        edge, colour = self.edges[e], self.colour
        for v in edge:
            self.incident[v].remove(e)
            if colour[v] >= 0 and self.reason[v] == e:
                self.root = -1
        colours = [colour[v] for v in edge]
        if not (0 in colours and 1 in colours):  # counted in its vertices' keys
            for v in edge:
                self.key[v] -= 1

    def relink(self, e: int) -> None:
        """Link the dropped edge e again, at its ascending place."""
        self._to_root()
        edge = self.edges[e]
        for v in edge:
            insort(self.incident[v], e)
        colours = [self.colour[v] for v in edge]
        blue, red = colours.count(0), colours.count(1)
        self.state[e] = _packed(len(edge), blue, red)
        if not (blue and red):
            for v in edge:
                self.key[v] += 1
        if max(blue, red) >= len(edge) - 1:
            self.root = -1


def _search(
    allowed: list[tuple[int, ...]],
    edges: list[tuple[int, ...]],
    budget: int,
) -> _Result:
    """One search on a fresh _SearchState: (status, colour code per vertex,
    nodes, core), see there."""
    return _SearchState(allowed, edges).run(budget)


def _solve_mapped(
    s: IntSet,
    mapped: list[tuple[int, ...]],
    constraints: ColourConstraint,
    budget: int,
) -> SolveOutcome:
    """Search over edges of vertex indices, vertex i being the i-th
    smallest element of s."""
    status, colour, nodes, _ = _search(_allowed(s, constraints), mapped, budget)
    if status is not Status.COLOURABLE:
        return SolveOutcome(status, None, nodes)
    red = IntSet(s.n, compress(s.elements(), colour))  # code 1 is red
    return SolveOutcome(status, Colouring(red, s.difference(red)), nodes)


def find_schur_colouring(
    s: IntSet,
    constraints: ColourConstraint | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SolveOutcome:
    """Search for a total colouring of s with no monochromatic hosting set.

    A sum-free s has no hosting set, so it gets what the search gives on no
    edges: each element's first allowed colour and 0 nodes, or
    NOT_COLOURABLE when an element allows none. When every element of s
    allows both colours and budget >= 1, s is then scanned for an embedded
    copy of L1 or L2 (schur_certificate), and failing that, a split
    colouring is tried (split_witness). A verified copy decides s
    NOT_COLOURABLE and a verified split colouring decides it COLOURABLE,
    with no hypergraph and no search; either counts as one colour trial, so
    nodes_explored is 1 and a budget of 0 still gives BUDGET_EXCEEDED.
    Otherwise the search runs with the full budget, unless s has more than
    HOSTING_SET_CAP hosting sets (_over_hosting_cap): it then gets
    BUDGET_EXCEEDED with 0 nodes, and no hypergraph is built.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if constraints is None:
        constraints = ColourConstraint.free()
    if is_sum_free(s):
        return _solve_mapped(s, [], constraints, budget)  # no hosting set
    free = not (constraints.no_red | constraints.no_blue) & s.mask
    if free and budget >= 1:
        if schur_certificate(s) is not None:
            return SolveOutcome(Status.NOT_COLOURABLE, None, 1)
        witness = split_witness(s)
        if witness is not None:
            return SolveOutcome(Status.COLOURABLE, witness, 1)
    if _over_hosting_cap(s):
        return SolveOutcome(Status.BUDGET_EXCEEDED, None, 0)
    return _solve_mapped(s, _hosting_instance(s)[1], constraints, budget)


def _over_hosting_cap(s: IntSet) -> bool:
    """s has more than HOSTING_SET_CAP hosting sets. The smaller summand x
    of each lies in [1, max(s) / 2], so |s & [1, max(s) / 2]| * |s| bounds
    their number at no cost; only a set over the cap by that bound is
    counted exactly (count_hosting_sets, 0.1 s at n = 10^6)."""
    if not s.mask:
        return False
    bound = _smaller_summands(s.mask).bit_count() * len(s)
    return bound > HOSTING_SET_CAP and count_hosting_sets(s) > HOSTING_SET_CAP


def is_schur(s: IntSet, budget: int = DEFAULT_BUDGET) -> SchurStatus:
    """SCHUR when every 2-colouring of s has a monochromatic hosting set,
    NOT_SCHUR when one has none, UNKNOWN when the budget runs out; decided
    by find_schur_colouring, certificate and split colouring first."""
    return VERDICT[find_schur_colouring(s, None, budget).status]


# Work cap of schur_certificate, in cells: a step d costs max(s) // 64 + 1
# cells for its 4-AP-start mask (machine words shifted) plus the length of
# its transform when it has one, on the shift path too. The scan of
# mod5_construction(3000), which holds no copy, runs to the end in
# 3.6 * 10^6 cells and 0.10 s, against 4.2 s for its search; a scan that
# reaches the cap took at most 0.34 s on mod5_construction(n) up to
# n = 2 * 10^5, its steps all on the FFT path. On the 1,170 seed-11
# sweep_dense trials (dense0:300,15), 1,314 of the 1,319 steps take the
# shift path and the scans take 14 ms in all (2-core x86 machine).
CERTIFICATE_CELLS = 1 << 22

# For each of 11 vertices, the bitmap over all 2^11 colourings c (vertex v
# red iff bit v of c is set) of the colourings that make v red.
_CERT_VERTICES = 11
_ALL_COLOURINGS = (1 << (1 << _CERT_VERTICES)) - 1
_RED_IN = tuple(
    sum(((1 << (1 << v)) - 1) << (j + (1 << v)) for j in range(0, 1 << _CERT_VERTICES, 2 << v))
    for v in range(_CERT_VERTICES)
)


def _uncolourable(values: list[int]) -> bool:
    """Exhaustive check: every 2-colouring of the distinct values (at most
    11) leaves some x + y = z among them monochromatic, x = y included."""
    vals = sorted(set(values))
    if len(vals) > _CERT_VERTICES:
        raise ValueError(f"at most {_CERT_VERTICES} values, got {len(vals)}")
    rank = {v: i for i, v in enumerate(vals)}
    mono = 0  # colourings with some monochromatic triple so far
    for i, x in enumerate(vals):
        for y in vals[i:]:
            z = rank.get(x + y)
            if z is not None:
                red = blue = _ALL_COLOURINGS
                for v in {i, rank[y], z}:
                    red &= _RED_IN[v]
                    blue &= ~_RED_IN[v]
                mono |= red | blue
    return mono == _ALL_COLOURINGS


def schur_certificate(s: IntSet) -> tuple[str, int, int, int] | None:
    """A copy of L1(a, x, d) or L2(a, x, d) inside s, as (name, a, x, d),
    or None. A returned copy is a subset of s and has passed the
    exhaustive check _uncolourable, so s is Schur.

    For each d in s with 3d < max(s), ascending, M = s & s>>d & s>>2d &
    s>>3d marks the starts of the 4-APs with step d. L1 needs some x with
    x, x + d in s and x in M - M; L2 some x with x - d, x in s and x - 3d
    in M + M. Of each kind the smallest such x, with the smallest a for it,
    is located exactly and checked, L1 first. When a step's candidates
    (the x in reach of M with x, x + d or x - d, x in s) times the mask's
    words, max(s) // 64 + 1, are at most the length of its transform, they
    are tested by big-int shifts of M (_copies_by_shifts); otherwise one
    real FFT of M gives M - M and M + M as its autocorrelation and its
    self-convolution (_copies_by_fft). Both give the same copies, and a
    step is charged its transform length either way. The scan stops at the
    first checked copy, or when it has used CERTIFICATE_CELLS cells of work
    (see there), whatever s is; None then means no copy was found, not that
    none exists.
    """
    mask = s.mask
    top = mask.bit_length() - 1
    words = top // 64 + 1
    member = None  # the indicator of s, built at the first FFT step
    cells = CERTIFICATE_CELLS
    steps = mask & ((1 << ((top + 2) // 3)) - 1)
    while steps:
        d = (steps & -steps).bit_length() - 1
        steps &= steps - 1
        cells -= words
        if cells < 0:
            return None
        starts = _ap4_starts(mask, d)
        if not starts:
            continue
        lo = (starts & -starts).bit_length() - 1
        span = starts.bit_length() - lo  # M lies in [lo, lo + span)
        size = 1 << (2 * span - 1).bit_length()
        cells -= size
        if cells < 0:
            return None
        # the candidates: x < span (the largest difference in M) for L1,
        # and for L2 x = base + k, k < k_max, as x - 3d in M + M lies in
        # [2 lo, 2 lo + 2 span - 1) and x <= max(s)
        base = 2 * lo + 3 * d
        k_max = max(0, min(2 * span - 1, top - base + 1))
        l1 = mask & (mask >> d) & ((1 << span) - 1)
        l2 = (mask & (mask << d)) >> base & ((1 << k_max) - 1)
        if _shifts_cheaper(l1.bit_count() + l2.bit_count(), top, size):
            copies = _copies_by_shifts(starts, d, l1, base, l2)
        else:
            if member is None:
                member = mask_bits(mask)
            copies = _copies_by_fft(member, starts, d, lo, span, size, k_max)
        for name, values, copy in zip(("L1", "L2"), (l1_values, l2_values), copies):
            if copy is not None and _certified(mask, values(*copy, d)):
                return name, *copy, d
    return None


_Copy = tuple[int, int] | None  # (a, x) of one L1 or L2 copy


def _copies_by_shifts(starts: int, d: int, l1: int, base: int, l2: int) -> tuple[_Copy, _Copy]:
    """The first L1 and L2 copies of step d, from the mask M of its 4-AP
    starts, the mask l1 of its L1 candidates x and the mask l2 of its L2
    candidates x - base, each taken ascending.

    L1: the smallest a with a, a + x in M is the lowest bit of M & M >> x.
    L2: with w = x - 3d and R the bits of M reversed (bit h - a for a in M,
    h = max M), R >> (h - w) has bit w - a for each a <= w in M, so the
    smallest a with a, w - a in M is w minus the top bit of M & R >> (h - w).
    """
    l1_copy = l2_copy = None
    while l1:
        x = (l1 & -l1).bit_length() - 1
        l1 &= l1 - 1
        hit = starts & (starts >> x)
        if hit:
            l1_copy = (hit & -hit).bit_length() - 1, x
            break
    if l2:
        h = starts.bit_length() - 1
        rev = int(bin(starts)[:1:-1], 2)
        while l2:
            x = base + (l2 & -l2).bit_length() - 1
            l2 &= l2 - 1
            w = x - 3 * d
            hit = starts & (rev >> (h - w) if w <= h else rev << (w - h))
            if hit:
                l2_copy = w + 1 - hit.bit_length(), x
                break
    return l1_copy, l2_copy


def _copies_by_fft(
    member: np.ndarray, starts: int, d: int, lo: int, span: int, size: int, k_max: int
) -> tuple[_Copy, _Copy]:
    """The first L1 and L2 copies of step d, from one real FFT of length
    size of the mask M of its 4-AP starts, which lies in [lo, lo + span);
    member is the indicator of s. A float count above 0.5 only marks a
    candidate x; its a is then found exactly. What it holds at once, M's
    indicator, the spectrum, its product and one inverse transform, is
    reserved first (reserve_heap)."""
    reserve_heap(24 * size + span)
    m = mask_bits(starts >> lo)
    f = np.fft.rfft(m.astype(np.float64), size)
    l1_copy = l2_copy = None
    # L1: differences 1..span-1 of M, at index x of the autocorrelation
    diff = np.fft.irfft(f * f.conj(), size)[1:span] > 0.5
    x_l1 = 1 + np.flatnonzero(diff & member[1:span] & member[1 + d : span + d])
    if x_l1.size:
        x = int(x_l1[0])
        hits = np.flatnonzero(m[: span - x] & m[x:span])
        if hits.size:
            l1_copy = lo + int(hits[0]), x
    # L2: sums 2 lo + k of M, k < k_max, at index k of the self-convolution
    if k_max:
        xs = 2 * lo + 3 * d + np.arange(k_max)
        sums = np.fft.irfft(f * f, size)[:k_max] > 0.5
        x_l2 = xs[sums & member[xs] & member[xs - d]]
        if x_l2.size:
            x = int(x_l2[0])
            first = np.flatnonzero(m)
            second = x - 3 * d - 2 * lo - first  # offsets of x - 3d - a
            ok = (second >= 0) & (second < span)
            ok[ok] = m[second[ok]]
            hits = np.flatnonzero(ok)
            if hits.size:
                l2_copy = lo + int(first[hits[0]]), x
    return l1_copy, l2_copy


def _certified(mask: int, values: list[int]) -> bool:
    """The values lie in the set of mask and are uncolourable."""
    return all(v >= 1 and (mask >> v) & 1 for v in values) and _uncolourable(values)


# Work caps of split_witness: the split points it tries and the most
# elements below a split's blue part. On the 1,170 seed-11 sweep_dense
# trials (dense0:300,15) the splits decided 824 of the 828 colourable
# ones, at about 0.04 ms per trial, decided or not, with the sum-free gate
# on its shift path; on dense0:100000,1000 at th/2, 13 of 20 trials, each
# split_witness call under 1 ms (2-core x86 machine). On both, no split
# left a low element free to take either colour, the one case where a
# split is skipped although a colouring of it may exist.
SPLIT_POINTS = 16
SPLIT_LOW = 24


def split_witness(s: IntSet) -> Colouring | None:
    """A proper colouring of s from a split of its top, or None.

    For a split point m in [max(s) // 2, max(s) - 1] and L = m // 2 + 1,
    the blue core s & [L, m] and the red core s & [m + 1, max(s)] are
    sum-free (2L > m and 2(m + 1) > max(s)). A low element x of s & [1,
    L - 1] can join a core K unless x is in K - K or 2x is in K; these are
    the only sums x + y = z with y or z in K, as K lies above every low
    element. Each low element is given the one class it can join, and the
    split is skipped when some element can join both or neither. The
    colouring is returned only once both classes pass is_sum_free
    (_classes_sum_free), the one check of the sums among low elements, so
    a returned colouring is always proper.

    Each L gets one split, its largest m, min(2L - 1, max(s) - 1). L runs
    down from the largest value that leaves at most SPLIT_LOW low elements,
    for at most SPLIT_POINTS values; None means no split gave a colouring,
    not that none exists. The SPLIT_LOW + 1 smallest elements are decoded
    once per call, by peeling low bits off the mask: the last bounds L, and
    every split's low elements are a prefix of them. The cores are masks,
    so no split decodes the set. Only low elements can lie below half of a
    class's maximum, as each core lies above half its own, so the gate
    takes is_sum_free's shift path: at most SPLIT_LOW shifts.
    """
    mask = s.mask
    top = mask.bit_length() - 1
    smallest, rest = [], mask  # the SPLIT_LOW + 1 smallest elements
    while rest and len(smallest) <= SPLIT_LOW:
        smallest.append((rest & -rest).bit_length() - 1)
        rest &= rest - 1
    # L <= the (SPLIT_LOW + 1)-th smallest element leaves at most SPLIT_LOW
    # elements below L
    start = min((top + 1) // 2, smallest[SPLIT_LOW] if len(smallest) > SPLIT_LOW else top)
    for low_end in range(start, 0, -1)[:SPLIT_POINTS]:
        m = min(2 * low_end - 1, top - 1)  # the largest m with m // 2 + 1 = L
        if m < top // 2:
            break
        red = mask >> (m + 1) << (m + 1)
        blue = (mask >> low_end << low_end) ^ red
        classes = [blue, red]
        for x in smallest[: bisect_left(smallest, low_end)]:
            no_blue = bool((blue >> x) & blue or (blue >> 2 * x) & 1)
            if no_blue == bool((red >> x) & red or (red >> 2 * x) & 1):
                break  # barred from both classes or from neither
            classes[no_blue] |= 1 << x
        else:
            red_blue = IntSet._from_mask(s.n, classes[1]), IntSet._from_mask(s.n, classes[0])
            if _classes_sum_free(*red_blue):
                return Colouring(*red_blue)
    return None


def _classes_sum_free(*classes: IntSet) -> bool:
    """Every class is sum-free: a colouring with these classes leaves no
    hosting set monochromatic."""
    return all(map(is_sum_free, classes))


def validate_colouring(s: IntSet, c: Colouring) -> list[tuple[int, ...]]:
    """The monochromatic hosting sets of s under c; empty iff c is Schur.
    The hosting sets are enumerated only when a colour class of s is not
    sum-free (_classes_sum_free)."""
    missing = s.difference(c.red.union(c.blue))
    if missing:
        raise ValueError(f"colouring misses elements {missing.elements()[:5]}")
    red = s.intersection(c.red)
    if _classes_sum_free(red, s.intersection(c.blue)):
        return []
    return [edge for edge in hosting_sets(s) if len({v in red for v in edge}) == 1]


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
    Every search runs on one _SearchState: a deletion unlinks the edge, a
    necessary edge is linked back, and the root is kept between searches
    unless the edge could have changed it.
    `budget` applies to each search that runs, and `nodes_explored` sums
    only their nodes; a skipped deletion never searches, so it uses no
    budget. The obstruction does not depend on the propagation order, but
    the cores, and so which deletions are searched and `nodes_explored`,
    do: breadth-first propagation's shorter reason chains give smaller
    cores and fewer searches.
    A sum-free s, as in find_schur_colouring, is searched on no edges with
    no hosting sets built: COLOURABLE, or NOT_COLOURABLE with the empty
    obstruction when an element allows no colour. A set with more than
    HOSTING_SET_CAP hosting sets (_over_hosting_cap) gets BUDGET_EXCEEDED
    with 0 nodes, and nothing is built.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if constraints is None:
        constraints = ColourConstraint.free()
    if is_sum_free(s):
        elems, mapped = [], []  # no hosting set
    elif _over_hosting_cap(s):
        return ObstructionResult(Status.BUDGET_EXCEEDED, None, 0)
    else:
        elems, mapped = _hosting_instance(s)
    allowed = _allowed(s, constraints)
    search = _SearchState(allowed, mapped)
    status, _, total_nodes, core = search.run(budget)
    if status is not Status.NOT_COLOURABLE:
        return ObstructionResult(status, None, total_nodes)

    kept = [True] * len(mapped)
    necessary = [False] * len(mapped)
    in_core = set(core)
    for e in reversed(range(len(mapped))):  # mapped is in ascending order
        if e not in in_core:
            search.drop(e)
            kept[e] = False
        elif not necessary[e]:
            search.drop(e)
            status, colour, nodes, core = search.run(budget)
            total_nodes += nodes
            if status is Status.BUDGET_EXCEEDED:
                return ObstructionResult(status, None, total_nodes)
            if status is Status.NOT_COLOURABLE:
                kept[e] = False
                in_core = set(core)
            else:
                search.relink(e)
                necessary[e] = True
                _rotate(e, colour, allowed, mapped, search.incident, necessary)
    obstruction = [
        tuple(elems[v] for v in edge) for edge, k in zip(mapped, kept) if k
    ]
    return ObstructionResult(Status.NOT_COLOURABLE, HostingHypergraph(obstruction), total_nodes)


def _rotate(
    e: int,
    colour: list[int],
    allowed: list[tuple[int, ...]],
    edges: list[tuple[int, ...]],
    incident: list[list[int]],
    necessary: list[bool],
) -> None:
    """Recursive model rotation from necessary edge e, whose search witness
    colour colours every kept edge but e properly; incident[v] lists the
    kept edges through v. Marks in `necessary` every edge the rotations
    prove necessary."""
    todo = [(e, colour)]  # (the one monochromatic kept edge, its colouring)
    while todo:
        e, colour = todo.pop()
        for v in edges[e]:
            c = colour[v] ^ 1
            if c not in allowed[v]:
                continue
            broken = [
                f
                for f in incident[v]
                if f != e and all(colour[u] == c for u in edges[f] if u != v)
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
    uniform3 = h.is_three_uniform()
    one_base = all(sum(1 for v in e if v in base) <= 1 for e in h.edges)
    linear = all(
        len(set(e).intersection(f)) <= 1 for i, e in enumerate(h.edges) for f in h.edges[i + 1 :]
    )
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


def find_loose_cycle(h: HostingHypergraph, base: IntSet) -> LooseCycle | None:
    """A loose cycle of the 3-uniform h, or None when h has none.

    A loose cycle is ell >= 3 edges in cyclic order, each meeting the next
    in one vertex, those ell connecting vertices distinct, and edges that
    are not neighbours disjoint; three edges through one vertex are not
    one. A depth-first search on an explicit stack grows loose paths from
    each edge in turn through edges of higher index only, so each cycle is
    found from its lowest-index edge. A path grows by an edge that meets it
    in exactly one vertex, a vertex of its last edge other than that
    edge's connecting vertex, and it closes by an edge that meets only its
    last and first edges, in a vertex of each that is not a connecting
    vertex. Every path kept is thus loose and every cycle closed is a loose
    cycle, with nothing checked afterwards. Candidates are taken in
    ascending index, so the answer is deterministic, and the search is
    complete: None means that no loose cycle exists. The worst case is
    exponential in the number of edges, since every loose path may be
    listed; the stack holds at most |E| paths of each length, each path
    in O(|E|) memory.
    """
    if not h.is_three_uniform():
        raise ValueError("loose-cycle search requires a 3-uniform hypergraph")
    edges = [set(e) for e in h.edges]
    by_vertex: dict[int, list[int]] = {}
    for i, e in enumerate(h.edges):
        for v in e:
            by_vertex.setdefault(v, []).append(i)
    for first in range(len(edges)):
        # (path, its vertices, last connecting vertex, first edge's free vertices)
        stack = [([first], edges[first], None, edges[first])]
        while stack:
            path, covered, joint, free = stack.pop()
            last = edges[path[-1]]
            grown = []
            for j in sorted({j for v in last - {joint} for j in by_vertex[v] if j > first}):
                meet = covered & edges[j]
                if len(meet) == 1:
                    grown.append((path + [j], covered | edges[j], *meet, free - meet))
                elif len(meet) == 2 and len(meet & free) == 1:  # one in last, one in free
                    cycle = [h.edges[i] for i in path + [j]]
                    types = ["t2" if any(v in base for v in e) else "t1" for e in cycle]
                    pairs = sum(t == "t2" == types[i - 1] for i, t in enumerate(types))
                    return LooseCycle(cycle, types, pairs)
            stack.extend(reversed(grown))
    return None
