import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurperturb.solver as solver_module
from oracles import _solve_edges, is_loose_cycle, is_schur_mask, is_sum_free_mask, loose_cycles
from schurperturb.cli import prop31_instances
from schurperturb.constructions import construct_by_name, odd_set
from schurperturb.intset import (
    IntSet,
    count_hosting_sets,
    hosting_sets,
    is_sum_free,
    l1_values,
    l2_values,
)
from schurperturb.montecarlo import RngSpec, sample_perturbation
from schurperturb.solver import (
    BLUE,
    RED,
    ColourConstraint,
    Colouring,
    DEFAULT_BUDGET,
    HostingHypergraph,
    SchurStatus,
    Status,
    VERDICT,
    _certified,
    _hosting_instance,
    _solve_mapped,
    check_hmin_properties,
    find_loose_cycle,
    find_schur_colouring,
    is_schur,
    _rotate,
    _search,
    _SearchState,
    minimal_obstruction,
    schur_certificate,
    split_witness,
    _uncolourable,
    validate_colouring,
)


class TestIsSchur:
    def test_baseline_4_and_5(self):
        assert is_schur(IntSet(4, range(1, 5))) is SchurStatus.NOT_SCHUR
        assert is_schur(IntSet(5, range(1, 6))) is SchurStatus.SCHUR
        assert is_schur_mask(IntSet(5, range(1, 6)).mask)
        assert not is_schur_mask(IntSet(4, range(1, 5)).mask)

    def test_witness_validates(self):
        out = find_schur_colouring(IntSet(4, range(1, 5)))
        assert out.status is Status.COLOURABLE
        assert validate_colouring(IntSet(4, range(1, 5)), out.witness) == []

    def test_empty_set(self):
        assert is_schur(IntSet(6)) is SchurStatus.NOT_SCHUR

    def test_exhaustive_oracle_small(self):
        n = 10
        for mask in range(1 << n):
            s = IntSet(n, [i + 1 for i in range(n) if mask >> i & 1])
            verdict = is_schur(s)
            assert verdict is not SchurStatus.UNKNOWN
            assert (verdict is SchurStatus.SCHUR) == is_schur_mask(s.mask)

    def test_budget_zero(self):
        assert is_schur(IntSet(5, range(1, 6)), budget=0) is SchurStatus.UNKNOWN

    def test_budget_negative(self):
        with pytest.raises(ValueError):
            find_schur_colouring(IntSet(3, [1]), budget=-1)


class TestConstraints:
    def test_force_blue_top(self):
        s = IntSet(10, [2, 3, 4, 9, 10])
        base = IntSet(10, [9, 10])
        out = find_schur_colouring(s, ColourConstraint.force_blue(base))
        assert out.status is Status.COLOURABLE
        assert {9, 10} <= set(out.witness.blue)
        assert validate_colouring(s, out.witness) == []

    def test_unsatisfiable_constraint(self):
        # 1, 2 both blue is monochromatic on the degenerate edge {1, 2}
        s = IntSet(4, [1, 2])
        out = find_schur_colouring(s, ColourConstraint.force_blue([1, 2]))
        assert out.status is Status.NOT_COLOURABLE

    def test_empty_allowed_set(self):
        s = IntSet(4, [1, 3])
        out = find_schur_colouring(s, ColourConstraint(no_red=0b10, no_blue=0b10))
        assert out.status is Status.NOT_COLOURABLE

    def test_force_blue_takes_sets_and_iterables(self):
        assert ColourConstraint.force_blue(IntSet(10, [9, 10])) == ColourConstraint.force_blue([10, 9, 9])
        assert ColourConstraint.force_blue(()) == ColourConstraint.free()


class TestColouring:
    def test_overlapping_classes_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Colouring(IntSet(5, [1, 2]), IntSet(5, [2, 3]))

    def test_disjoint_classes(self):
        c = Colouring(IntSet(5, [1, 4]), IntSet(5, [2, 3]))
        assert (c.red.elements(), c.blue.elements()) == ([1, 4], [2, 3])


class TestValidateColouring:
    def test_reports_monochromatic(self):
        s = IntSet(6, [1, 2, 3])
        bad = validate_colouring(s, Colouring(IntSet(6, [1, 2, 3]), IntSet(6)))
        assert (1, 2, 3) in bad and (1, 2) in bad

    def test_partial_colouring_rejected(self):
        with pytest.raises(ValueError):
            validate_colouring(IntSet(5, [1, 2]), Colouring(IntSet(5, [1]), IntSet(5)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(1, n)),
                st.lists(st.sampled_from([RED, BLUE]), min_size=n + 3, max_size=n + 3),
            )
        )
    )
    def test_same_edges_as_edge_loop(self, args):
        """The monochromatic hosting sets, in hosting order, as the loop
        over every hosting set gives them; colour entries outside s count
        for nothing."""
        n, elems, colours = args
        s = IntSet(n, elems)
        ground = range(1, n + 3)
        c = Colouring(*(IntSet(n + 2, (e for e in ground if colours[e] == k)) for k in (RED, BLUE)))
        expected = [e for e in hosting_sets(s) if len({colours[v] for v in e}) == 1]
        assert validate_colouring(s, c) == expected

    def test_proper_colouring_enumerates_no_hosting_set(self, monkeypatch):
        s, colouring = construct_by_name("mod5", 3000)
        witness = find_schur_colouring(IntSet(9, range(1, 5))).witness

        def unexpected(_):
            raise AssertionError("hosting sets enumerated for a proper colouring")

        monkeypatch.setattr(solver_module, "hosting_sets", unexpected)
        assert validate_colouring(s, colouring) == []
        assert validate_colouring(IntSet(9, range(1, 5)), witness) == []


class TestMinimalObstruction:
    def test_colourable_instance(self):
        res = minimal_obstruction(IntSet(4, range(1, 5)))
        assert res.status is Status.COLOURABLE
        assert res.hypergraph is None

    def test_minimality(self):
        s = IntSet(5, range(1, 6))
        res = minimal_obstruction(s)
        assert res.status is Status.NOT_COLOURABLE
        edges = res.hypergraph.edges
        # obstruction itself is uncolourable, every proper subset colourable
        assert (
            _solve_edges(s, edges, ColourConstraint.free(), 10**7).status
            is Status.NOT_COLOURABLE
        )
        for drop in edges:
            rest = [e for e in edges if e != drop]
            assert (
                _solve_edges(s, rest, ColourConstraint.free(), 10**7).status
                is Status.COLOURABLE
            )

    def test_budget_propagates(self):
        res = minimal_obstruction(IntSet(14, range(1, 15)), budget=3)
        assert res.status is Status.BUDGET_EXCEEDED

    def test_budget_negative(self):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            minimal_obstruction(IntSet(5, range(1, 6)), budget=-1)


class TestHminProperties:
    def test_report(self):
        base = IntSet(10, [9, 10])
        h = HostingHypergraph([(1, 2, 3), (3, 4, 7)])
        rep = check_hmin_properties(h, base)
        assert rep.uniform3 and rep.one_base_per_edge and rep.linear

    def test_violations(self):
        base = IntSet(10, [6, 7])
        h = HostingHypergraph([(1, 2), (1, 6, 7), (1, 2, 3), (1, 2, 4)])
        rep = check_hmin_properties(h, base)
        assert not rep.uniform3
        assert not rep.one_base_per_edge  # (1, 6, 7) holds two base elements
        assert not rep.linear  # (1,2,3) and (1,2,4) share two vertices


class TestLooseCycle:
    def test_finds_hand_built_cycle(self):
        edges = [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 1)]
        h = HostingHypergraph(edges)
        cycle = find_loose_cycle(h, IntSet(8, [2, 6]))
        assert cycle is not None
        assert len(cycle.edges) >= 3
        assert set(cycle.types) <= {"t1", "t2"}

    def test_no_cycle_in_path(self):
        edges = [(1, 2, 3), (3, 4, 5), (5, 6, 7)]
        h = HostingHypergraph(edges)
        assert find_loose_cycle(h, IntSet(7)) is None

    def test_types_and_consecutive_pairs(self):
        edges = [(1, 2, 3), (3, 4, 5), (5, 6, 1)]
        base = IntSet(6, [2, 4])
        h = HostingHypergraph(edges)
        cycle = find_loose_cycle(h, base)
        assert cycle is not None
        assert sorted(cycle.types) == ["t1", "t2", "t2"]
        d = cycle.to_json_dict()
        assert set(d) == {"edges", "types", "consecutive_t2_pairs"}

    def test_requires_three_uniform(self):
        h = HostingHypergraph([(1, 2)])
        with pytest.raises(ValueError):
            find_loose_cycle(h, IntSet(5))

    @staticmethod
    def search(edges):
        n = max(max(e) for e in edges)
        return find_loose_cycle(HostingHypergraph(edges), IntSet(n))

    def test_agrees_with_enumeration(self):
        rng = random.Random(16)
        found = 0
        for _ in range(1200):
            verts = range(1, rng.randint(5, 10))
            edges = list({tuple(sorted(rng.sample(verts, 3))) for _ in range(rng.randint(3, 7))})
            cycle = self.search(edges)
            assert (cycle is None) == (next(loose_cycles(edges), None) is None), edges
            if cycle is not None:
                found += 1
                assert is_loose_cycle(cycle.edges), (edges, cycle.edges)
                assert len(set(cycle.edges)) == len(cycle.edges) and set(cycle.edges) <= set(edges)
                assert not set.intersection(*map(set, cycle.edges))
        assert 300 < found < 900  # both answers are common

    @pytest.mark.parametrize("k", [3, 33])
    def test_cycle_behind_pendant_edges(self, k):
        # edge i of the cycle is (100 + i, 10 + i - 1, 10 + i), indices mod k,
        # with a pendant edge at 100 + i listed before every cycle edge
        pendants = [(100 + i, 300 + 2 * i, 301 + 2 * i) for i in range(k)]
        ring = [(100 + i, 10 + (i - 1) % k, 10 + i) for i in range(k)]
        cycle = self.search(pendants + ring)
        assert cycle is not None and sorted(cycle.edges) == sorted(ring)
        assert is_loose_cycle(cycle.edges)

    def test_sunflower_is_not_a_cycle(self):
        assert self.search([(1, 2, 3), (1, 4, 5), (1, 6, 7)]) is None


class TestNodeAccounting:
    def test_nodes_counted(self):
        out = find_schur_colouring(IntSet(9, range(1, 10)))
        assert out.nodes_explored >= 1

    def test_budget_boundary(self):
        s = IntSet(13, range(1, 14))
        full = find_schur_colouring(s)
        exact = find_schur_colouring(s, budget=full.nodes_explored)
        assert exact.status is full.status
        short = find_schur_colouring(s, budget=full.nodes_explored - 1)
        assert short.status is Status.BUDGET_EXCEEDED


class TestDeepSearch:
    def test_independent_two_edges_need_no_recursion(self):
        # one decision per edge, 5000 deep: beyond any interpreter recursion limit
        k = 5000
        s = IntSet.full(2 * k)
        edges = [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
        out = _solve_edges(s, edges, ColourConstraint.free(), 10**7)
        assert out.status is Status.COLOURABLE
        assert out.nodes_explored == k
        assert all((a in out.witness.red) != (b in out.witness.red) for a, b in edges)


def _digest(witness: Colouring | None) -> str | None:
    """Hash of the colouring as its sorted (element, colour) list."""
    if witness is None:
        return None
    text = repr(sorted([(e, RED) for e in witness.red] + [(e, BLUE) for e in witness.blue]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned_instance(kind: str, x: float, trial: int):
    """(set, constraints) of one pinned case: a dense0:300,15 trial at x th,
    a sparse:200,14 trial forced blue at x th, or IntSet.full(x)."""
    if kind == "full":
        return IntSet.full(int(x)), None
    if kind == "dense":
        base = construct_by_name("dense0:300,15").A
        p = x * min(300 ** (-2 / 3), 1 / 15)
        return base.union(sample_perturbation(300, p, RngSpec(1), trial)), None
    base = construct_by_name("sparse:200,14")
    p = x * (200 * 14) ** (-1 / 3)
    perturbed = base.union(sample_perturbation(200, p, RngSpec(1), trial))
    return perturbed, ColourConstraint.force_blue(base)


# (kind, x, trial, budget) -> (status, nodes_explored, witness digest) of
# the certificate scan and the search, recorded with the recursive solver
# this search replaced; the refutations re-recorded once the root tried one
# colour of a free instance and an L1/L2 certificate decided an instance as
# one trial
PINNED_TREES = [
    (("dense", 0.5, 0, None), ("colourable", 55, "773bdfe4830602c5")),
    (("dense", 0.5, 1, None), ("colourable", 52, "e4eb068c5f68916f")),
    (("dense", 0.5, 2, None), ("colourable", 31, "5db96a0e523cbd0a")),
    (("dense", 0.5, 3, None), ("colourable", 15, "8df7e9f0cb8fb7f7")),
    (("dense", 1.0, 0, None), ("colourable", 18, "1184bc731e7fde5f")),
    (("dense", 1.0, 1, None), ("not_colourable", 7, None)),
    (("dense", 1.0, 2, None), ("not_colourable", 1, None)),
    (("dense", 1.0, 3, None), ("colourable", 15, "8df7e9f0cb8fb7f7")),
    (("dense", 1.5, 0, None), ("colourable", 12, "79e9248b08b3e1c1")),
    (("dense", 1.5, 1, None), ("not_colourable", 1, None)),
    (("dense", 1.5, 2, None), ("not_colourable", 1, None)),
    (("dense", 1.5, 3, None), ("colourable", 47, "2dd8e3ccbcd74dac")),
    (("dense", 0.5, 0, 27), ("budget_exceeded", 27, None)),
    (("dense", 1.5, 1, 19), ("not_colourable", 1, None)),
    (("sparse", 2.0, 0, None), ("not_colourable", 0, None)),
    (("sparse", 2.0, 1, None), ("colourable", 10, "88af0e19cef029fb")),
    (("sparse", 2.0, 2, None), ("not_colourable", 14, None)),
    (("sparse", 2.0, 3, None), ("colourable", 4, "2684e8988e1e038c")),
    (("full", 4, 0, 0), ("budget_exceeded", 0, None)),
    (("full", 13, 0, 1), ("not_colourable", 1, None)),
]

# sparse:200,14 forced blue at 2 th, trial -> (nodes_explored, edges); the
# edges were recorded with the recursive solver, the node counts (searches
# that run only) with the core-guided deletion
PINNED_OBSTRUCTIONS = {
    0: (11, [(6, 12), (6, 187, 193), (12, 187, 199)]),
    2: (39, [(4, 61, 65), (4, 129, 133), (4, 187, 191), (61, 129, 190),
              (61, 133, 194), (65, 129, 194), (65, 133, 198)]),
    5: (11, [(9, 83, 92), (9, 97, 106), (9, 187, 196), (83, 106, 189),
             (92, 106, 198), (97, 194)]),
    6: (347, [(7, 22, 29), (7, 46, 53), (7, 50, 57), (7, 74, 81), (7, 187, 194),
              (22, 23, 45), (22, 28, 50), (22, 177, 199), (23, 46), (23, 130, 153),
              (28, 29, 57), (28, 46, 74), (28, 53, 81), (29, 45, 74), (29, 53, 82),
              (29, 101, 130), (29, 171, 200), (37, 45, 82), (37, 74), (45, 132, 177),
              (46, 153, 199), (57, 130, 187), (57, 132, 189), (70, 101, 171),
              (70, 130, 200)]),
    8: (4, [(11, 84, 95), (11, 187, 198), (13, 95, 108), (13, 187, 200),
            (84, 108, 192), (95, 190)]),
}


# the same instances through find_schur_colouring, where a split colouring
# (split_witness) decides every colourable dense row as one trial
PINNED_OUTCOMES = [
    ("colourable", 1, "8b27db39bcbe49b4"),
    ("colourable", 1, "058d2cfbeb440d02"),
    ("colourable", 1, "df503b6fc2c5282c"),
    ("colourable", 1, "6afa989769cacc4b"),
    ("colourable", 1, "aa41ae59c3aaf25b"),
    ("not_colourable", 7, None),
    ("not_colourable", 1, None),
    ("colourable", 1, "6afa989769cacc4b"),
    ("colourable", 1, "9521ef8bdfc9d81d"),
    ("not_colourable", 1, None),
    ("not_colourable", 1, None),
    ("colourable", 1, "e6ff6e13c6be24ce"),
    ("colourable", 1, "8b27db39bcbe49b4"),
    ("not_colourable", 1, None),
    ("not_colourable", 0, None),
    ("colourable", 10, "88af0e19cef029fb"),
    ("not_colourable", 14, None),
    ("colourable", 4, "2684e8988e1e038c"),
    ("budget_exceeded", 0, None),
    ("not_colourable", 1, None),
]


def _pinned_outcome(case):
    kind, x, trial, budget = case
    s, constraints = _pinned_instance(kind, x, trial)
    out = find_schur_colouring(s, constraints, DEFAULT_BUDGET if budget is None else budget)
    return out.status.value, out.nodes_explored, _digest(out.witness)


class TestPinnedSearchTree:
    """The search visits the same nodes in the same order as the recursive
    solver it replaced (bar the mirrored half of a free refutation): same
    verdicts, node counts, budget cut-offs and witnesses, and the same
    deletion-order obstructions."""

    @pytest.mark.parametrize("case,expected", PINNED_TREES)
    def test_solve(self, case, expected, monkeypatch):
        # the certificate and the search alone: no split colouring
        monkeypatch.setattr(solver_module, "split_witness", lambda s: None)
        assert _pinned_outcome(case) == expected

    @pytest.mark.parametrize(
        "case,expected", [(case, out) for (case, _), out in zip(PINNED_TREES, PINNED_OUTCOMES)]
    )
    def test_find_schur_colouring(self, case, expected):
        assert _pinned_outcome(case) == expected

    @pytest.mark.parametrize("trial", sorted(PINNED_OBSTRUCTIONS))
    def test_minimal_obstruction(self, trial):
        s, constraints = _pinned_instance("sparse", 2.0, trial)
        res = minimal_obstruction(s, constraints)
        assert res.status is Status.NOT_COLOURABLE
        assert (res.nodes_explored, res.hypergraph.edges) == PINNED_OBSTRUCTIONS[trial]


def reference_obstruction(s: IntSet, constraints=None, budget: int = 10**7):
    """The plain deletion loop that the core-guided one replaced: for each
    hosting edge in descending order, search the kept edges without it and
    drop it when they stay uncolourable. (status, edges or None, nodes)."""
    if constraints is None:
        constraints = ColourConstraint.free()
    edges = hosting_sets(s)
    out = _solve_edges(s, edges, constraints, budget)
    nodes = out.nodes_explored
    if out.status is not Status.NOT_COLOURABLE:
        return out.status, None, nodes
    current = list(edges)
    for edge in sorted(edges, reverse=True):
        trial = [e for e in current if e != edge]
        out = _solve_edges(s, trial, constraints, budget)
        nodes += out.nodes_explored
        if out.status is Status.BUDGET_EXCEEDED:
            return out.status, None, nodes
        if out.status is Status.NOT_COLOURABLE:
            current = trial
    return Status.NOT_COLOURABLE, current, nodes


def _obstruction(s: IntSet, constraints=None, budget: int = 10**7):
    res = minimal_obstruction(s, constraints, budget)
    edges = res.hypergraph.edges if res.hypergraph else None
    return res.status, edges, res.nodes_explored


# sparse:200,14 forced blue at x th (trials 0..5 of seed 1), and [k]
DIFF_CORPUS = [("sparse", x, t) for x in (2.0, 3.0, 4.0) for t in range(6)] + [
    ("full", k, 0) for k in range(5, 16)
]


# (n, elements of [n], forced colours): a small set with up to 4 elements
# forced to one colour
SMALL_FORCED_SETS = st.integers(3, 16).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(1, n), min_size=1),
        st.dictionaries(st.integers(1, n), st.sampled_from([RED, BLUE]), max_size=4),
    )
)


def _small_forced_instance(n, elems, forced):
    constraints = ColourConstraint(
        no_red=sum(1 << e for e, c in forced.items() if c == BLUE),
        no_blue=sum(1 << e for e, c in forced.items() if c == RED),
    )
    return IntSet(n, elems), constraints


class TestObstructionAgainstReference:
    """Core-guided deletion with model rotation returns the plain loop's
    status and edge list, and never searches more."""

    @pytest.mark.parametrize("case", DIFF_CORPUS)
    def test_same_obstruction(self, case):
        s, constraints = _pinned_instance(*case)
        status, edges, nodes = _obstruction(s, constraints)
        ref_status, ref_edges, ref_nodes = reference_obstruction(s, constraints)
        assert (status, edges) == (ref_status, ref_edges)
        assert nodes <= ref_nodes

    @settings(max_examples=150, deadline=None)
    @given(SMALL_FORCED_SETS)
    def test_small_sets_with_forced_colours(self, args):
        s, constraints = _small_forced_instance(*args)
        status, edges, nodes = _obstruction(s, constraints)
        ref_status, ref_edges, ref_nodes = reference_obstruction(s, constraints)
        assert (status, edges) == (ref_status, ref_edges)
        assert nodes <= ref_nodes

    @pytest.mark.parametrize("case", DIFF_CORPUS[::2])
    def test_budgets(self, case):
        """A skipped deletion uses no budget, so the change runs out only
        where the plain loop does; where only the plain loop runs out, the
        change returns the unbudgeted obstruction."""
        s, constraints = _pinned_instance(*case)
        unbudgeted = _obstruction(s, constraints)[:2]
        for budget in range(1, 22):
            status, edges, _ = _obstruction(s, constraints, budget)
            ref_status, ref_edges, _ = reference_obstruction(s, constraints, budget)
            if ref_status is Status.BUDGET_EXCEEDED:
                assert status is Status.BUDGET_EXCEEDED or (status, edges) == unbudgeted
            else:
                assert (status, edges) == (ref_status, ref_edges) == unbudgeted


class _CheckedState(_SearchState):
    """A search state that checks each run against a fresh one on the
    explicit list of its linked edges, kept here apart from the state's own
    incidence lists."""

    runs = 0

    def __init__(self, allowed, edges):
        super().__init__(allowed, edges)
        self.linked = set(range(len(edges)))

    def drop(self, e):
        super().drop(e)
        self.linked.remove(e)

    def relink(self, e):
        super().relink(e)
        self.linked.add(e)

    def run(self, budget):
        status, colour, nodes, core = super().run(budget)
        ids = sorted(self.linked)
        fresh = _SearchState(self.allowed, [self.edges[i] for i in ids]).run(budget)
        assert (status, nodes, core) == (fresh[0], fresh[2], [ids[j] for j in fresh[3]])
        if status is Status.COLOURABLE:
            assert colour == fresh[1]
        assert self.incident == [
            [i for i in ids if v in self.edges[i]] for v in range(len(self.allowed))
        ]
        _CheckedState.runs += 1
        return status, colour, nodes, core


def _checked_obstruction(s: IntSet, constraints) -> int:
    """minimal_obstruction on checked search states; the number of runs."""
    _CheckedState.runs = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_SearchState", _CheckedState)
        minimal_obstruction(s, constraints)
    return _CheckedState.runs


def _replay(allowed, edges, steps) -> None:
    """Run, drop and relink edges on one checked state: each step is "run"
    or ("drop" | "relink", edge)."""
    state = _CheckedState(allowed, edges)
    for step in steps:
        if step == "run":
            state.run(100)
        else:
            getattr(state, step[0])(step[1])


class TestReusedSearchState:
    """Every search that minimal_obstruction runs on its one search state,
    with edges dropped and relinked and the root kept between runs, returns
    what a fresh search on the explicit list of kept edges returns: the
    same status, node count and core, and the same witness."""

    @pytest.mark.parametrize("case", DIFF_CORPUS)
    def test_corpus(self, case):
        s, constraints = _pinned_instance(*case)
        assert _checked_obstruction(s, constraints) >= 1

    @settings(max_examples=150, deadline=None)
    @given(SMALL_FORCED_SETS)
    def test_small_sets_with_forced_colours(self, args):
        _checked_obstruction(*_small_forced_instance(*args))

    def test_drop_of_a_root_reason(self):
        # seed 0 blue forces 1 red by edge 0, which forces 2 blue by edge 1;
        # without edge 0 the root colours 0 alone and the search branches
        _replay([(0,), (0, 1), (0, 1)], [(0, 1), (1, 2)], ["run", ("drop", 0), "run"])

    def test_relink_that_forces_at_the_root(self):
        # edge 1 = (0, 1, 3) is not the reason of 1 (edge 0 forces it
        # first), so dropping it keeps the root; once edge 0 is dropped too,
        # the root leaves 1 uncoloured, and relinking edge 1, whose other
        # two vertices are blue seeds, forces 1 red at the root again
        _replay(
            [(0,), (0, 1), (0, 1), (0,)],
            [(0, 1), (0, 1, 3), (1, 2)],
            ["run", ("drop", 1), "run", ("drop", 0), "run", ("relink", 1), "run",
             ("relink", 0), "run"],
        )

    def test_edges_of_two_or_three_vertices(self):
        with pytest.raises(ValueError, match="2 or 3 vertices"):
            _search([(0, 1)] * 4, [(0, 1), (0, 1, 2, 3)], 10)

    def test_root_conflict_then_drop(self):
        # seeds 0 and 1 blue make edge 0 monochromatic at the root
        _replay(
            [(0,), (0,), (0, 1)],
            [(0, 1), (0, 2), (1, 2)],
            ["run", ("drop", 0), "run", ("relink", 0), "run"],
        )


def _colourable(allowed, edges) -> bool:
    """Exhaustive: some colouring within allowed leaves no edge monochromatic."""
    return any(
        all(c in a for c, a in zip(colour, allowed))
        and all(len({colour[v] for v in edge}) == 2 for edge in edges)
        for colour in itertools.product((0, 1), repeat=len(allowed))
    )


ALLOWED_CHOICES = ((0, 1),) * 6 + ((0,), (0,), (1,))


def _random_instance(rng: random.Random):
    """Up to 9 vertices, 2- and 3-edges, and some vertices with one allowed
    colour (code 0 is blue, as with force_blue) or none."""
    n_vertices = rng.randint(2, 9)
    edges = sorted(
        {
            tuple(sorted(rng.sample(range(n_vertices), min(k, n_vertices))))
            for k in rng.choices((2, 3), k=rng.randint(1, 14))
        }
    )
    allowed = [rng.choice(ALLOWED_CHOICES) for _ in range(n_vertices)]
    if rng.random() < 0.02:
        allowed[rng.randrange(n_vertices)] = ()
    return allowed, edges


class TestCoreAndRotation:
    """The unsat core of the search is uncolourable, and every edge that
    model rotation marks necessary leaves a colourable set when deleted."""

    def test_monochromatic_conflict_core(self):
        # an odd cycle of 2-edges fails on a monochromatic edge; the pendant
        # edge (2, 3) is forced but takes no part in any conflict
        allowed = [(0, 1)] * 4
        edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
        status, _, _, core = _search(allowed, edges, 100)
        assert status is Status.NOT_COLOURABLE
        assert core == [0, 1, 2]

    def test_disallowed_force_core(self):
        # 0 and 1 blue force 2 red, which it does not allow; (0, 3) forces 3
        allowed = [(0,), (0,), (0,), (0, 1)]
        edges = [(0, 3), (0, 1, 2)]
        status, _, nodes, core = _search(allowed, edges, 100)
        assert (status, nodes, core) == (Status.NOT_COLOURABLE, 0, [1])

    def test_empty_allowed_core(self):
        status, _, _, core = _search([(0, 1), ()], [(0, 1)], 100)
        assert (status, core) == (Status.NOT_COLOURABLE, [])

    def test_random_cores_uncolourable(self):
        rng = random.Random(7)
        refuted = 0
        for _ in range(1500):
            allowed, edges = _random_instance(rng)
            status, _, _, core = _search(allowed, edges, 10**6)
            assert status is (Status.COLOURABLE if _colourable(allowed, edges) else Status.NOT_COLOURABLE)
            if status is Status.NOT_COLOURABLE:
                refuted += 1
                assert core == sorted(set(core))
                assert not _colourable(allowed, [edges[i] for i in core])
        assert refuted > 300

    def test_random_rotation_marks_necessary_edges(self):
        rng = random.Random(8)
        marked_total = 0
        for _ in range(1500):
            allowed, edges = _random_instance(rng)
            kept = [rng.random() < 0.8 for _ in edges]
            kept_edges = [edge for edge, k in zip(edges, kept) if k]
            if not all(allowed) or _colourable(allowed, kept_edges):
                continue
            incident = [
                [i for i, edge in enumerate(edges) if kept[i] and v in edge]
                for v in range(len(allowed))
            ]
            for e in (i for i, k in enumerate(kept) if k):
                rest = [edge for i, edge in enumerate(edges) if kept[i] and i != e]
                status, colour, _, _ = _search(allowed, rest, 10**6)
                if status is not Status.COLOURABLE:
                    continue
                necessary = [False] * len(edges)
                necessary[e] = True
                _rotate(e, colour, allowed, edges, incident, necessary)
                for f, is_necessary in enumerate(necessary):
                    if is_necessary and f != e:
                        marked_total += 1
                        assert kept[f]
                        without = [edge for i, edge in enumerate(edges) if kept[i] and i != f]
                        assert _colourable(allowed, without)
        assert marked_total > 100


# the parent search's node counts on the pinned dense refutations, when the
# root tried both colours
FULL_REFUTATIONS = [
    (("dense", 1.0, 1), 14),
    (("dense", 1.0, 2), 14),
    (("dense", 1.5, 1), 38),
    (("dense", 1.5, 2), 14),
]


class TestRootSymmetry:
    """With no one-colour vertex the root tries one colour: a refutation
    costs half the nodes, and its core stays uncolourable."""

    @pytest.mark.parametrize("case,full_tree", FULL_REFUTATIONS)
    def test_refutation_halved(self, case, full_tree):
        s, _ = _pinned_instance(*case)
        out = _solve_edges(s, hosting_sets(s), ColourConstraint.free(), DEFAULT_BUDGET)
        assert (out.status, out.nodes_explored) == (Status.NOT_COLOURABLE, full_tree // 2)

    def test_opposite_forces_refuted_by_monochromatic_edge(self):
        # Vertex 0 is the root and takes colour 0; its incident loop queues
        # forces 1 -> 1 (edge 0) and 2 -> 1 (edge 1). Colouring 2 queues the
        # opposite force 1 -> 0 (edge 2) on top of 1 -> 1, so 1 takes colour
        # 0 and edge 0 turns monochromatic before 1 -> 1 is popped.
        allowed = [(0, 1)] * 3
        edges = [(0, 1), (0, 2), (1, 2)]
        status, _, nodes, core = _search(allowed, edges, 100)
        assert (status, nodes, core) == (Status.NOT_COLOURABLE, 1, [0, 1, 2])
        assert not _colourable(allowed, [edges[i] for i in core])

    def test_random_free_cores_uncolourable(self):
        rng = random.Random(9)
        refuted = 0
        for _ in range(1500):
            _, edges = _random_instance(rng)
            allowed = [(0, 1)] * (1 + max(v for edge in edges for v in edge))
            status, _, _, core = _search(allowed, edges, 10**6)
            assert status is (Status.COLOURABLE if _colourable(allowed, edges) else Status.NOT_COLOURABLE)
            if status is Status.NOT_COLOURABLE:
                refuted += 1
                assert not _colourable(allowed, [edges[i] for i in core])
        assert refuted > 100


def _criterion3_configs():
    """The L1 and L2 sets of acceptance criterion 3, from suite_prop31."""
    return [s for _, s in prop31_instances()]


def _sweep_dense_trials(seed: int = 11, trials: int = 390):
    """The instances of a sweep of dense0:300,15 at th/2, th and 3 th/2 with
    sweep()'s global trial indices (the sweep_dense benchmark inputs of a
    15 s run)."""
    base = construct_by_name("dense0:300,15").A
    th = min(300 ** (-2 / 3), 1 / 15)
    return [
        base.union(sample_perturbation(300, m * th, RngSpec(seed), i * trials + j))
        for i, m in enumerate((0.5, 1.0, 1.5))
        for j in range(trials)
    ]


def _subsets_of_12():
    return [IntSet(12, [i + 1 for i in range(12) if mask >> i & 1]) for mask in range(1 << 12)]


def _dense_corpus():
    """22 seeded trials of dense0:300,15 and of dense0:120,6 at each of
    th/8, th/4, ..., 8 th."""
    out = []
    for name, n, t in (("dense0:300,15", 300, 15), ("dense0:120,6", 120, 6)):
        base = construct_by_name(name).A
        th = min(n ** (-2 / 3), 1 / t)
        for k in range(-3, 4):
            out += [base.union(sample_perturbation(n, th * 2.0**k, RngSpec(3), i)) for i in range(22)]
    return out


def _certificate_corpus():
    return (
        _dense_corpus()
        + _sweep_dense_trials()[::5]
        + _criterion3_configs()
        + [IntSet.full(k) for k in range(1, 41)]
    )


def _mod5_sets():
    """mod5_construction(n), which holds no copy, alone and with seeded
    perturbations at p = 2^-k."""
    out = []
    for n in (50, 300, 1000, 3000):
        base = construct_by_name("mod5", n)[0]
        out.append(base)
        out += [base.union(sample_perturbation(n, 2.0**-k, RngSpec(5), k)) for k in range(2, 9)]
    return out


def _certificate_values(cert):
    name, a, x, d = cert
    return (l1_values if name == "L1" else l2_values)(a, x, d)


def _check_checker(checker) -> None:
    """checker agrees with the independent enumeration on L1/L2 sets and on
    colourable 11-value sets next to them."""
    rng = random.Random(4)
    colourable = 0
    for _ in range(150):
        d, a = rng.randint(1, 6), rng.randint(1, 20)
        x = rng.randint(a + 3 * d + 1, a + 3 * d + 30)
        values = rng.choice((l1_values, l2_values))(a, x, d)
        near = list(values)
        near[rng.randrange(11)] += rng.randint(1, 5)
        for vals in (values, near):
            expected = is_schur_mask(IntSet(max(vals), vals).mask)
            colourable += not expected
            assert checker(vals) is expected, vals
    assert colourable > 25


class TestCertificate:
    """Every L1/L2 certificate is a subset of s and uncolourable, and the
    certificate never changes the status the search gives."""

    def test_checker_agrees_with_enumeration(self):
        _check_checker(_uncolourable)

    def test_checker_that_accepts_a_colourable_set_fails(self):
        def mutant(values):
            return len(set(values)) == 11 or _uncolourable(values)

        with pytest.raises(AssertionError):
            _check_checker(mutant)

    def test_copy_outside_the_set_rejected(self):
        values = l1_values(1, 1, 1)  # {1, ..., 5}, which is Schur
        assert _uncolourable(values)
        assert _certified(IntSet.full(5).mask, values)
        assert not _certified(IntSet.full(4).mask, values)

    def test_certificates_sound(self):
        found = 0
        for s in _certificate_corpus():
            cert = schur_certificate(s)
            if cert is None:
                continue
            found += 1
            values = _certificate_values(cert)
            assert set(values) <= set(s)
            assert is_schur_mask(IntSet(max(values), values).mask)
        assert found > 450

    @pytest.mark.parametrize("corpus", [_certificate_corpus, _mod5_sets, _sweep_dense_trials])
    def test_shift_and_fft_paths_agree(self, corpus, monkeypatch):
        """Each step forced onto the big-int path, and each forced onto the
        FFT path, gives the same (name, a, x, d) as the dispatch."""
        sets = corpus()
        taken = []
        cheaper = solver_module._shifts_cheaper

        def spy(*args):
            taken.append(cheaper(*args))
            return taken[-1]

        monkeypatch.setattr(solver_module, "_shifts_cheaper", spy)
        found = [schur_certificate(s) for s in sets]
        assert True in taken and False in taken
        assert any(found)
        for forced in (True, False):
            monkeypatch.setattr(solver_module, "_shifts_cheaper", lambda *_: forced)
            assert [schur_certificate(s) for s in sets] == found

    def test_no_certificate_in_colourable_sets(self):
        assert schur_certificate(IntSet.full(4)) is None
        mod5 = construct_by_name("mod5", 300)[0]
        assert schur_certificate(mod5) is None

    def test_scan_cap(self, monkeypatch):
        s = IntSet.full(40)
        assert schur_certificate(s) == ("L1", 1, 1, 1)
        monkeypatch.setattr(solver_module, "CERTIFICATE_CELLS", 1)
        assert schur_certificate(s) is None
        assert find_schur_colouring(s).status is Status.NOT_COLOURABLE

    def test_certificate_counts_one_trial(self):
        s = IntSet.full(20)
        assert find_schur_colouring(s, budget=1).nodes_explored == 1
        assert find_schur_colouring(s, budget=0).status is Status.BUDGET_EXCEEDED
        constrained = find_schur_colouring(s, ColourConstraint.force_blue([20]))
        assert constrained.status is Status.NOT_COLOURABLE
        assert constrained.nodes_explored > 1  # searched: not every element is free

    @pytest.mark.parametrize(
        "corpus", [_dense_corpus, _sweep_dense_trials, _criterion3_configs, _subsets_of_12]
    )
    def test_same_status_as_search(self, corpus):
        """find_schur_colouring, with its certificate, split colouring and
        sum-free shortcut, gives the plain search's status."""
        for s in corpus():
            plain = _solve_edges(s, hosting_sets(s), ColourConstraint.free(), DEFAULT_BUDGET)
            assert find_schur_colouring(s).status is plain.status


def _proper(s: IntSet, colouring: Colouring) -> bool:
    """No hosting set of s is monochromatic, checked edge by edge."""
    return all(len({v in colouring.red for v in e}) == 2 for e in hosting_sets(s))


def _witness_corpus():
    return _sweep_dense_trials() + _subsets_of_12() + _criterion3_configs()


def _bits(values) -> int:
    return sum(1 << v for v in values)


def _splits(s: IntSet):
    """(blue core, red core) masks and the low elements of each split that
    split_witness tries, in its order, restated on the sorted elements."""
    elems = s.elements()
    top = elems[-1] if elems else -1
    low = solver_module.SPLIT_LOW
    bound = elems[low] if len(elems) > low else top
    for low_end in range(min((top + 1) // 2, bound), 0, -1)[: solver_module.SPLIT_POINTS]:
        m = min(2 * low_end - 1, top - 1)
        if m < top // 2:
            return
        cores = _bits(v for v in elems if low_end <= v <= m), _bits(v for v in elems if v > m)
        yield cores, [v for v in elems if v < low_end]


def _joins(cores: tuple[int, int], x: int) -> list[int]:
    """The cores (0 blue, 1 red) that x joins without making a sum."""
    return [c for c in (0, 1) if is_sum_free_mask(cores[c] | 1 << x)]


def _forced_colouring(cores: tuple[int, int], low: list[int]) -> tuple[int, int] | None:
    """(red, blue) masks that give each low element the one core it joins;
    None when some element joins both or neither."""
    classes = list(cores)
    for x in low:
        joins = _joins(cores, x)
        if len(joins) != 1:
            return None
        classes[joins[0]] |= 1 << x
    return classes[1], classes[0]


def _masks(w: Colouring | None) -> tuple[int, int] | None:
    return None if w is None else (w.red.mask, w.blue.mask)


# sha256 of the _digest of split_witness on each _witness_corpus() set, one
# line each
PINNED_WITNESSES = "4e322f3033b6528334fefe334101b0c0a4de329813e1e6ca5c847992b9464af2"


class TestSplitWitness:
    """Every split colouring is proper. Split by split, the sum-free gate
    judges the one colouring that gives each low element the one core it
    can join, and split_witness returns the first that passes; the gate is
    the only check of the sums among low elements."""

    def test_results_pinned(self):
        text = "\n".join(str(_digest(split_witness(s))) for s in _witness_corpus())
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_WITNESSES

    def test_gate_judges_each_forced_colouring(self, monkeypatch):
        seen = []
        gate = solver_module._classes_sum_free

        def spy(*classes):
            seen.append(tuple(c.mask for c in classes))
            return gate(*classes)

        monkeypatch.setattr(solver_module, "_classes_sum_free", spy)
        rejected = 0
        for s in _witness_corpus():
            seen.clear()
            w = split_witness(s)
            forced = [c for c in itertools.starmap(_forced_colouring, _splits(s)) if c is not None]
            passed = [c for c in forced if all(map(is_sum_free_mask, c))]
            assert seen == (forced[: forced.index(passed[0]) + 1] if passed else forced)
            assert _masks(w) == (passed[0] if passed else None)
            rejected += len(seen) - (w is not None)
        # the colourings that fail the gate, all on sums among low elements
        assert rejected > 8000

    def test_witnesses_proper(self):
        found = 0
        for s in _witness_corpus():
            w = split_witness(s)
            if w is not None:
                found += 1
                assert w.red.union(w.blue) == s
                assert _proper(s, w)
                assert validate_colouring(s, w) == []
        assert found > 3000

    def test_decides_most_colourable_sweep_trials(self):
        decided = colourable = 0
        for s in _sweep_dense_trials():
            if find_schur_colouring(s).status is Status.COLOURABLE:
                colourable += 1
                decided += split_witness(s) is not None
        assert (colourable, decided) == (828, 824)

    def test_extension_agrees_with_enumeration(self):
        """Random sets in [16], so each split has at most 7 low elements.
        When each low element can join exactly one core, split_witness
        takes the split whenever some colouring of the low elements
        extends the cores to sum-free classes; a split where an element
        can join both is skipped. It returns the first split taken."""
        rng = random.Random(11)
        extended = refuted = open_choice = 0
        for _ in range(1500):
            n = rng.randint(1, 16)
            s = IntSet(n, rng.sample(range(1, n + 1), rng.randint(0, n)))
            first = None
            for cores, low in _splits(s):
                joins = [len(_joins(cores, x)) for x in low]
                forced = _forced_colouring(cores, low)
                if 2 in joins and 0 not in joins:
                    open_choice += 1
                    assert forced is None
                    continue
                extensions = []
                for red in itertools.product((0, 1), repeat=len(low)):
                    to_red = _bits(itertools.compress(low, red))
                    extensions.append((cores[1] | to_red, cores[0] | _bits(low) ^ to_red))
                proper = [c for c in extensions if all(map(is_sum_free_mask, c))]
                assert proper == ([forced] if forced and all(map(is_sum_free_mask, forced)) else [])
                if proper:
                    extended += 1
                    first = first or proper[0]
                else:
                    refuted += 1
            assert _masks(split_witness(s)) == first
        assert extended > 1000 and refuted > 1000 and open_choice > 500

    def test_gate_rejects_a_wrong_extension(self, monkeypatch):
        trials = _sweep_dense_trials()[::10]
        for s in trials:
            w = split_witness(s)
            assert w is None or _proper(s, w)
        # with no gate, about half of these trials get a colouring with a
        # sum among its low elements
        monkeypatch.setattr(solver_module, "_classes_sum_free", lambda *classes: True)
        unchecked = [(s, split_witness(s)) for s in trials]
        assert sum(not _proper(s, w) for s, w in unchecked if w is not None) > 40

    def test_caps(self, monkeypatch):
        s = _sweep_dense_trials()[0]
        assert split_witness(s) is not None
        monkeypatch.setattr(solver_module, "SPLIT_POINTS", 0)
        assert split_witness(s) is None
        assert find_schur_colouring(s).nodes_explored > 1

    def test_witness_counts_one_trial(self):
        s = _sweep_dense_trials()[0]
        assert split_witness(s) is not None
        out = find_schur_colouring(s, budget=1)
        assert (out.status, out.nodes_explored) == (Status.COLOURABLE, 1)
        assert find_schur_colouring(s, budget=0).status is Status.BUDGET_EXCEEDED
        constrained = find_schur_colouring(s, ColourConstraint.force_blue([300]))
        assert constrained.nodes_explored > 1  # searched: not every element is free

    def test_small_sets(self):
        for s in (IntSet(1), IntSet(1, [1]), IntSet(2, [1, 2]), IntSet(3, [2, 3])):
            w = split_witness(s)
            assert w is None or _proper(s, w)


def _searched_instance():
    """A dense0:3000,60 trial at 2 th that neither a certificate nor a split
    colouring decides, with 14,448 hosting sets."""
    n, t = 3000, 60
    th = min(n ** (-2 / 3), 1 / t)
    s = construct_by_name(f"dense0:{n},{t}").A.union(sample_perturbation(n, 2 * th, RngSpec(3), 1))
    assert schur_certificate(s) is None and split_witness(s) is None
    return s


def _unexpected(*_):
    raise AssertionError("called over the cap")


class TestHostingSetCap:
    """A set with more than HOSTING_SET_CAP hosting sets gets
    BUDGET_EXCEEDED with no hypergraph built; the free bound |s & [1,
    max/2]| * |s| spares the exact count when it is within the cap."""

    def _peak(self, s):
        tracemalloc.start()
        try:
            out = find_schur_colouring(s)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_over_the_cap_builds_nothing(self, monkeypatch):
        s = _searched_instance()
        count = count_hosting_sets(s)
        assert count == len(hosting_sets(s)) == 14448
        searched, searched_peak = self._peak(s)
        assert searched.status is Status.COLOURABLE and searched.nodes_explored > 1
        monkeypatch.setattr(solver_module, "HOSTING_SET_CAP", count - 1)
        monkeypatch.setattr(solver_module, "_hosting_instance", _unexpected)
        out, peak = self._peak(s)
        assert (out.status, out.witness, out.nodes_explored) == (Status.BUDGET_EXCEEDED, None, 0)
        assert VERDICT[out.status] is SchurStatus.UNKNOWN
        # the build and the search take about 230 bytes per hosting set
        assert 8 * peak < searched_peak

    def test_million_scale_set_refused_unbuilt(self, monkeypatch):
        # dense0:1000000,100 at 8 th: no copy, no split colouring, and about
        # 10^8 hosting sets, some 23 GB as a hypergraph
        n, t = 10**6, 100
        th = min(n ** (-2 / 3), 1 / t)
        s = construct_by_name(f"dense0:{n},{t}").A.union(sample_perturbation(n, 8 * th, RngSpec(3), 0))
        monkeypatch.setattr(solver_module, "_hosting_instance", _unexpected)
        out, peak = self._peak(s)
        assert (out.status, out.nodes_explored) == (Status.BUDGET_EXCEEDED, 0)
        assert peak < 64 * 2**20

    def test_obstruction_over_the_cap_builds_nothing(self, monkeypatch):
        # minimal_obstruction refuses the same set before its build; the
        # empty set is under any cap
        assert minimal_obstruction(IntSet(5)).status is Status.COLOURABLE
        s = _searched_instance()
        count = count_hosting_sets(s)
        tracemalloc.start()
        try:
            minimal_obstruction(s, budget=1)
            built_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(solver_module, "HOSTING_SET_CAP", count - 1)
        monkeypatch.setattr(solver_module, "_hosting_instance", _unexpected)
        tracemalloc.start()
        try:
            out = minimal_obstruction(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.status, out.hypergraph, out.nodes_explored) == (Status.BUDGET_EXCEEDED, None, 0)
        assert 8 * peak < built_peak

    def test_within_the_cap_searches(self, monkeypatch):
        s = _searched_instance()
        expected = find_schur_colouring(s)
        count = count_hosting_sets(s)
        free = len(s) * sum(2 * x <= max(s) for x in s)
        assert count < free
        monkeypatch.setattr(solver_module, "HOSTING_SET_CAP", count)
        assert find_schur_colouring(s) == expected  # counted exactly
        monkeypatch.setattr(solver_module, "HOSTING_SET_CAP", free)
        monkeypatch.setattr(solver_module, "count_hosting_sets", _unexpected)
        assert find_schur_colouring(s) == expected  # the free bound suffices


def _sum_free_instances():
    """Sum-free sets with assorted colour constraints and budgets."""
    rng = random.Random(5)
    out = []
    for n in (1, 7, 30, 301):
        odd = odd_set(n)
        out += [(odd, None, DEFAULT_BUDGET), (odd, None, 0)]
    for _ in range(60):
        n = rng.randint(1, 60)
        mask = 0
        for v in rng.sample(range(1, n + 1), rng.randint(0, n)):
            if is_sum_free_mask(mask | 1 << v):
                mask |= 1 << v
        s = IntSet(n, [v for v in range(1, n + 1) if mask >> v & 1])
        allowed = {
            v: rng.choice([(RED,), (BLUE,), (RED, BLUE), ()])
            for v in rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))
        }
        constraints = ColourConstraint(
            no_red=sum(1 << v for v, cs in allowed.items() if RED not in cs),
            no_blue=sum(1 << v for v, cs in allowed.items() if BLUE not in cs),
        )
        out.append((s, constraints, rng.choice([0, 1, DEFAULT_BUDGET])))
    return out


class TestSumFree:
    """A sum-free set gets the search's answer on no edges, with no
    hypergraph built, from find_schur_colouring and minimal_obstruction."""

    @pytest.mark.parametrize("case", _sum_free_instances())
    def test_same_outcome_as_search(self, case, monkeypatch):
        s, constraints, budget = case
        assert is_sum_free(s)
        mapped = _hosting_instance(s)[1]
        assert mapped == []
        expected = _solve_mapped(s, mapped, constraints or ColourConstraint(), budget)

        def unexpected(_):
            raise AssertionError("hypergraph built for a sum-free set")

        monkeypatch.setattr(solver_module, "_hosting_instance", unexpected)
        out = find_schur_colouring(s, constraints, budget)
        assert (out.status, out.nodes_explored, out.witness) == (
            expected.status,
            expected.nodes_explored,
            expected.witness,
        )
        res = minimal_obstruction(s, constraints, budget)
        edges = res.hypergraph.edges if res.hypergraph else None
        assert (res.status, edges, res.nodes_explored) == (
            expected.status,
            [] if expected.status is Status.NOT_COLOURABLE else None,
            expected.nodes_explored,
        )
