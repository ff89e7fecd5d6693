import json
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_HA, codegree_delta_exact, ha_stats
from schurperturb import colouring_hypergraph, intset
from schurperturb.colouring_hypergraph import (
    ContainerLike,
    claim48_density_witness,
    codegree_delta,
    container_case,
    ha_stats_fast,
    HAStats,
    is_compatible,
    partition_by_container,
)
from schurperturb.intset import IntSet, is_sum_free
from schurperturb.solver import (
    BLUE,
    RED,
    ColourConstraint,
    SchurStatus,
    Status,
    find_schur_colouring,
    is_schur,
)


def ref_constraint(s: IntSet, c: ContainerLike) -> ColourConstraint:
    """The per-element loop that ContainerLike.constraint replaced: each
    element of s allows the colours of the sides that hold it."""
    allowed: dict[int, frozenset[str]] = {}
    for e in s:
        cols = frozenset(col for col, side in ((RED, c.red_side), (BLUE, c.blue_side)) if e in side)
        allowed[e] = cols
    return ColourConstraint(
        no_red=sum(1 << e for e, cols in allowed.items() if RED not in cols),
        no_blue=sum(1 << e for e, cols in allowed.items() if BLUE not in cols),
    )


def ref_ha_stats_fast(a_set: IntSet, n: int) -> HAStats:
    """Reference: the cross-colour maximum from the full (n+1)^2 sum of
    outer products."""
    elems = a_set.elements()
    if not elems:
        return HAStats(0, 0.0, 0, 0, 0)
    k = {a: (a - 1) // 2 + (n - a) - (1 if a <= n - a else 0) for a in elems}
    double_pairs = []
    for i, a in enumerate(elems):
        for a2 in elems[:i]:
            if a <= a2 or (a - a2) % 2 or a == 3 * a2:
                continue
            u, v = (a - a2) // 2, (a + a2) // 2
            if u >= 1 and v <= n:
                double_pairs.append((a, a2, (u, v)))
    e = sum(v * v for v in k.values()) - len(double_pairs)
    idx = np.arange(n + 1)
    c = {}
    for a in elems:
        c[a] = (
            ((idx <= a - 1) & (a - idx >= 1) & (a != 2 * idx) & (idx >= 1)).astype(np.int64)
            + ((idx + a <= n) & (idx != a) & (idx >= 1))
            + ((idx - a >= 1) & (idx != 2 * a))
        )
    d2_same = max((v for v in k.values() if v > 0), default=0)
    for a, a2, _ in double_pairs:
        d2_same = max(d2_same, k[a] + k[a2] - 1)
    m = np.zeros((n + 1, n + 1), dtype=np.int64)
    for a in elems:
        m += np.outer(c[a], c[a])
    for _, _, q in double_pairs:
        for x in q:
            for z in q:
                m[x, z] -= 1
    d2_cross = int(m.max()) if e else 0
    delta3 = 0
    for a in elems:
        if k[a] > 0:
            delta3 = max(delta3, int(c[a].max()))
    for a, a2, q in double_pairs:
        vec = c[a] + c[a2]
        for x in q:
            vec[x] -= 1
        delta3 = max(delta3, int(vec.max()))
    return HAStats(e, 4 * e / (2 * n), max(d2_same, d2_cross), delta3, 1 if e else 0)


def fresh_python(code: str) -> str:
    """The stdout of code run by a fresh interpreter that finds the package."""
    src = os.path.dirname(os.path.dirname(colouring_hypergraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def ref_density_witness(c: ContainerLike):
    """claim48_density_witness's definition, one element at a time."""
    _, r, b, _ = partition_by_container(c)
    red, blue = set(r), set(b)
    r_count = b_count = 0
    for eta in range(1, c.n + 1):
        r_count += eta in red
        b_count += eta in blue
        if eta >= (c.n + 1) // 2:
            if 20 * r_count >= 9 * eta:
                return eta, "R"
            if 20 * b_count >= 9 * eta:
                return eta, "B"
    return None


def oracle_edges(a_set: IntSet, n: int):
    """Quadruple-loop oracle over (x, y, z, w): collect edges with targets."""
    edges = {}
    for a in a_set:
        for x in range(1, n + 1):
            for y in range(x + 1, n + 1):
                if not _hosts(a, x, y, n):
                    continue
                for z in range(1, n + 1):
                    for w in range(z + 1, n + 1):
                        if _hosts(a, z, w, n):
                            key = (frozenset((x, y)), frozenset((z, w)))
                            edges.setdefault(key, set()).add(a)
    return {k: tuple(sorted(v)) for k, v in edges.items()}


def _hosts(a, u, v, n):
    # {a, u, v} hosts a nondegenerate Schur triple with target a
    if len({a, u, v}) != 3 or max(u, v) > n:
        return False
    return u + v == a or a + u == v or a + v == u


class TestBuildHA:
    def test_worked_example(self):
        h = build_HA(IntSet(4, [3]), 4)
        pairs = {frozenset((1, 2)), frozenset((1, 4))}
        assert len(h.edges) == 4
        for rp, bp, targets in h.edges:
            assert rp in pairs and bp in pairs
            assert targets == (3,)

    def test_empty_base(self):
        assert build_HA(IntSet(10), 10).edges == []

    def test_no_hosting_pairs(self):
        # a = 1 in [2]: no sum pairs, only {u, u+1} with u != 1 -> none in [2]
        assert build_HA(IntSet(2, [1]), 2).edges == []

    def test_against_oracle(self):
        rng = random.Random(13)
        for _ in range(12):
            n = rng.randint(5, 24)
            size = rng.randint(1, min(6, n))
            a = IntSet(n, rng.sample(range(1, n + 1), size))
            h = build_HA(a, n)
            got = {(rp, bp): targets for rp, bp, targets in h.edges}
            assert got == oracle_edges(a, n)

    def test_base_outside_ground(self):
        for stats in (build_HA, ha_stats_fast):
            for a_set in (IntSet(10, [9]), IntSet(30, [20])):
                with pytest.raises(ValueError, match=r"base set must live inside \[1, n\]"):
                    stats(a_set, 5)
        assert ha_stats_fast(IntSet(30, [5]), 5) == ha_stats(build_HA(IntSet(30, [5]), 5))


class TestStats:
    def test_worked_example(self):
        st = ha_stats(build_HA(IntSet(4, [3]), 4))
        assert st.edge_count == 4
        assert st.average_degree == 2.0
        assert st.max_quad_degree == 1

    def test_fast_matches_direct(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(5, 45)
            size = rng.randint(1, max(1, n // 2))
            a = IntSet(n, rng.sample(range(1, n + 1), size))
            assert ha_stats_fast(a, n) == ha_stats(build_HA(a, n))

    def test_empty(self):
        assert ha_stats_fast(IntSet(10), 10).edge_count == 0

    def test_imports_no_numpy_ma(self):
        # np.unique with no optional output imports numpy.ma on first use,
        # 10-20 ms once per process; a fresh process shows whether it ran
        code = (
            "import sys\n"
            "from schurperturb import IntSet\n"
            "from schurperturb.colouring_hypergraph import ha_stats_fast\n"
            "ha_stats_fast(IntSet(70, [5, 9, 14, 22, 31, 40, 41, 42, 43, 44]), 70)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert fresh_python(code) == "False\n"

    def test_import_loads_no_multiprocessing(self):
        # the process pool of a sweep is imported only when workers > 1
        code = "import sys\nimport schurperturb\nprint('multiprocessing' in sys.modules)\n"
        assert fresh_python(code) == "False\n"

    def test_fast_matches_outer_product_reference(self):
        rng = random.Random(45)
        a = IntSet(2000, rng.sample(range(1, 2001), 45))
        assert ha_stats_fast(a, 2000) == ref_ha_stats_fast(a, 2000)
        for _ in range(60):
            n = rng.randint(1, 150)
            a = IntSet(n, rng.sample(range(1, n + 1), rng.randint(0, n)))
            assert ha_stats_fast(a, n) == ref_ha_stats_fast(a, n)

    def test_shared_pairs_across_gram_row_blocks(self, monkeypatch):
        # Gram row blocks of at least two rows, 62 cells over at most 31
        # runs: the shared pairs {u, v} of 7 > 5 > 3 > 1 put corrections in
        # many blocks, on and off the diagonal
        monkeypatch.setattr(intset, "BLOCK_CELLS", 2 * 31)
        blocks = []
        gram = colouring_hypergraph._gram_row_blocks

        def spy(c):
            for r0, g in gram(c):
                blocks.append(len(g))
                yield r0, g

        monkeypatch.setattr(colouring_hypergraph, "_gram_row_blocks", spy)
        a = IntSet(30, [1, 3, 5, 7, 9, 11, 13, 21, 29])
        assert ha_stats_fast(a, 30) == ref_ha_stats_fast(a, 30)
        assert len(blocks) > 5 and max(blocks) <= 62 // 2
        rng = random.Random(46)
        for _ in range(30):
            n = rng.randint(5, 60)
            a = IntSet(n, rng.sample(range(1, n + 1), rng.randint(1, n // 2)))
            assert ha_stats_fast(a, n) == ref_ha_stats_fast(a, n)
        monkeypatch.setattr(intset, "BLOCK_CELLS", 1)
        a = IntSet(40, [2, 4, 6, 10, 20, 30, 40])
        assert ha_stats_fast(a, 40) == ref_ha_stats_fast(a, 40)
        # the blocks, stacked, are the whole Gram matrix of the runs
        for cells in (1, 62, 1 << 18):
            monkeypatch.setattr(intset, "BLOCK_CELLS", cells)
            for _ in range(10):
                n = rng.randint(5, 80)
                a = np.array(rng.sample(range(1, n + 1), rng.randint(1, n // 2)))
                starts, _ = colouring_hypergraph._runs(a, n)
                c = colouring_hypergraph._elem_pair_degrees(a, n, starts)
                g = np.concatenate([block for _, block in gram(c)])
                assert (g == c.T.astype(np.int64) @ c.astype(np.int64)).all()

    def test_even_and_half_targets(self):
        # targets whose excluded points a / 2, a and 2a fall on interval
        # ends: a = n / 2 (so 2a = n and a = n - a), 2a = n +- 1, even a
        rng = random.Random(47)
        for n in range(4, 41):
            halves = [x for x in (n // 2, (n + 1) // 2, n // 2 + 1) if 1 <= x <= n]
            evens = list(range(2, n + 1, 2))
            for members in (halves, evens, rng.sample(evens, max(1, len(evens) // 2)) + [n // 2]):
                a = IntSet(n, members)
                want = ref_ha_stats_fast(a, n)
                assert ha_stats_fast(a, n) == want
                if n <= 24:
                    assert want == ha_stats(build_HA(a, n))

    def test_memory_is_bounded(self):
        a = IntSet(2000, random.Random(7).sample(range(1, 2001), 45))
        tracemalloc.start()
        try:
            ha_stats_fast(a, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_large_ground_set_in_little_memory(self):
        # n = 10^5: about 9 |A| runs, so G is a few hundred rows square
        rng = random.Random(48)
        n, size = 10**5, 45
        a = IntSet(n, rng.sample(range(1, n + 1), size))
        tracemalloc.start()
        try:
            st = ha_stats_fast(a, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size * (n / 2 - 1) ** 2 / 2 <= st.edge_count <= size * n**2
        assert st.max_pair_degree <= 4 * n
        assert st.max_triple_degree <= 4
        assert st.max_quad_degree == 1
        assert st.max_pair_degree >= st.max_triple_degree >= st.max_quad_degree
        assert peak < 8 * 2**20

    def test_many_targets_memory(self):
        # |A| = 1000 at n = 2000: a quarter million shared pairs, every run
        # one element; the matrix-product version peaked at 45 MB here
        a = IntSet(2000, random.Random(7).sample(range(1, 2001), 1000))
        tracemalloc.start()
        try:
            st = ha_stats_fast(a, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.max_triple_degree <= 4 and st.max_pair_degree <= 4 * 2000
        assert peak < 45 * 2**20

    def test_paper_inequalities(self):
        rng = random.Random(2)
        n = 100
        for _ in range(10):
            s = rng.randint(10, n // 2)
            a = IntSet(n, rng.sample(range(1, n + 1), s))
            st = ha_stats_fast(a, n)
            assert st.edge_count <= s * n**2
            assert st.edge_count >= s * (n / 2 - 1) ** 2 / 2
            assert st.max_pair_degree <= 4 * n
            assert st.max_triple_degree <= 4
            assert st.max_quad_degree == 1
            assert st.max_pair_degree >= st.max_triple_degree >= st.max_quad_degree


class TestCodegree:
    def test_single_edge_example(self):
        st = HAStats(1, 1.0, 1, 1, 1)
        assert codegree_delta(st, 1.0) == pytest.approx(52.0)

    def test_exact_single_edge(self):
        h = build_HA(IntSet(3, [3]), 3)
        assert len(h.edges) == 1
        assert codegree_delta_exact(h, 1.0) == pytest.approx(52.0)

    def test_zero(self):
        assert codegree_delta(HAStats(0, 0.0, 0, 0, 0), 0.4) == 0.0
        assert codegree_delta_exact(build_HA(IntSet(10), 10), 0.4) == 0.0

    def test_decreasing_in_tau(self):
        a = IntSet(20, [5, 9, 12])
        st = ha_stats_fast(a, 20)
        vals = [codegree_delta(st, tau) for tau in (0.1, 0.2, 0.4, 1.0)]
        assert vals == sorted(vals, reverse=True)

    def test_domain(self):
        st = HAStats(1, 1.0, 1, 1, 1)
        with pytest.raises(ValueError):
            codegree_delta(st, 0.0)
        with pytest.raises(ValueError):
            codegree_delta(st, 1.5)


class TestContainers:
    def test_partition_examples(self):
        c = ContainerLike(4, IntSet(4, [1, 2]), IntSet(4, [2, 3]))
        m, r, b, t = partition_by_container(c)
        assert m.elements() == [4]
        assert r.elements() == [1]
        assert b.elements() == [3]
        assert t.elements() == [2]

    def test_partition_property(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(3, 30)
            red = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.5])
            blue = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.5])
            m, r, b, t = partition_by_container(ContainerLike(n, red, blue))
            union = m.union(r).union(b).union(t)
            assert union == IntSet.full(n)
            assert len(m) + len(r) + len(b) + len(t) == n

    def test_cases(self):
        n = 50
        empty = ContainerLike(n, IntSet(n), IntSet(n))
        assert container_case(empty, 0.1) == "CaseI"
        all_red = ContainerLike(n, IntSet.full(n), IntSet(n))
        assert container_case(all_red, 0.1) == "CaseII"
        both = ContainerLike(n, IntSet.full(n), IntSet.full(n))
        assert container_case(both, 0.1) == "CaseIII"

    def test_json_round_trip(self):
        c = ContainerLike(6, IntSet(6, [1, 5]), IntSet(6, [2]))
        back = ContainerLike.from_json_dict(json.loads(c.to_json()))
        assert back == c


class TestCompatibility:
    def test_full_container_matches_is_schur(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(4, 16)
            a = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.5])
            p = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.3])
            full = ContainerLike(n, IntSet.full(n), IntSet.full(n))
            out = is_compatible(a, p, full)
            schur = is_schur(a.union(p)) is SchurStatus.SCHUR
            assert (out.status is Status.NOT_COLOURABLE) == schur

    def test_missing_element_incompatible(self):
        c = ContainerLike(10, IntSet(10, [1, 2]), IntSet(10, [1, 2]))
        out = is_compatible(IntSet(10, [5]), IntSet(10), c)
        assert out.status is Status.NOT_COLOURABLE

    def test_all_red_means_sum_free(self):
        rng = random.Random(30)
        for _ in range(20):
            n = rng.randint(4, 18)
            a = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.4])
            c = ContainerLike(n, IntSet.full(n), IntSet(n))
            out = is_compatible(a, IntSet(n), c)
            assert (out.status is Status.COLOURABLE) == is_sum_free(a)

    def test_witness_fits_container(self):
        n = 12
        c = ContainerLike(n, IntSet(n, range(1, 7)), IntSet(n, range(5, 13)))
        a = IntSet(n, [2, 3, 9, 10])
        out = is_compatible(a, IntSet(n), c)
        assert out.status is Status.COLOURABLE
        assert set(out.witness.red) <= set(c.red_side)
        assert set(out.witness.blue) <= set(c.blue_side)

    def test_constraint_matches_per_element_loop(self):
        """constraint() gives find_schur_colouring the outcome of the
        per-element allowed colours, on random containers and sets, with
        elements of the set on neither side and above the container."""
        rng = random.Random(12)
        decided = {status: 0 for status in Status}
        for _ in range(300):
            n = rng.randint(4, 30)
            c = ContainerLike(
                n,
                IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.8]),
                IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.8]),
            )
            top = n + rng.choice((0, 0, 0, 3))
            s = IntSet(top, [e for e in range(1, top + 1) if rng.random() < 0.4])
            budget = rng.choice((0, 1, 10**6))
            out = find_schur_colouring(s, c.constraint(), budget)
            ref = find_schur_colouring(s, ref_constraint(s, c), budget)
            assert (out.status, out.nodes_explored, out.witness) == (
                ref.status,
                ref.nodes_explored,
                ref.witness,
            )
            decided[out.status] += 1
        assert min(decided.values()) > 10


class TestDensityWitness:
    def test_full_red(self):
        n = 20
        c = ContainerLike(n, IntSet.full(n), IntSet(n))
        assert claim48_density_witness(c) == ((n + 1) // 2, "R")

    def test_empty(self):
        c = ContainerLike(20, IntSet(20), IntSet(20))
        assert claim48_density_witness(c) is None

    @settings(max_examples=200)
    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n)), st.sets(st.integers(1, n)))
        )
    )
    def test_matches_per_element_definition(self, case):
        n, red, blue = case
        c = ContainerLike(n, IntSet(n, red), IntSet(n, blue))
        assert claim48_density_witness(c) == ref_density_witness(c)

    def test_large_container(self):
        n = 2 * 10**5
        rng = random.Random(48)
        for red, blue in (
            (range(1, n + 1, 2), range(2, n + 1, 2)),
            (
                (x for x in range(1, n + 1) if rng.random() < 0.44),
                (x for x in range(1, n + 1) if rng.random() < 0.46),
            ),
        ):
            c = ContainerLike(n, IntSet(n, red), IntSet(n, blue))
            assert claim48_density_witness(c) == ref_density_witness(c)

    def test_odd_red(self):
        n = 100
        c = ContainerLike(n, IntSet(n, range(1, n + 1, 2)), IntSet(n))
        witness = claim48_density_witness(c)
        assert witness is not None
        eta, side = witness
        assert side == "R"
        # odds have density >= 1/2 >= 9/20 on every even prefix
        assert eta >= 50
