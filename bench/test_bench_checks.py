"""The benchmark's checks fail on wrong answers and pass on known cases.

Run with: python3 -m pytest bench/test_bench_checks.py
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from schurperturb import (  # noqa: E402
    HAStats,
    IntSet,
    LooseCycle,
    ha_stats_fast,
    mod5_construction,
    count_wickets,
    count_wickets_containing,
    iter_wickets,
    minimal_obstruction,
)
from schurperturb.solver import HminReport  # noqa: E402


def colourable(elems, n, forced=frozenset()):
    return oracle.proper_colouring(oracle.hosting_sets(elems, n), forced) is not None


def test_known_verdicts():
    assert colourable(range(1, 5), 4)
    assert not colourable(range(1, 6), 5)
    a, _ = mod5_construction(15)
    assert colourable(a, 15)


def test_milp_agrees_with_enumeration(monkeypatch):
    rng = random.Random(5)
    cases = [(sorted(rng.sample(range(1, 31), 12)), frozenset(rng.sample(range(20, 31), 3))) for _ in range(12)]
    exhaustive = [colourable(s, 30, f) for s, f in cases]
    monkeypatch.setattr(oracle, "EXHAUSTIVE_FREE_LIMIT", 0)
    assert [colourable(s, 30, f) for s, f in cases] == exhaustive
    assert True in exhaustive and False in exhaustive


def test_edge_scan_and_counts():
    s = [1, 2, 3, 5, 8]
    assert oracle.hosting_sets(s, 8) == [(1, 2), (1, 2, 3), (2, 3, 5), (3, 5, 8)]
    assert oracle.count_ordered_triples(s, 8) == 7


def test_wicket_enumeration():
    assert oracle.wicket_count(9) == 0
    assert oracle.wicket_count(14) == count_wickets(IntSet.full(14)) > 0


def test_ha_enumeration():
    base = IntSet(12, [3, 7])
    got = ha_stats_fast(base, 12)
    assert {k: getattr(got, k) for k in oracle.ha_stats(base, 12)} == oracle.ha_stats(base, 12)


def test_flipped_verdict_fails():
    sweep = wl.SweepDense(seed=3, seconds=0.01)
    op = sweep.ops[0]
    outcome, nodes, size = sweep.run(op, None)
    sweep.check(op, (outcome, nodes, size))
    flipped = "Schur" if outcome == "NotSchur" else "NotSchur"
    with pytest.raises(wl.CheckError):
        sweep.check(op, (flipped, nodes, size))


def test_obstruction_checks():
    full5 = IntSet.full(5)
    edges = oracle.hosting_sets(full5, 5)
    minimal = minimal_obstruction(full5).hypergraph.edges
    wl.check_obstruction(minimal, edges, set())
    spare = next(e for e in edges if e not in minimal)
    with pytest.raises(wl.CheckError, match="not edge-minimal"):
        wl.check_obstruction(minimal + [spare], edges, set())
    with pytest.raises(wl.CheckError, match="is colourable"):
        wl.check_obstruction(minimal[1:], edges, set())
    with pytest.raises(wl.CheckError, match="not hosting sets"):
        wl.check_obstruction(minimal + [(1, 5)], edges, set())


def test_hmin_and_cycle_checks():
    edges = [(1, 2, 3), (3, 4, 7), (7, 8, 15), (1, 14, 15)]
    wl.check_hmin_report(HminReport(True, True, True), edges, {15})
    with pytest.raises(wl.CheckError):
        wl.check_hmin_report(HminReport(True, True, False), edges, {15})
    good = LooseCycle(edges, ["t1", "t1", "t2", "t2"], 1)
    wl.check_loose_cycle(good, edges, {15})
    with pytest.raises(wl.CheckError):
        wl.check_loose_cycle(LooseCycle(edges[:3], ["t1", "t1", "t2"], 0), edges, {15})
    with pytest.raises(wl.CheckError):
        wl.check_loose_cycle(LooseCycle(edges, ["t1", "t1", "t2", "t2"], 0), edges, {15})


def test_counts_off_by_one_fail():
    k = wl.Kernels.__new__(wl.Kernels)
    k.wicket_count = oracle.wicket_count
    k.check(("count_wickets", 12), count_wickets(IntSet.full(12)))
    with pytest.raises(wl.CheckError):
        k.check(("count_wickets", 12), count_wickets(IntSet.full(12)) + 1)
    singles = [count_wickets_containing([u], 12) for u in range(1, 13)]
    k.check(("singletons", 12), singles)
    with pytest.raises(wl.CheckError):
        k.check(("singletons", 12), singles[:-1] + [singles[-1] + 1])
    s = IntSet(40, [1, 2, 3, 5, 8, 13, 21, 34])
    k.check(("count_ordered_triples", s), oracle.count_ordered_triples(s, 40))
    with pytest.raises(wl.CheckError):
        k.check(("count_ordered_triples", s), oracle.count_ordered_triples(s, 40) - 1)
    wicket = next(iter_wickets(IntSet.full(14)))
    ladder = [count_wickets_containing(wicket[:k], 14) for k in range(1, 10)]
    assert ladder[-1] > 0
    wl.check_ladder(wicket, ladder, 14)
    for k in (0, 8):
        with pytest.raises(wl.CheckError):
            wl.check_ladder(wicket, ladder[:k] + [ladder[k] - 1] + ladder[k + 1 :], 14)
    with pytest.raises(wl.CheckError):
        wl.check_ladder(wicket, [0] * 9, 14)
    with pytest.raises(wl.CheckError):
        wl.check_ha_bounds(HAStats(10, 0.1, 1, 5, 1), 1, 10)
    with pytest.raises(wl.CheckError):
        wl.check_sample([1, 1, 2], 10, 0.3)
