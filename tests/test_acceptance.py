"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (bypassing capture) and then
asserts, so the final report always lists every criterion outcome.
The oracles, an exhaustive colouring search on bitmasks and an
enumeration of the wickets in [n], come from tests/oracles.py and are
written independently of the library internals. Criteria 2, 3, 8, 9 and 12
run the CLI's verify suites hu, prop31, moments, claim48 and stability, so
each check exists once.
"""

import math
import random
import time

from oracles import is_schur_mask, wicket_entry_masks
from schurperturb.cli import (
    suite_claim48,
    suite_hu,
    suite_moments,
    suite_prop31,
    suite_stability,
)
from schurperturb.colouring_hypergraph import ha_stats_fast
from schurperturb.constructions import dense_zero_statement, sparse_base
from schurperturb.intset import IntSet, is_sum_free
from schurperturb.montecarlo import (
    RngSpec,
    run_trials,
    sample_perturbation,
    sweep,
    theoretical_thresholds,
)
from schurperturb.solver import (
    ColourConstraint,
    SchurStatus,
    Status,
    check_hmin_properties,
    find_schur_colouring,
    is_schur,
    minimal_obstruction,
    validate_colouring,
)
from schurperturb.wickets import (
    claim_extension_bound,
    count_wickets,
    count_wickets_containing,
)

MASTER_SEED = 20260824

REPORT_LINES: list[str] = []  # echoed by conftest in the terminal summary


def _report(num, ok, desc, started=None, limit=None):
    parts = [f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"]
    if started is not None:
        elapsed = time.perf_counter() - started
        parts.append(f"[{elapsed:.1f}s]")
        if limit is not None and elapsed > limit:
            ok = False
            parts.append(f"(over {limit}s budget)")
    line = " ".join(parts)
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


# --------------------------------------------------------------- criteria


def test_criterion_01_baseline():
    t0 = time.perf_counter()
    out4 = find_schur_colouring(IntSet.full(4))
    ok = (
        out4.status is Status.COLOURABLE
        and validate_colouring(IntSet.full(4), out4.witness) == []
        and is_schur(IntSet.full(4)) is SchurStatus.NOT_SCHUR
        and is_schur(IntSet.full(5)) is SchurStatus.SCHUR
        and not is_schur_mask(0b11110)
        and is_schur_mask(0b111110)
    )
    _report(1, ok, "[4] colourable with validated witness, [5] Schur", t0, 1)


def test_criterion_02_large_subsets_schur():
    t0 = time.perf_counter()
    ok = not suite_hu(n_max=16)
    _report(2, ok, "every |A| > ceil(4n/5) Schur (n in 10..16); "
                   "mod-5 sets extremal and properly coloured", t0, 300)


def test_criterion_03_eleven_element_configurations():
    t0 = time.perf_counter()
    ok = not suite_prop31(n_max=30)
    _report(3, ok, "both 11-element configurations Schur: exhaustive to 30, "
                   "200 random triples to 200", t0, 600)


def test_criterion_04_dense_colouring_validity():
    n, t = 10**5, 100
    ds = dense_zero_statement(n, t)
    p = 0.1 * min(n ** (-2 / 3), 1 / t)
    forbidden = IntSet.interval(n, 1, 2 * t - 1)  # differences within C
    rng = RngSpec(MASTER_SEED)
    t0 = time.perf_counter()
    side_ok = 0
    valid = True
    for i in range(100):
        pset = sample_perturbation(n, p, rng, i)
        if not is_sum_free(pset) or len(pset.intersection(forbidden)) > 0:
            continue
        side_ok += 1
        s = ds.A.union(pset)
        blue = s.intersection(ds.B)
        red = s.difference(ds.B)
        if not (is_sum_free(red) and is_sum_free(blue)):
            valid = False
    ok = valid and side_ok >= 90
    _report(4, ok, f"two-interval colouring exact on every clean trial; "
                   f"side conditions in {side_ok}/100", t0)


def test_criterion_05_solver_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for r in range(1 << 12):
        mask = r << 1
        elems = [i for i in range(1, 13) if mask >> i & 1]
        want = SchurStatus.SCHUR if is_schur_mask(mask) else SchurStatus.NOT_SCHUR
        if is_schur(IntSet(12, elems)) is not want:
            ok = False
    rng = random.Random(MASTER_SEED)
    for _ in range(500):
        elems = [e for e in range(1, 23) if rng.random() < 0.5]
        mask = sum(1 << e for e in elems)
        want = SchurStatus.SCHUR if is_schur_mask(mask) else SchurStatus.NOT_SCHUR
        if is_schur(IntSet(22, elems)) is not want:
            ok = False
    _report(5, ok, "solver equals exhaustive oracle: all S in [12], "
                   "500 random S in [22]", t0)


def test_criterion_06_wicket_counts():
    t0 = time.perf_counter()
    ok = count_wickets(IntSet.full(9)) == 0
    for n in range(1, 41):
        if count_wickets(IntSet.full(n)) != len(wicket_entry_masks(n)):
            ok = False
    rng = random.Random(MASTER_SEED)
    n = 60
    for size in range(1, 10):
        for _ in range(100):
            u = rng.sample(range(1, n + 1), size)
            if count_wickets_containing(u, n) > claim_extension_bound(size, n):
                ok = False
    _report(6, ok, "wicket counts equal enumeration oracle to n=40; "
                   "extension bound holds for 900 random U at n=60", t0, 300)


def test_criterion_07_hypergraph_statistics():
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    ok = True
    for n in (100, 200, 300):
        for _ in range(50):
            s = rng.randint(math.ceil(math.sqrt(n)), n // 2)
            a = IntSet(n, rng.sample(range(1, n + 1), s))
            st = ha_stats_fast(a, n)
            ok = ok and st.edge_count <= s * n**2
            ok = ok and st.edge_count >= s * (n / 2 - 1) ** 2 / 2
            ok = ok and st.max_pair_degree <= 4 * n
            ok = ok and st.max_triple_degree <= 4
            ok = ok and st.max_quad_degree == 1
    _report(7, ok, "edge-count and codegree bounds on 150 random "
                   "colouring hypergraphs", t0, 600)


def test_criterion_08_moment_chain():
    t0 = time.perf_counter()
    ok = not suite_moments(trials=100)
    _report(8, ok, "overlap-sum delta bounded by 27(n^2 p^4 + n^3 p^5) "
                   "on 100 random instances", t0)


def test_criterion_09_pair_partition():
    t0 = time.perf_counter()
    ok = not suite_claim48(n_max=200)
    _report(9, ok, "pair partition invariants for every (n, alpha), n <= 200", t0)


def test_criterion_10_threshold_separation():
    t0 = time.perf_counter()
    n, t = 120, 6
    a = dense_zero_statement(n, t).A
    th = theoretical_thresholds(n, t=t)["dense"]
    rng = RngSpec(MASTER_SEED)
    fracs = []
    unknown_ok = True
    for j, p in enumerate((th / 8, 8 * th)):
        recs = run_trials(a, n, p, 200, rng, trial_offset=j * 200)
        outcomes = [r.outcome for r in recs]
        unknown = outcomes.count("Unknown")
        decided = len(recs) - unknown
        fracs.append(outcomes.count("Schur") / decided if decided else 0.0)
        unknown_ok = unknown_ok and unknown < 20
    ok = unknown_ok and fracs[0] <= 0.3 and fracs[1] >= 0.7
    _report(10, ok, f"schur fraction {fracs[0]:.2f} at th/8 and "
                    f"{fracs[1]:.2f} at 8*th with few unknowns", t0, 1800)


def test_criterion_11_sparse_obstruction_structure():
    t0 = time.perf_counter()
    n, s = 200, 14
    p = 4 * (n * s) ** (-1 / 3)
    base = sparse_base(n, s)
    constraints = ColourConstraint.force_blue(base)
    rng = RngSpec(MASTER_SEED)
    not_col = good = two_edge = two_base = not_linear = 0
    for i in range(100):
        pset = sample_perturbation(n, p, rng, i)
        res = minimal_obstruction(base.union(pset), constraints)
        if res.status is not Status.NOT_COLOURABLE:
            continue
        not_col += 1
        rep = check_hmin_properties(res.hypergraph, base)
        if rep.uniform3 and rep.one_base_per_edge and rep.linear:
            good += 1
        two_edge += not rep.uniform3
        two_base += not rep.one_base_per_edge
        not_linear += not rep.linear
    frac = good / not_col if not_col else 0.0
    ok = not_col > 0 and frac >= 0.8
    _report(11, ok, f"minimal obstructions 3-uniform/1-base/linear in "
                    f"{good}/{not_col} uncolourable trials (need >= 80%); "
                    f"{two_edge} with a 2-edge, {two_base} with an edge of two "
                    f"base elements, {not_linear} not linear", t0)


def test_criterion_12_sum_free_stability():
    t0 = time.perf_counter()
    ok = not suite_stability(n_max=22)  # includes: equality is attained
    _report(12, ok, "large sum-free sets are odd-only or have "
                    "min >= size, with equality attained "
                    "(n in 10..22)", t0, 600)


def test_criterion_13_sweep_determinism():
    t0 = time.perf_counter()
    a = sparse_base(24, 5)
    grid = [0.05, 0.2, 0.8]
    outputs = [
        sweep(a, 24, grid, 6, RngSpec(MASTER_SEED), workers=w).to_json()
        for w in (1, 4, 16)
    ]
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(13, ok, "sweep output byte-identical across 1, 4 and 16 workers", t0)
