"""The benchmark's workloads: seeded inputs, one operation each, and the
checks that judge every output against the independent oracles.

Each workload builds a fixed list of operations from (seed, seconds): the
seed draws the inputs and the seconds fix how many whole rounds the list
holds, so a run is never cut off by a clock and every run with the same
arguments does the same work.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from functools import lru_cache

import oracle
from schurperturb import (
    ColourConstraint,
    IntSet,
    RngSpec,
    Status,
    check_hmin_properties,
    claim_extension_bound,
    construct_by_name,
    count_ordered_triples,
    count_wickets,
    count_wickets_containing,
    find_loose_cycle,
    find_schur_colouring,
    ha_stats_fast,
    hosting_sets,
    is_sum_free,
    minimal_obstruction,
    odd_set,
    run_trials,
    sample_perturbation,
    top_interval,
)
from tracing import Tracer, span


class CheckError(Exception):
    """An operation's output disagrees with an oracle or a property."""


def _rounds(seconds: float, per_second: float) -> int:
    return max(1, round(seconds * per_second))


class Workload:
    """Subclasses set ops and define run(op, tracer) and check(op, result),
    which raises CheckError on a wrong output."""

    ops: list

    def check_all(self, results) -> dict[int, str]:
        """The failed check of every operation that returned, by index."""
        failures = {}
        for i, (op, res) in enumerate(zip(self.ops, results)):
            if isinstance(res, BaseException):
                continue
            try:
                self.check(op, res)
            except CheckError as exc:
                failures[i] = str(exc)
        return failures


# ---------------------------------------------------------------- sweep


class SweepDense(Workload):
    """Threshold sweep on dense0:300,15 (the top interval [136, 300]) at
    p = th/2, th, 3 th/2 with th = min(n^-2/3, 1/t). One operation is one
    trial through run_trials, with the global trial indices of sweep()."""

    name = "sweep_dense"
    N, T = 300, 15
    MULTIPLES = (0.5, 1.0, 1.5)
    ROUNDS_PER_S = 26.0  # one round (one trial per grid point) is ~38 ms

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.base = construct_by_name(f"dense0:{self.N},{self.T}").A
        th = min(self.N ** (-2 / 3), 1 / self.T)
        self.grid = [m * th for m in self.MULTIPLES]
        trials = _rounds(seconds, self.ROUNDS_PER_S)
        self.ops = [
            (p, i * trials + j)
            for j in range(trials)
            for i, p in enumerate(self.grid)
        ]

    def run(self, op, tracer: Tracer | None):
        p, idx = op
        if tracer is None:
            rec = run_trials(self.base, self.N, p, 1, RngSpec(self.seed), trial_offset=idx)[0]
            return rec.outcome, rec.nodes_explored, rec.sample_size
        # run_trials' path, one layer call at a time
        with tracer.span("montecarlo.sample_perturbation"):
            perturb = sample_perturbation(self.N, p, RngSpec(self.seed), idx)
        with tracer.span("intset.union"):
            union = self.base.union(perturb)
        with tracer.span("intset.hosting_sets") as host:
            edges = hosting_sets(union)
        with tracer.span("solver.find_schur_colouring") as solve:
            out = find_schur_colouring(union)
        tracer.add("solver.solve_s", (solve[3] - solve[2]) - (host[3] - host[2]))
        tracer.add("montecarlo.sampled_elems", len(perturb))
        tracer.add("intset.hosting_edges", len(edges))
        tracer.add("solver.nodes", out.nodes_explored)
        tracer.add("solver.solves")
        tracer.add("solver.decided", out.status is not Status.BUDGET_EXCEEDED)
        verdict = {
            Status.NOT_COLOURABLE: "Schur",
            Status.COLOURABLE: "NotSchur",
        }.get(out.status, "Unknown")
        return verdict, out.nodes_explored, len(perturb)

    def check(self, op, result) -> None:
        p, idx = op
        outcome, _, size = result
        perturb = sample_perturbation(self.N, p, RngSpec(self.seed), idx)
        if size != len(perturb):
            raise CheckError(f"sample size {size} != {len(perturb)}")
        union = self.base.union(perturb)
        colourable = oracle.proper_colouring(oracle.hosting_sets(union, self.N)) is not None
        expected = "NotSchur" if colourable else "Schur"
        if outcome != expected:
            raise CheckError(f"trial {idx} at p={p:.4g}: {outcome}, oracle says {expected}")

# ---------------------------------------------------------------- obstructions


class ObstructionSparse(Workload):
    """Minimal obstructions of the sparse base sparse:200,14 (the top
    interval [187, 200]) forced blue, at p = 2 th and 3 th with
    th = (ns)^-1/3. One operation takes one trial index through the
    obstruction pipeline at both p: sample, minimal_obstruction, then
    check_hmin_properties and, for a 3-uniform obstruction,
    find_loose_cycle."""

    name = "obstruction_sparse"
    N, S = 200, 14
    MULTIPLES = (2.0, 3.0)
    OPS_PER_S = 18.0  # one operation is ~55 ms

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.base = construct_by_name(f"sparse:{self.N},{self.S}")
        self.constraints = ColourConstraint.force_blue(self.base)
        th = (self.N * self.S) ** (-1 / 3)
        self.grid = [m * th for m in self.MULTIPLES]
        count = _rounds(seconds, self.OPS_PER_S)
        self.ops = [
            [(p, i * count + j) for i, p in enumerate(self.grid)] for j in range(count)
        ]

    def run(self, op, tracer: Tracer | None):
        out = []
        for p, idx in op:
            with span(tracer, "montecarlo.sample_perturbation"):
                perturb = sample_perturbation(self.N, p, RngSpec(self.seed), idx)
            with span(tracer, "intset.union"):
                union = self.base.union(perturb)
            if tracer is not None:
                with tracer.span("intset.hosting_sets"):
                    edges = hosting_sets(union)
                tracer.add("intset.hosting_edges", len(edges))
                tracer.add("solver.obstruction_edges", len(edges))
                tracer.add("montecarlo.sampled_elems", len(perturb))
            with span(tracer, "solver.minimal_obstruction"):
                res = minimal_obstruction(union, self.constraints)
            if tracer is not None:
                tracer.add("solver.obstruction_nodes", res.nodes_explored)
            report = cycle = None
            if res.status is Status.NOT_COLOURABLE:
                with span(tracer, "solver.check_hmin_properties"):
                    report = check_hmin_properties(res.hypergraph, self.base)
                if report.uniform3:
                    with span(tracer, "solver.find_loose_cycle"):
                        cycle = find_loose_cycle(res.hypergraph, self.base)
            edges_out = list(res.hypergraph.edges) if res.hypergraph else None
            out.append((union, res.status, edges_out, report, cycle))
        return out

    def check(self, op, result) -> None:
        base = set(self.base)
        for (p, idx), (union, status, obstruction, report, cycle) in zip(op, result):
            where = f"trial {idx} at p={p:.4g}"
            edges = oracle.hosting_sets(union, self.N)
            if status is Status.COLOURABLE:
                if oracle.proper_colouring(edges, base) is None:
                    raise CheckError(f"{where}: colourable, oracle says not")
                continue
            if status is not Status.NOT_COLOURABLE:
                raise CheckError(f"{where}: status {status}")
            check_obstruction(obstruction, edges, base, where)
            check_hmin_report(report, obstruction, base, where)
            if cycle is not None:
                check_loose_cycle(cycle, obstruction, base, where)

def check_obstruction(obstruction, host_edges, base, where="") -> None:
    """Edges are hosting sets of the instance, the edge set is uncolourable
    with base blue, and deleting any one edge makes it colourable."""
    if not obstruction:
        raise CheckError(f"{where}: empty obstruction")
    stray = set(map(tuple, obstruction)) - set(host_edges)
    if stray:
        raise CheckError(f"{where}: {sorted(stray)[:3]} are not hosting sets")
    if oracle.proper_colouring(obstruction, base) is not None:
        raise CheckError(f"{where}: obstruction is colourable")
    redundant = oracle.redundant_edges(obstruction, base)
    if redundant:
        raise CheckError(f"{where}: not edge-minimal, {redundant[0]} is redundant")


def check_hmin_report(report, edges, base, where="") -> None:
    uniform3 = all(len(e) == 3 for e in edges)
    one_base = all(sum(v in base for v in e) <= 1 for e in edges)
    linear = all(len(set(e) & set(f)) <= 1 for i, e in enumerate(edges) for f in edges[i + 1 :])
    got = (report.uniform3, report.one_base_per_edge, report.linear)
    if got != (uniform3, one_base, linear):
        raise CheckError(f"{where}: H_min flags {got}, recomputed {(uniform3, one_base, linear)}")


def check_loose_cycle(cycle, edges, base, where="") -> None:
    cyc = [tuple(e) for e in cycle.edges]
    ell = len(cyc)
    ok = ell >= 3 and len(set(cyc)) == ell and set(cyc) <= set(map(tuple, edges))
    for i in range(ell if ok else 0):
        for j in range(i + 1, ell):
            adjacent = j == i + 1 or (i == 0 and j == ell - 1)
            ok &= len(set(cyc[i]) & set(cyc[j])) == (1 if adjacent else 0)
    types = ["t2" if any(v in base for v in e) else "t1" for e in cyc]
    pairs = sum(types[i] == "t2" == types[(i + 1) % ell] for i in range(ell))
    if not ok or cycle.types != types or cycle.consecutive_t2_pairs != pairs:
        raise CheckError(f"{where}: {cyc} is not the loose cycle reported")


# ---------------------------------------------------------------- kernels


class Kernels(Workload):
    """A fixed batch of exact counting and bitset kernels; none enters the
    solver. Each family takes at most about a third of the batch."""

    name = "kernels"
    ROUND_S = 14.0
    WICKET_NS = (38, 39, 40)
    SINGLETON_N = 24
    LADDER_N = 60
    HA_N, HA_SIZE, HA_CALLS = 2000, 45, 4
    HA_SMALL_N, HA_SMALL_SIZE = 24, 4
    SUM_FREE_N, ODD_SUBSETS = 10**5, 2
    TRIPLES_N, TRIPLES_DENSITY, TRIPLES_CALLS = 10**5, 0.03, 5
    SAMPLE_N, SAMPLE_P, SAMPLE_CALLS = 2 * 10**6, 1e-3, 4

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        rng = random.Random(seed)
        n = self.SUM_FREE_N
        # sum-free by construction, each with an element whose addition
        # creates a Schur triple
        sum_free = [
            ("odd", odd_set(n), 2),
            ("top", top_interval(n), 1),
            ("interval", IntSet.interval(n, n // 2, n - 200), 200),
        ]
        ops = []
        for r in range(_rounds(seconds, 1 / self.ROUND_S)):
            ops += [("count_wickets", k) for k in self.WICKET_NS]
            ops.append(("singletons", self.SINGLETON_N))
            ops.append(("ladder", tuple(rng.sample(range(1, self.LADDER_N + 1), 9))))
            ops += [
                ("ha_stats_fast", IntSet(self.HA_N, rng.sample(range(1, self.HA_N + 1), self.HA_SIZE)))
                for _ in range(self.HA_CALLS)
            ]
            odd_subsets = [
                IntSet(n, (x for x in range(1, n + 1, 2) if rng.random() < 0.5))
                for _ in range(self.ODD_SUBSETS)
            ]
            ops += [("is_sum_free", case) for case in sum_free]
            ops += [("is_sum_free", ("odd subset", s, 2 * min(s))) for s in odd_subsets]
            ops += [
                (
                    "count_ordered_triples",
                    IntSet(
                        self.TRIPLES_N,
                        (x for x in range(1, self.TRIPLES_N + 1) if rng.random() < self.TRIPLES_DENSITY),
                    ),
                )
                for _ in range(self.TRIPLES_CALLS)
            ]
            ops += [("sample_hosting", r * self.SAMPLE_CALLS + k) for k in range(self.SAMPLE_CALLS)]
        self.ops = ops
        self.wicket_count = lru_cache(maxsize=None)(oracle.wicket_count)
        self.ha_small = IntSet(self.HA_SMALL_N, rng.sample(range(1, self.HA_SMALL_N + 1), self.HA_SMALL_SIZE))

    def run(self, op, tracer: Tracer | None):
        kind, arg = op
        if kind == "count_wickets":
            with span(tracer, "wickets.count_wickets"):
                return count_wickets(IntSet.full(arg))
        if kind == "singletons":
            counts = []
            for u in range(1, arg + 1):
                with span(tracer, "wickets.count_wickets_containing"):
                    counts.append(count_wickets_containing([u], arg))
            return counts
        if kind == "ladder":
            counts = []
            for k in range(1, len(arg) + 1):
                with span(tracer, "wickets.count_wickets_containing"):
                    counts.append(count_wickets_containing(arg[:k], self.LADDER_N))
            return counts
        if kind == "ha_stats_fast":
            if tracer is None:
                return ha_stats_fast(arg, self.HA_N)
            tracemalloc.start()
            try:
                with tracer.span("colouring_hypergraph.ha_stats_fast"):
                    stats = ha_stats_fast(arg, self.HA_N)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            key = "colouring_hypergraph.ha_stats_fast_peak_mb"
            tracer.counts[key] = max(tracer.counts[key], peak)
            return stats
        if kind == "is_sum_free":
            with span(tracer, "intset.is_sum_free"):
                return is_sum_free(arg[1])
        if kind == "count_ordered_triples":
            with span(tracer, "intset.count_ordered_triples"):
                return count_ordered_triples(arg)
        if kind == "sample_hosting":
            with span(tracer, "montecarlo.sample_perturbation"):
                perturb = sample_perturbation(self.SAMPLE_N, self.SAMPLE_P, RngSpec(self.seed), arg)
            with span(tracer, "intset.hosting_sets"):
                edges = hosting_sets(perturb)
            if tracer is not None:
                tracer.add("montecarlo.sampled_elems", len(perturb))
                tracer.add("intset.hosting_edges", len(edges))
            return perturb, edges
        raise ValueError(f"unknown kernel {kind!r}")

    def check(self, op, result) -> None:
        kind, arg = op
        if kind == "count_wickets":
            if result != self.wicket_count(arg):
                raise CheckError(f"count_wickets([{arg}]) = {result}, enumeration gives {self.wicket_count(arg)}")
        elif kind == "singletons":
            want = oracle.wicket_counts_containing([[u] for u in range(1, arg + 1)], arg)
            for u, (c, w) in enumerate(zip(result, want), start=1):
                if c != w:
                    raise CheckError(f"count_wickets_containing([{u}], {arg}) = {c}, enumeration gives {w}")
            if sum(result) != 9 * self.wicket_count(arg):
                raise CheckError(
                    f"singleton counts at n={arg} sum to {sum(result)}, "
                    f"not 9 * enumeration = {9 * self.wicket_count(arg)}"
                )
        elif kind == "ladder":
            check_ladder(arg, result, self.LADDER_N)
        elif kind == "ha_stats_fast":
            check_ha_bounds(result, len(arg), self.HA_N)
        elif kind == "is_sum_free":
            label, s, extra = arg
            if result is not True:
                raise CheckError(f"is_sum_free({label}) = {result} on a sum-free set")
            if is_sum_free(s.with_element(extra)) is not False:
                raise CheckError(f"is_sum_free({label} + {{{extra}}}) is not False")
        elif kind == "count_ordered_triples":
            want = oracle.count_ordered_triples(arg, arg.n)
            if result != want:
                raise CheckError(f"count_ordered_triples = {result}, pair-sum count {want}")
        elif kind == "sample_hosting":
            perturb, edges = result
            check_sample(perturb, self.SAMPLE_N, self.SAMPLE_P)
            if edges != oracle.hosting_sets(perturb, self.SAMPLE_N):
                raise CheckError(f"hosting_sets of sample {arg} differs from the pair-sum scan")

    def check_all(self, results) -> dict[int, str]:
        failures = super().check_all(results)
        small = ha_stats_fast(self.ha_small, self.HA_SMALL_N)
        want = oracle.ha_stats(self.ha_small, self.HA_SMALL_N)
        got = {k: getattr(small, k) for k in want}
        if got != want:
            for i, (kind, _) in enumerate(self.ops):
                if kind == "ha_stats_fast":
                    failures.setdefault(i, f"ha_stats_fast on {self.ha_small} gives {got}, enumeration {want}")
        return failures


def check_ladder(u, counts, n: int) -> None:
    """Counts of wickets containing the nested prefixes of u: each equal to
    the enumeration's count and within the claim bound."""
    want = oracle.wicket_counts_containing([u[:k] for k in range(1, len(u) + 1)], n)
    if len(counts) != len(want):
        raise CheckError(f"{len(counts)} ladder counts for {len(want)} prefixes")
    for k, (c, w) in enumerate(zip(counts, want), start=1):
        if c != w:
            raise CheckError(f"count_wickets_containing({u[:k]}, {n}) = {c}, enumeration gives {w}")
        if c > claim_extension_bound(k, n):
            raise CheckError(f"count_wickets_containing({u[:k]}, {n}) = {c} breaks the claim bound")


def check_ha_bounds(stats, s: int, n: int) -> None:
    ok = (
        s * (n / 2 - 1) ** 2 / 2 <= stats.edge_count <= s * n**2
        and stats.max_pair_degree <= 4 * n
        and stats.max_triple_degree <= 4
        and stats.max_quad_degree == 1
        and math.isclose(stats.average_degree, 4 * stats.edge_count / (2 * n))
    )
    if not ok:
        raise CheckError(f"ha_stats_fast breaks the criterion-7 bounds: {stats}")


def check_sample(perturb, n: int, p: float) -> None:
    elems = list(perturb)
    if len(set(elems)) != len(elems) or any(not 1 <= x <= n for x in elems):
        raise CheckError("sample has repeated or out-of-range elements")
    if abs(len(elems) - n * p) > 6 * math.sqrt(n * p * (1 - p)):
        raise CheckError(f"sample size {len(elems)} is over 6 sigma from np = {n * p:g}")


WORKLOADS = {w.name: w for w in (SweepDense, ObstructionSparse, Kernels)}
