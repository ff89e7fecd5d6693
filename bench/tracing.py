"""In-memory spans and counters around the benchmark's calls into each
layer, and the per-layer metrics derived from them."""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Spans are [op, name, start, end, parent]; parent is the index of the
    enclosing span or None. Nothing is written until dump()."""

    def __init__(self):
        self.op: int | None = None
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [self.op, name, time.perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def span(tracer: Tracer | None, name: str):
    """A span when tracing, a no-op context otherwise."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); a layer the workload does
    not enter reads 0."""
    c = t.counts
    solve_s = c["solver.solve_s"]
    nodes = c["solver.nodes"]
    decided = c["solver.decided"]
    obs_nodes = c["solver.obstruction_nodes"]
    obs_edges = c["solver.obstruction_edges"]
    return {
        "solver.solve_s": (solve_s, "s"),
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (_ratio(nodes, solve_s), "1/s"),
        "solver.nodes_per_decided": (_ratio(nodes, decided), "count"),
        "solver.decided_ratio": (_ratio(decided, c["solver.solves"]), "ratio"),
        "solver.obstruction_s": (t.total("solver.minimal_obstruction"), "s"),
        "solver.obstruction_nodes": (obs_nodes, "count"),
        "solver.obstruction_edges": (obs_edges, "count"),
        "solver.obstruction_nodes_per_edge": (_ratio(obs_nodes, obs_edges), "ratio"),
        "solver.hmin_s": (t.total("solver.check_hmin_properties"), "s"),
        "solver.loose_cycle_s": (t.total("solver.find_loose_cycle"), "s"),
        "intset.hosting_sets_s": (t.total("intset.hosting_sets"), "s"),
        "intset.hosting_edges": (c["intset.hosting_edges"], "count"),
        "intset.union_s": (t.total("intset.union"), "s"),
        "intset.is_sum_free_s": (t.total("intset.is_sum_free"), "s"),
        "intset.count_ordered_triples_s": (t.total("intset.count_ordered_triples"), "s"),
        "montecarlo.sample_s": (t.total("montecarlo.sample_perturbation"), "s"),
        "montecarlo.sampled_elems": (c["montecarlo.sampled_elems"], "count"),
        "wickets.count_s": (t.total("wickets.count_wickets"), "s"),
        "wickets.containing_s": (t.total("wickets.count_wickets_containing"), "s"),
        "wickets.calls": (
            float(t.calls("wickets.count_wickets") + t.calls("wickets.count_wickets_containing")),
            "count",
        ),
        "colouring_hypergraph.ha_stats_fast_s": (
            t.total("colouring_hypergraph.ha_stats_fast"),
            "s",
        ),
        "colouring_hypergraph.ha_stats_fast_peak_mb": (
            c["colouring_hypergraph.ha_stats_fast_peak_mb"],
            "MB",
        ),
    }
