"""Seeded random perturbations, trial batches, probability sweeps and
threshold estimation.

Every trial is a pure function of (master_seed, trial_index, n, p), so
results are independent of execution order and worker count; sweeps
aggregate by ascending trial index and serialize to a canonical form that
is byte-identical across reruns (wall times are kept on the records but
never serialized into the curve).
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .constructions import check_dense_t, check_sparse_s
from .intset import IntSet
from .solver import DEFAULT_BUDGET, VERDICT, SchurStatus, find_schur_colouring

_BLOCK = 4096


@dataclass(frozen=True)
class RngSpec:
    """Deterministic per-trial stream derivation from one master seed."""

    master_seed: int

    def generator(self, trial_index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=(trial_index,))
        )


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    p: float
    sample_size: int
    outcome: str  # "Schur" | "NotSchur" | "Unknown"
    nodes_explored: int
    wall_time: float


@dataclass(frozen=True)
class SweepPoint:
    p: float
    trials: int
    schur: int
    not_schur: int
    unknown: int
    mean_sample_size: float

    @property
    def schur_fraction(self) -> float:
        decided = self.schur + self.not_schur
        return self.schur / decided if decided else 0.0

    @property
    def unknown_fraction(self) -> float:
        return self.unknown / self.trials if self.trials else 0.0


@dataclass
class SweepCurve:
    n: int
    base: str
    master_seed: int
    budget: int
    p_grid: list[float]
    points: list[SweepPoint]
    records: list[TrialRecord] = field(default_factory=list, repr=False)

    @property
    def non_conclusive(self) -> bool:
        return any(pt.unknown_fraction > 0.10 for pt in self.points)

    def to_json(self) -> str:
        """Canonical serialization; deterministic given (config, seed)."""
        return json.dumps(
            {
                "base": self.base,
                "budget": self.budget,
                "master_seed": self.master_seed,
                "n": self.n,
                "non_conclusive": self.non_conclusive,
                "p_grid": [format(p, ".12g") for p in self.p_grid],
                "points": [
                    {
                        "mean_sample_size": format(pt.mean_sample_size, ".12g"),
                        "not_schur": pt.not_schur,
                        "p": format(pt.p, ".12g"),
                        "schur": pt.schur,
                        "schur_fraction": format(pt.schur_fraction, ".12g"),
                        "trials": pt.trials,
                        "unknown": pt.unknown,
                        "unknown_fraction": format(pt.unknown_fraction, ".12g"),
                    }
                    for pt in self.points
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepCurve":
        """Inverse of to_json (which keeps no records); ValueError when the
        text is not JSON of that shape."""
        try:
            data = json.loads(text)
            points = [
                SweepPoint(
                    p=float(pt["p"]),
                    trials=int(pt["trials"]),
                    schur=int(pt["schur"]),
                    not_schur=int(pt["not_schur"]),
                    unknown=int(pt["unknown"]),
                    mean_sample_size=float(pt["mean_sample_size"]),
                )
                for pt in data["points"]
            ]
            return cls(
                n=int(data["n"]),
                base=data["base"],
                master_seed=int(data["master_seed"]),
                budget=int(data["budget"]),
                p_grid=[float(p) for p in data["p_grid"]],
                points=points,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a sweep curve: {exc!r}") from exc


def sample_perturbation(n: int, p: float, rng: RngSpec, trial_index: int) -> IntSet:
    """[n]_p under the stream for trial_index: per 4096-element block, draw
    the included count binomially, then the positions uniformly."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    gen = rng.generator(trial_index)
    elems: list[int] = []
    for start in range(1, n + 1, _BLOCK):
        size = min(_BLOCK, n - start + 1)
        k = int(gen.binomial(size, p))
        if k:
            elems.extend((start + gen.choice(size, size=k, replace=False)).tolist())
    return IntSet(n, elems)


def _run_one(args) -> TrialRecord:
    mask, n, p, master_seed, trial_index, budget = args
    started = time.perf_counter()
    perturb = sample_perturbation(n, p, RngSpec(master_seed), trial_index)
    union = IntSet._from_mask(n, mask).union(perturb)
    outcome = find_schur_colouring(union, None, budget)
    return TrialRecord(
        trial_index=trial_index,
        p=p,
        sample_size=len(perturb),
        outcome=VERDICT[outcome.status].value,
        nodes_explored=outcome.nodes_explored,
        wall_time=time.perf_counter() - started,
    )


def _execute(
    a: IntSet,
    n: int,
    jobs: list[tuple[float, int]],
    rng: RngSpec,
    budget: int,
    workers: int,
) -> list[TrialRecord]:
    """Run one trial per (p, trial_index) job, in job order; a process pool
    only when workers > 1, so importing the package loads no
    multiprocessing."""
    if a.n != n:
        a = IntSet(n, a)
    tasks = [(a._mask, n, p, rng.master_seed, i, budget) for p, i in jobs]
    if workers <= 1:
        return [_run_one(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = max(1, len(tasks) // (4 * workers))
        return list(pool.map(_run_one, tasks, chunksize=chunksize))


def run_trials(
    a: IntSet,
    n: int,
    p: float,
    trials: int,
    rng: RngSpec,
    budget: int = DEFAULT_BUDGET,
    trial_offset: int = 0,
    workers: int = 1,
) -> list[TrialRecord]:
    """Decide is_schur(a u [n]_p) for trials consecutive trial indices."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    jobs = [(p, trial_offset + j) for j in range(trials)]
    return _execute(a, n, jobs, rng, budget, workers)


def _aggregate(p: float, records: list[TrialRecord]) -> SweepPoint:
    counts = Counter(r.outcome for r in records)
    mean_size = sum(r.sample_size for r in records) / len(records)
    return SweepPoint(
        p=p,
        trials=len(records),
        schur=counts[SchurStatus.SCHUR.value],
        not_schur=counts[SchurStatus.NOT_SCHUR.value],
        unknown=counts[SchurStatus.UNKNOWN.value],
        mean_sample_size=mean_size,
    )


def sweep(
    a: IntSet,
    n: int,
    p_grid: list[float],
    trials: int,
    rng: RngSpec,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    base: str = "custom",
) -> SweepCurve:
    """run_trials per grid point with globally consecutive trial indices."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not p_grid:
        raise ValueError("p_grid must not be empty")
    if any(q > r for q, r in zip(p_grid, p_grid[1:])):
        raise ValueError("p_grid must be ascending")
    jobs = [(p, i * trials + j) for i, p in enumerate(p_grid) for j in range(trials)]
    records = _execute(a, n, jobs, rng, budget, workers)
    points = [
        _aggregate(p, records[i * trials : (i + 1) * trials])
        for i, p in enumerate(p_grid)
    ]
    return SweepCurve(
        n=n,
        base=base,
        master_seed=rng.master_seed,
        budget=budget,
        p_grid=list(p_grid),
        points=points,
        records=records,
    )


class NoCrossingError(ValueError):
    """The sweep curve never brackets 1/2."""


def isotonic_fit(values: list[float], weights: list[float]) -> list[float]:
    """Weighted increasing fit by pool-adjacent-violators."""
    blocks: list[list[float]] = []  # [mean, weight, count]
    for v, w in zip(values, weights):
        blocks.append([v, w, 1])
        while len(blocks) > 1 and blocks[-2][0] >= blocks[-1][0]:
            v2, w2, c2 = blocks.pop()
            v1, w1, c1 = blocks.pop()
            total = w1 + w2
            mean = (v1 * w1 + v2 * w2) / total if total else (v1 + v2) / 2
            blocks.append([mean, total, c1 + c2])
    out: list[float] = []
    for mean, _, count in blocks:
        out.extend([mean] * count)
    return out


def estimate_threshold(curve: SweepCurve) -> tuple[float, float, float]:
    """(p_lo, p_hat, p_hi): the 1/2-crossing of the isotonic fit of
    schur_fraction, bracketed by the tightest grid points."""
    pts = [pt for pt in curve.points if pt.schur + pt.not_schur > 0]
    if len(pts) < 2:
        raise NoCrossingError("need at least two grid points with decided trials")
    ps = [pt.p for pt in pts]
    fits = isotonic_fit(
        [pt.schur_fraction for pt in pts],
        [float(pt.schur + pt.not_schur) for pt in pts],
    )
    half = 0.5
    if fits[0] >= half or fits[-1] < half:
        raise NoCrossingError("schur_fraction never brackets 1/2 on this grid")
    for i in range(len(fits) - 1):
        if fits[i] < half <= fits[i + 1]:
            lo, hi = ps[i], ps[i + 1]
            y0, y1 = fits[i], fits[i + 1]
            p_hat = lo + (hi - lo) * (half - y0) / (y1 - y0)
            return lo, p_hat, hi
    raise NoCrossingError("schur_fraction never brackets 1/2 on this grid")


def theoretical_thresholds(
    n: int, t: int | None = None, s: int | None = None
) -> dict[str, float | None]:
    """The five asymptotic threshold scales evaluated at finite n; the
    dense one needs t and the sparse ones s, in the ranges that dense0:n,t
    and sparse:n,s accept (ValueError otherwise)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t is not None:
        check_dense_t(n, t)
    if s is not None:
        check_sparse_s(n, s)
    return {
        "dense": None if t is None else min(n ** (-2 / 3), 1 / t),
        "sparse_zero": None if s is None else (n * s) ** (-1 / 3),
        "sparse_one": None if s is None else (n**13 * s) ** (-1 / 27) * math.log(n),
        "random": n**-0.5,
        "positive_density": n ** (-2 / 3),
    }


def default_grid(center: float) -> list[float]:
    """Geometric grid, ratio 2, spanning [center/32, center*32], capped at 1."""
    if center <= 0:
        raise ValueError("center must be positive")
    return sorted({min(1.0, center * 2.0**k) for k in range(-5, 6)})
