import math

import pytest

from schurperturb.constructions import mod5_construction
from schurperturb.intset import IntSet
from schurperturb.montecarlo import (
    NoCrossingError,
    RngSpec,
    SweepCurve,
    SweepPoint,
    default_grid,
    estimate_threshold,
    isotonic_fit,
    run_trials,
    sample_perturbation,
    sweep,
    theoretical_thresholds,
)


class TestSampling:
    def test_endpoints(self):
        rng = RngSpec(1)
        assert sample_perturbation(50, 0.0, rng, 0).elements() == []
        assert sample_perturbation(50, 1.0, rng, 0) == IntSet.full(50)

    def test_determinism(self):
        rng = RngSpec(99)
        a = sample_perturbation(5000, 0.2, rng, 7)
        b = sample_perturbation(5000, 0.2, RngSpec(99), 7)
        assert a == b

    def test_streams_differ(self):
        rng = RngSpec(99)
        assert sample_perturbation(5000, 0.2, rng, 0) != sample_perturbation(
            5000, 0.2, rng, 1
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_perturbation(10, 1.5, RngSpec(0), 0)

    def test_binomial_sanity(self):
        # mean sample size over many trials within 5 sigma of np
        n, p, trials = 9000, 0.13, 1000
        rng = RngSpec(1234)
        total = sum(len(sample_perturbation(n, p, rng, i)) for i in range(trials))
        mean = total / trials
        sigma = math.sqrt(n * p * (1 - p) / trials)
        assert abs(mean - n * p) <= 5 * sigma


class TestRunTrials:
    def test_non_schur_base_no_perturbation(self):
        a, _ = mod5_construction(10)
        recs = run_trials(a, 10, 0.0, 5, RngSpec(3))
        assert all(r.outcome == "NotSchur" for r in recs)

    def test_empty_base_full_perturbation(self):
        recs = run_trials(IntSet(5), 5, 1.0, 5, RngSpec(3))
        assert all(r.outcome == "Schur" for r in recs)

    def test_budget_zero_unknown(self):
        recs = run_trials(IntSet(8, [1, 2, 3]), 8, 0.5, 3, RngSpec(3), budget=0)
        assert all(r.outcome == "Unknown" for r in recs)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            run_trials(IntSet(5), 5, 0.5, 0, RngSpec(1))

    def test_outcome_reproducible(self):
        a, _ = mod5_construction(15)
        first = run_trials(a, 15, 0.3, 6, RngSpec(55))
        again = run_trials(a, 15, 0.3, 6, RngSpec(55))
        assert [r.outcome for r in first] == [r.outcome for r in again]
        assert [r.sample_size for r in first] == [r.sample_size for r in again]


class TestSweep:
    def test_endpoint_fractions(self):
        a, _ = mod5_construction(10)
        curve = sweep(a, 10, [0.0, 1.0], 6, RngSpec(9))
        assert curve.points[0].schur_fraction == 0.0
        assert curve.points[1].schur_fraction == 1.0
        assert not curve.non_conclusive

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            sweep(IntSet(5), 5, [0.5, 0.1], 2, RngSpec(1))

    def test_trials_zero_error(self):
        with pytest.raises(ValueError):
            sweep(IntSet(5), 5, [0.1], 0, RngSpec(1))

    def test_empty_grid_error(self):
        with pytest.raises(ValueError, match="p_grid must not be empty"):
            sweep(IntSet(5), 5, [], 2, RngSpec(1))

    def test_worker_independence(self):
        a, _ = mod5_construction(12)
        grid = [0.05, 0.3, 0.9]
        one = sweep(a, 12, grid, 8, RngSpec(77), workers=1)
        two = sweep(a, 12, grid, 8, RngSpec(77), workers=2)
        assert one.to_json() == two.to_json()

    def test_canonical_json_stable(self):
        a, _ = mod5_construction(10)
        c1 = sweep(a, 10, [0.2, 0.8], 4, RngSpec(5))
        c2 = sweep(a, 10, [0.2, 0.8], 4, RngSpec(5))
        assert c1.to_json() == c2.to_json()

    def test_json_round_trip(self):
        a, _ = mod5_construction(10)
        curve = sweep(a, 10, [1e-05, 0.2, 0.8], 4, RngSpec(5), budget=1)
        back = SweepCurve.from_json(curve.to_json())
        assert back.to_json() == curve.to_json()
        with pytest.raises(ValueError):
            SweepCurve.from_json('{"points": [{"p": "0.1"}]}')


def _curve(points):
    return SweepCurve(
        n=10,
        base="x",
        master_seed=0,
        budget=1,
        p_grid=[p for p, *_ in points],
        points=[
            SweepPoint(p=p, trials=t, schur=s, not_schur=t - s, unknown=0,
                       mean_sample_size=0.0)
            for p, s, t in points
        ],
    )


class TestThresholdEstimation:
    def test_bracketing(self):
        curve = _curve([(0.001, 0, 10), (0.01, 4, 10), (0.1, 10, 10)])
        lo, p_hat, hi = estimate_threshold(curve)
        assert (lo, hi) == (0.01, 0.1)
        assert 0.01 < p_hat < 0.1

    def test_endpoints_zero_one(self):
        curve = _curve([(0.0, 0, 10), (1.0, 10, 10)])
        lo, p_hat, hi = estimate_threshold(curve)
        assert 0.0 < p_hat < 1.0

    def test_no_crossing(self):
        with pytest.raises(NoCrossingError):
            estimate_threshold(_curve([(0.1, 10, 10), (0.2, 10, 10)]))

    def test_isotonic_fit(self):
        vals = [0.0, 0.5, 0.3, 1.0]
        fit = isotonic_fit(vals, [1.0] * 4)
        assert fit == sorted(fit)
        assert fit[1] == pytest.approx(0.4)
        assert fit[2] == pytest.approx(0.4)


class TestTheoreticalThresholds:
    def test_dense_examples(self):
        assert theoretical_thresholds(10**6, t=10)["dense"] == pytest.approx(1e-4)
        assert theoretical_thresholds(10**6, t=10**4)["dense"] == pytest.approx(1e-4)

    def test_sparse_example(self):
        rec = theoretical_thresholds(10**4, s=10**2)
        assert rec["sparse_zero"] == pytest.approx(1e-2)
        assert rec["sparse_one"] == pytest.approx(
            (10**52 * 100) ** (-1 / 27) * math.log(10**4)
        )

    def test_optional_params(self):
        rec = theoretical_thresholds(100)
        assert rec["dense"] is None and rec["sparse_zero"] is None
        assert rec["random"] == pytest.approx(0.1)
        assert rec["positive_density"] == pytest.approx(100 ** (-2 / 3))

    def test_domain(self):
        with pytest.raises(ValueError):
            theoretical_thresholds(0)

    @pytest.mark.parametrize("t", [-5, 0, 301])
    def test_dense_range(self, t):
        # dense0:1000,t takes 1 <= t <= ceil(4000/5) - 500 = 300
        assert theoretical_thresholds(1000, t=300)["dense"] == pytest.approx(1 / 300)
        with pytest.raises(ValueError, match="require 1 <= t"):
            theoretical_thresholds(1000, t=t)

    @pytest.mark.parametrize("s", [-1, 0, 501])
    def test_sparse_range(self, s):
        # sparse:1000,s takes 1 <= s <= 500
        assert theoretical_thresholds(1000, s=500)["sparse_zero"] == pytest.approx(500000 ** (-1 / 3))
        with pytest.raises(ValueError, match="require 1 <= s"):
            theoretical_thresholds(1000, s=s)


class TestDefaultGrid:
    def test_span(self):
        grid = default_grid(0.01)
        assert grid == sorted(grid)
        assert min(grid) == pytest.approx(0.01 / 32)
        assert max(grid) == pytest.approx(0.32)
        assert len(grid) == 11

    def test_cap_at_one(self):
        assert max(default_grid(0.5)) == 1.0
