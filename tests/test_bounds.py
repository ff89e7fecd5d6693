import json
import math
import random

import pytest

from schurperturb.bounds import (
    DenseCaseReport,
    JansonParams,
    classify_dense_case,
    janson_lower_tail,
    triple_moments,
    wicket_delta_bound,
)
from schurperturb.constructions import dense_zero_statement, odd_set, top_interval
from schurperturb.intset import IntSet, schur_triples


class TestJanson:
    def test_degenerate(self):
        assert janson_lower_tail(JansonParams(0, 0, 0)) == 1.0

    def test_value(self):
        p = JansonParams(mu=10, delta=6, t=4)
        assert janson_lower_tail(p) == pytest.approx(math.exp(-16 / 32))

    def test_monotone_in_t(self):
        vals = [janson_lower_tail(JansonParams(10, 2, t)) for t in (0, 2, 5, 10)]
        assert vals == sorted(vals, reverse=True)

    def test_domain(self):
        with pytest.raises(ValueError):
            JansonParams(5, 0, 6)  # t > mu
        with pytest.raises(ValueError):
            JansonParams(-1, 0, 0)


class TestTripleMoments:
    def test_full_five_example(self):
        triples = list(schur_triples(IntSet(5, range(1, 6)), nondegenerate_only=True))
        # symmetrize to the ordered convention
        ordered = triples + [(y, x, z) for x, y, z in triples]
        m = triple_moments(ordered, 5, 0.1)
        assert m.deduped_count == 4
        assert m.mu_exact == pytest.approx(4e-3)

    def test_delta_exact_oracle(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(8, 40)
            s = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.6])
            p = rng.uniform(0.05, 0.5)
            triples = list(schur_triples(s, nondegenerate_only=True))
            m = triple_moments(triples, n, p)
            hosts = list({frozenset(t) for t in triples})
            want = 0.0
            for a in hosts:
                for b in hosts:
                    if a != b and a & b:
                        want += p ** len(a | b)
            assert m.delta_exact == pytest.approx(want)

    def test_delta_le_delta_star(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(8, 60)
            s = IntSet(n, [e for e in range(1, n + 1) if rng.random() < 0.7])
            p = rng.uniform(0.01, 1.0)
            m = triple_moments(
                list(schur_triples(s, nondegenerate_only=True)), n, p
            )
            # the bound is the paper's closed form, written out here
            assert m.delta_star == pytest.approx(27 * (n**2 * p**4 + n**3 * p**5))
            assert m.delta_exact <= m.delta_star

    def test_rejects_bad_triples(self):
        with pytest.raises(ValueError):
            triple_moments([(2, 2, 4)], 5, 0.1)  # degenerate
        with pytest.raises(ValueError):
            triple_moments([(1, 2, 4)], 5, 0.1)  # not a Schur triple


class TestWicketDeltaBound:
    def test_precondition(self):
        with pytest.raises(ValueError):
            wicket_delta_bound(10, 100, 0.5, 1.0)  # p > C / sqrt(n)

    def test_termwise_le_simplified(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(100, 10**4)
            c = rng.uniform(1.0, 3.0)
            p = rng.uniform(0.1, 1.0) * c * n**-0.5
            w = rng.uniform(1, n**4)
            b = wicket_delta_bound(w, n, p, c)
            assert b.termwise_le_simplified
            assert b.termwise <= b.simplified


class TestDenseClassifier:
    def test_full_interval_case1(self):
        assert classify_dense_case(IntSet.full(200)).case == "CaseI"

    def test_odd_set_case2_1(self):
        rep = classify_dense_case(odd_set(200))
        assert rep.case == "CaseII1"
        assert rep.even_count == 0
        assert rep.missing_odd_count == 0

    def test_top_interval_case2_2(self):
        rep = classify_dense_case(top_interval(200))
        assert rep.case == "CaseII2"
        assert rep.missing_top <= 1

    def test_dense_zero_statement(self):
        a = dense_zero_statement(200, 10).A
        # [91, 200] holds 100 hosting sets: CaseI under the default delta,
        # CaseII2 (near-top) once delta demands more
        assert classify_dense_case(a).case == "CaseI"
        rep = classify_dense_case(a, delta=0.01)
        assert rep.case == "CaseII2"
        assert rep.missing_top == 0
        assert rep.t == 10

    def test_unclassified_exists(self):
        # alternating low/high set: many evens, far from odd or top structure
        n = 100
        a = IntSet(n, list(range(2, 40, 2)) + list(range(45, 80)))
        rep = classify_dense_case(a, delta=0.5)
        assert rep.case == "Unclassified"

    def test_json_round_trip(self):
        rep = classify_dense_case(odd_set(64))
        data = json.loads(rep.to_json())
        assert data["case"] == rep.case
        assert data["n"] == 64

    def test_domain(self):
        with pytest.raises(ValueError):
            classify_dense_case(odd_set(10), delta=0)
        with pytest.raises(ValueError):
            classify_dense_case(odd_set(10), epsilon=1.5)
