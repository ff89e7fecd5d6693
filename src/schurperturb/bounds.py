"""Closed-form tail bounds, moment computations and the dense-case
classifier.

The nonconstructive constants (removal-lemma delta, supersaturation xi,
Janson zeta) are taken as explicit inputs; nothing here derives them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

from .intset import IntSet, count_hosting_sets

DEFAULT_CLASSIFIER_DELTA = 1e-3
DEFAULT_CLASSIFIER_EPSILON = 1 / 28


@dataclass(frozen=True)
class JansonParams:
    mu: float
    delta: float
    t: float

    def __post_init__(self):
        if self.mu < 0 or self.delta < 0:
            raise ValueError("mu and delta must be nonnegative")
        if not 0 <= self.t <= self.mu:
            raise ValueError("require 0 <= t <= mu")


def janson_lower_tail(params: JansonParams) -> float:
    """exp(-t^2 / (2 (mu + delta))); 1 at the degenerate mu + delta = 0."""
    denom = params.mu + params.delta
    if denom == 0:
        return 1.0
    return math.exp(-params.t**2 / (2 * denom))


@dataclass(frozen=True)
class TripleMoments:
    mu_exact: float
    delta_exact: float
    delta_star: float
    deduped_count: int


def triple_moments(triples, n: int, p: float) -> TripleMoments:
    """First and second moments of the triple count in [n]_p.

    Triples with identical hosting sets are collapsed before both moments;
    delta_exact sums E[X_S X_S'] over ordered intersecting distinct pairs,
    delta_star is the closed-form 27(n^2 p^4 + n^3 p^5) relaxation.
    """
    hosts = set()
    for x, y, z in triples:
        if x == y:
            raise ValueError(f"degenerate triple {(x, y, z)}")
        if x + y != z:
            raise ValueError(f"{(x, y, z)} is not a Schur triple")
        hosts.add(frozenset((x, y, z)))
    host_list = list(hosts)
    mu = len(host_list) * p**3
    delta = 0.0
    for i, s in enumerate(host_list):
        for s2 in host_list[i + 1 :]:
            shared = len(s & s2)
            if shared:
                delta += 2 * p ** (6 - shared)
    delta_star = 27 * (n**2 * p**4 + n**3 * p**5)
    return TripleMoments(mu, delta, delta_star, len(host_list))


@dataclass(frozen=True)
class WicketDeltaBound:
    termwise: float
    simplified: float
    termwise_le_simplified: bool


def wicket_delta_bound(w_count: float, n: int, p: float, c: float) -> WicketDeltaBound:
    """The nine-term pair-correlation bound for wicket counts and its
    2^108 C^4 |W| p^9 simplification; requires p <= C n^(-1/2)."""
    if p > c * n**-0.5:
        raise ValueError("requires p <= C * n^(-1/2)")
    f9 = math.factorial(9)
    inner = (
        f9**5 * n**4 * p**8
        + f9**4 * n**3 * p**7
        + f9**4 * n**3 * p**6
        + f9**3 * n**2 * p**5
        + f9**3 * n**2 * p**4
        + f9**2 * n * p**3
        + f9**2 * n * p**2
        + f9 * p
        + f9
    )
    termwise = w_count * 2**9 * p**9 * inner
    simplified = 2**108 * c**4 * w_count * p**9
    return WicketDeltaBound(termwise, simplified, termwise <= simplified)


@dataclass(frozen=True)
class DenseCaseReport:
    n: int
    triple_sets: int
    even_count: int
    missing_odd_count: int
    missing_top: int
    t: int
    delta: float
    epsilon: float
    case: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def classify_dense_case(
    a: IntSet,
    delta: float = DEFAULT_CLASSIFIER_DELTA,
    epsilon: float = DEFAULT_CLASSIFIER_EPSILON,
) -> DenseCaseReport:
    """Label a dense base set by the structure driving its perturbation
    threshold: many triples (CaseI), near-odd (CaseII1), near-top
    (CaseII2), or honestly Unclassified at small n."""
    if not (0 < delta < 1 and 0 < epsilon < 1):
        raise ValueError("delta and epsilon must lie in (0, 1)")
    n, mask = a.n, a.mask
    triple_sets = count_hosting_sets(a)
    odd_bits = (4 ** ((n + 1) // 2) - 1) // 3 << 1  # bits 1, 3, 5, ... up to n
    odd_count = (mask & odd_bits).bit_count()
    even_count = len(a) - odd_count
    missing_odds = (n + 1) // 2 - odd_count
    top_lo = math.ceil(n / 2)
    missing_top = n + 1 - top_lo - (mask >> top_lo).bit_count()
    t = len(a) - math.ceil(n / 2)

    if triple_sets >= delta * n**2:
        case = "CaseI"
    elif even_count <= epsilon * n and missing_odds <= epsilon * n:
        case = "CaseII1"
    elif missing_top <= 2 * epsilon * n:
        case = "CaseII2"
    else:
        case = "Unclassified"
    return DenseCaseReport(
        n=n,
        triple_sets=triple_sets,
        even_count=even_count,
        missing_odd_count=missing_odds,
        missing_top=missing_top,
        t=t,
        delta=delta,
        epsilon=epsilon,
        case=case,
    )
