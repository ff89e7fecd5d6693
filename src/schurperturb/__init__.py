"""Experimental toolkit for Schur sets under random perturbation:
bitset-backed integer sets, a constrained hypergraph 2-colouring solver,
the explicit extremal constructions, exact wicket counting, finite-n
analytic bounds, and seeded Monte Carlo threshold sweeps.
"""

from .intset import (
    IntSet,
    LimitExceededError,
    count_hosting_sets,
    count_ordered_triples,
    enumerate_large_sum_free,
    hosting_sets,
    is_sum_free,
    schur_triples,
)
from .solver import (
    BLUE,
    RED,
    ColourConstraint,
    Colouring,
    DEFAULT_BUDGET,
    HostingHypergraph,
    LooseCycle,
    SchurStatus,
    SolveOutcome,
    Status,
    VERDICT,
    check_hmin_properties,
    find_loose_cycle,
    find_schur_colouring,
    is_schur,
    minimal_obstruction,
    validate_colouring,
)
from .constructions import (
    DenseZeroStatement,
    L1,
    L2,
    PairKind,
    PairPartition,
    claim48_partition,
    construct_by_name,
    dense_zero_statement,
    mod5_construction,
    odd_set,
    pair_P,
    pair_preimages,
    sparse_base,
    top_interval,
)
from .wickets import (
    claim_extension_bound,
    count_wickets,
    count_wickets_containing,
    iter_wickets,
)
from .bounds import (
    JansonParams,
    TripleMoments,
    WicketDeltaBound,
    classify_dense_case,
    janson_lower_tail,
    triple_moments,
    wicket_delta_bound,
)
from .colouring_hypergraph import (
    ContainerLike,
    HAStats,
    claim48_density_witness,
    codegree_delta,
    container_case,
    ha_stats_fast,
    is_compatible,
    partition_by_container,
)
from .montecarlo import (
    NoCrossingError,
    RngSpec,
    SweepCurve,
    TrialRecord,
    default_grid,
    estimate_threshold,
    isotonic_fit,
    run_trials,
    sample_perturbation,
    sweep,
    theoretical_thresholds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
