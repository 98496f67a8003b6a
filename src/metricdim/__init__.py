"""Intrinsic-dimensionality estimators and instrumented exact similarity search
for metric datasets: dispersion and concentration statistics, doubling probes,
and two exact range-search indexes whose cost is measured in distance
evaluations.
"""

from .core import (
    DEGENERATE,
    CountingOracle,
    Dataset,
    InvalidInputError,
    InvariantViolation,
    MetricKind,
    all_pair_distances,
    diameter_is_exact,
    diameter_upper_bound,
    distance,
    distances_to,
    load_dataset,
    pair_distances,
    within_radius,
)
from .generate import Family, GeneratorSpec, generate
from .diststats import (
    ALL_PAIRS,
    AllPairs,
    BoxplotSummary,
    MomentSummary,
    NNStats,
    SampledPairs,
    boxplot_summary,
    cnbym_dimension,
    dataset_cnbym,
    default_mode,
    moments,
    nn_statistics,
    pair_moments,
    pairwise_distances,
)
from .concentration import (
    ConcentrationCurve,
    chernoff_alpha,
    chernoff_curve,
    concentration_dimension,
    empirical_concentration,
    select_witnesses,
    union_bound_slack,
    witness_curve,
)
from .doubling import (
    CoverResult,
    DoublingEstimate,
    ProbeRecord,
    doubling_estimate,
    greedy_cover,
    probe_rows,
)
from .pivot import (
    FarthestFirst,
    PivotIndex,
    QueryStats,
    RandomPivots,
    SweepRow,
    build_pivot_index,
    calibrate_eps,
    degradation_sweep,
    range_query,
    sequential_scan,
)
from .nettree import NetTree, TreeStats, build_net_tree, net_range_query, verify_net_invariants

__version__ = "0.1.0"
