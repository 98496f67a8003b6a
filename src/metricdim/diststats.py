"""Pairwise-distance statistics and dispersion-based dimension estimates.

The central quantity is the distance between two random dataset points.
Its first two moments give the dispersion dimension estimate
mean^2 / (2 * variance); its minimum over a dataset, averaged over query
points, gives the nearest-neighbor statistics that exhibit the
empty-space effect in high dimension.

Conventions fixed here (and echoed by the CLI): quartiles use linear
interpolation of order statistics (quantile type 7), variance is the
unbiased count-1 estimator, and full pair enumeration is capped at
PAIR_BUDGET unordered pairs, beyond which pairs are sampled uniformly
with replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import rng
from .core import (
    DEGENERATE,
    CountingOracle,
    Dataset,
    InvalidInputError,
    all_pair_distances,
    pair_distances,
)

PAIR_BUDGET = 5_000_000
_SAMPLE_CHUNK = 250_000


@dataclass(frozen=True)
class AllPairs:
    """Enumerate each unordered pair exactly once, in (i, j>i) order."""


@dataclass(frozen=True)
class SampledPairs:
    """m unordered pairs i != j drawn uniformly with replacement."""

    m: int
    seed: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidInputError("pair sample size must be >= 1")


PairMode = Union[AllPairs, SampledPairs]

ALL_PAIRS = AllPairs()


def default_mode(n: int, seed: int = 0) -> PairMode:
    """AllPairs while n(n-1)/2 fits the pair budget, sampled otherwise."""
    return ALL_PAIRS if n * (n - 1) // 2 <= PAIR_BUDGET else SampledPairs(PAIR_BUDGET, seed)


@dataclass(frozen=True)
class DistanceSample:
    values: np.ndarray
    mode: PairMode
    n: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if (values < 0).any():
            raise InvalidInputError("distances cannot be negative")
        if isinstance(self.mode, AllPairs) and values.size != self.n * (self.n - 1) // 2:
            raise InvalidInputError("full enumeration must hold exactly n(n-1)/2 values")
        if isinstance(self.mode, SampledPairs) and values.size != self.mode.m:
            raise InvalidInputError("sampled enumeration must hold exactly m values")
        object.__setattr__(self, "values", values)


def _row_pair_distances(ds: Dataset, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    out = np.empty(len(ii))
    for start in range(0, len(ii), _SAMPLE_CHUNK):
        sl = slice(start, start + _SAMPLE_CHUNK)
        out[sl] = pair_distances(ds.metric, ds.points[ii[sl]], ds.points[jj[sl]])
    return out


def pairwise_distances(ds: Dataset, mode: PairMode | None = None) -> DistanceSample:
    """Distances of unordered point pairs, enumerated or sampled per ``mode``."""
    if ds.n < 2:
        raise InvalidInputError("pairwise distances need at least 2 points")
    if mode is None:
        mode = default_mode(ds.n, seed=ds.seed if ds.seed is not None else 0)
    if isinstance(mode, AllPairs):
        return DistanceSample(all_pair_distances(ds.metric, ds.points), mode, ds.n)
    # Uniform over ordered pairs i != j, then unordered; with replacement.
    ii = rng.integers(mode.seed, mode.m, ds.n, stream=0)
    jj = rng.integers(mode.seed, mode.m, ds.n - 1, stream=1)
    jj = jj + (jj >= ii)
    return DistanceSample(_row_pair_distances(ds, ii, jj), mode, ds.n)


@dataclass(frozen=True)
class BoxplotSummary:
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: np.ndarray

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def _sample_values(sample) -> np.ndarray:
    if isinstance(sample, DistanceSample):
        return sample.values
    return np.asarray(sample, dtype=np.float64)


def boxplot_summary(sample) -> BoxplotSummary:
    """Tukey box statistics: type-7 quartiles, 1.5*IQR whisker fences.

    Accepts a DistanceSample or any array of values.
    """
    values = _sample_values(sample)
    if values.size < 5:
        raise InvalidInputError(f"boxplot needs at least 5 values, got {values.size}")
    q1, median, q3 = (float(q) for q in np.quantile(values, [0.25, 0.5, 0.75]))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    outliers = values[(values < lo_fence) | (values > hi_fence)]
    return BoxplotSummary(
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=np.sort(outliers),
    )


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    count: int


def moments(sample) -> MomentSummary:
    """Arithmetic mean and unbiased (count - 1) variance of the distances.

    Accepts a DistanceSample or any array of values.
    """
    values = _sample_values(sample)
    if values.size < 2:
        raise InvalidInputError("moments need at least 2 distance values")
    return MomentSummary(float(values.mean()), float(values.var(ddof=1)), int(values.size))


def cnbym_dimension(summary: MomentSummary):
    """Dispersion dimension mean^2 / (2 * variance).

    Scale-free: multiplying all distances by c > 0 leaves it unchanged
    (exactly so for binary powers of two, which is why the square is a
    plain multiply: libm pow is not homogeneous under exact scaling).
    A zero-variance sample has unbounded dimension and yields DEGENERATE.
    """
    if summary.variance == 0.0:
        return DEGENERATE
    return summary.mean * summary.mean / (2.0 * summary.variance)


def dataset_cnbym(ds: Dataset, mode: PairMode | None = None):
    return cnbym_dimension(moments(pairwise_distances(ds, mode)))


@dataclass(frozen=True)
class NNStats:
    mean_eps_nn: float
    characteristic_size: float
    ratio: object  # float, or DEGENERATE when the characteristic size is 0


def nn_statistics(
    ds: Dataset,
    queries: Dataset,
    oracle: CountingOracle | None = None,
    leave_one_out: bool = False,
    sample: DistanceSample | None = None,
) -> NNStats:
    """Mean nearest-neighbor distance of the queries against the dataset,
    the dataset's mean pairwise distance (characteristic size), and their
    ratio.

    ``sample`` is a pair sample of ``ds`` the caller already holds; without
    one, the default-mode sample is drawn here. With ``leave_one_out`` a
    query's coordinate-identical data points are excluded from its own NN
    search.
    """
    if ds.n < 1 or queries.n < 1:
        raise InvalidInputError("nn statistics need nonempty data and queries")
    if queries.dim != ds.dim or queries.metric.kind is not ds.metric.kind:
        raise InvalidInputError("queries do not match the dataset's dimension and metric")
    if sample is not None and sample.n != ds.n:
        raise InvalidInputError("the pair sample was not drawn from this dataset")
    nn_sum = 0.0
    for q in queries.points:
        dv = pair_distances(ds.metric, q, ds.points)
        if oracle is not None:
            oracle.add(ds.n)
        if leave_one_out:
            dv = dv[~(ds.points == q).all(axis=1)]
            if dv.size == 0:
                raise InvalidInputError("leave-one-out excluded every data point for a query")
        nn_sum += float(dv.min())
    mean_eps_nn = nn_sum / queries.n
    characteristic = 0.0
    if ds.n >= 2:
        characteristic = float((sample if sample is not None else pairwise_distances(ds)).values.mean())
    ratio = DEGENERATE if characteristic == 0.0 else mean_eps_nn / characteristic
    return NNStats(mean_eps_nn, characteristic, ratio)
