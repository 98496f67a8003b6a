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
with replacement. Full enumeration reads the row bands of the one pair
engine in ``core`` (``all_pair_distances``): Hamming, Manhattan and
Chebyshev values are the kernel's own, Euclidean values are within 1e-9
relative of them and unchanged by translating the points. The sample is
drawn, gathered and measured in chunks of a fixed byte budget, on buffers
made once per call and shared round-robin over a few threads (see
``pairwise_distances``); only its distance vector is held whole. Neither
the chunking nor the thread count changes a value: each draw is a pure
function of its index, and the kernel measures each pair on its own.

Either way the distances are held in one copy: full enumeration writes
each band's triangle into the one output vector, and ``moments`` takes
the variance's second pass in leaf-sized pieces, with numpy's own
summation tree, so its value is ``values.var(ddof=1)`` to the bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import rng
from .core import (
    DEGENERATE,
    _SCAN_BYTES,
    CountingOracle,
    Dataset,
    InvalidInputError,
    _BallScreen,
    all_pair_distances,
)

PAIR_BUDGET = 5_000_000
_CHUNK_BYTES = 2**21
# At most this many threads share one pair sample. Each holds two gathered
# blocks of _CHUNK_BYTES, and the chunks are memory-bound numpy calls.
_MAX_WORKERS = 4


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
        # (values < 0).any() without its boolean array: fmin skips NaN as the
        # comparison does, and the initial 0 covers an empty sample.
        if np.fmin.reduce(values, axis=None, initial=0.0) < 0:
            raise InvalidInputError("distances cannot be negative")
        if isinstance(self.mode, AllPairs) and values.size != self.n * (self.n - 1) // 2:
            raise InvalidInputError("full enumeration must hold exactly n(n-1)/2 values")
        if isinstance(self.mode, SampledPairs) and values.size != self.mode.m:
            raise InvalidInputError("sampled enumeration must hold exactly m values")
        object.__setattr__(self, "values", values)


def pairwise_distances(ds: Dataset, mode: PairMode | None = None) -> DistanceSample:
    """Distances of unordered point pairs, enumerated or sampled per ``mode``.

    Sampled pairs are uniform over ordered pairs i != j, with replacement,
    then read as unordered: pair k takes i from draw k of counter stream 0
    and j from draw k of stream 1, shifted past i. The sample is built in
    chunks of consecutive pair indices. Each chunk draws its own counters,
    gathers its rows and writes its distances into the output, so neither
    whole index array nor a gathered block of the whole sample is held.

    A chunk is sized by the bytes of kernel rows it gathers per side
    (``_CHUNK_BYTES``), not by a pair count, because the cache sets the
    best size: about 2 MB both for 16 float64 columns (16k pairs) and for
    512 bits packed into 64-byte rows (32k pairs), so a pair count would
    have to follow the row width.

    The chunks go round-robin to one thread per usable CPU, at most
    ``_MAX_WORKERS`` and at most one per chunk; a single worker runs in
    the calling thread. Each worker draws, gathers and measures its chunks
    on one set of buffers (see ``_sample_chunks``), so no chunk allocates,
    and writes disjoint slices of the output. The buffers are allocated
    here, in the calling thread: glibc would keep a worker's own
    allocations in that thread's arena, which showed as peak memory. The
    values depend neither on the chunking nor on the worker count: every
    draw is a pure function of its index, and the kernel measures each
    pair on its own.
    """
    if ds.n < 2:
        raise InvalidInputError("pairwise distances need at least 2 points")
    if mode is None:
        mode = default_mode(ds.n, seed=ds.seed if ds.seed is not None else 0)
    if isinstance(mode, AllPairs):
        return DistanceSample(all_pair_distances(ds.metric, ds.points), mode, ds.n)
    rows = ds.kernel_rows
    per_chunk = min(mode.m, max(1, _CHUNK_BYTES // rows[0].nbytes))
    workers = min(_usable_cpus(), -(-mode.m // per_chunk), _MAX_WORKERS)
    keys = (rng.stream_key(mode.seed, 0), rng.stream_key(mode.seed, 1))
    steps = rng._counter_steps(per_chunk)
    out = np.empty(mode.m)
    jobs = [
        (ds, keys, steps, out, range(w * per_chunk, mode.m, workers * per_chunk), _chunk_buffers(rows, per_chunk))
        for w in range(workers)
    ]
    if workers == 1:
        _sample_chunks(*jobs[0])
    else:
        # Imported here: concurrent.futures loads logging, which cost every
        # CLI start about 7 ms.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(_sample_chunks, *job) for job in jobs]:
                future.result()
    return DistanceSample(out, mode, ds.n)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_buffers(rows: np.ndarray, size: int) -> tuple:
    """One worker's buffers for chunks of ``size`` pairs: the i and j
    draws, scratch words, and the two gathered row blocks."""
    block = (size,) + rows.shape[1:]
    return (
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.int64),
        np.empty(block, dtype=rows.dtype),
        np.empty(block, dtype=rows.dtype),
    )


def _sample_chunks(ds: Dataset, keys, steps: np.ndarray, out: np.ndarray, starts: range, buffers: tuple) -> None:
    """Write the sampled distances of the chunks beginning at ``starts``
    into ``out``, on ``buffers`` (see ``_chunk_buffers``) alone. ``keys``
    and ``steps`` are the two streams' keys and their shared counter steps
    (see ``rng._draw_range``), read only.

    The gathers clip instead of checking their indices: every draw lies in
    [0, bound) (see ``rng._draw_range``), and with ``out`` numpy's checked
    mode copies the block once more.
    """
    rows = ds.kernel_rows
    size = buffers[0].size
    for start in starts:
        stop = min(start + size, out.size)
        ii, jj, scratch, a, b = (buf[: stop - start] for buf in buffers)
        rng._draw_range(keys[0], start, stop, ds.n, out=ii, scratch=scratch, steps=steps)
        rng._draw_range(keys[1], start, stop, ds.n - 1, out=jj, scratch=scratch, steps=steps)
        jj += np.greater_equal(jj, ii, out=scratch)
        np.take(rows, ii, axis=0, out=a, mode="clip")
        np.take(rows, jj, axis=0, out=b, mode="clip")
        ds.distances(a, b, out=out[start:stop])


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

    Accepts a DistanceSample or any array of values. The results equal
    ``float(values.mean())`` and ``float(values.var(ddof=1))`` bit for bit,
    but the variance's second pass holds no full-size temporary:
    ``values.var`` squares ``values - mean`` into a new array as large as
    the sample before summing it.

    Here the squared deviations are summed by ``_squared_deviations``, which
    splits the vector as numpy's ``pairwise_sum`` splits a contiguous one
    (halves, the first rounded down to a multiple of 8) until a piece
    fits one leaf-sized buffer of ``core._SCAN_BYTES // 8`` values. Each
    leaf's deviations are squared into that buffer and summed by
    ``np.add.reduce``, which runs ``pairwise_sum`` on the leaf, and the
    partial sums are added back up the same tree. Any leaf of at least
    numpy's 128-value pairwise block gives numpy's own tree, so the sum
    is numpy's to the last bit. ``test_moments_equal_numpy_bit_for_bit``
    pins this on the installed numpy, for sizes around the leaf and
    numpy's block and up to 5,000,000 values.
    """
    values = _sample_values(sample)
    if values.size < 2:
        raise InvalidInputError("moments need at least 2 distance values")
    mean = values.mean()
    buffer = np.empty(min(values.size, _SCAN_BYTES // 8))
    variance = _squared_deviations(values, mean, buffer) / (values.size - 1)
    return MomentSummary(float(mean), float(variance), int(values.size))


def _squared_deviations(values: np.ndarray, mean, buffer: np.ndarray):
    """The sum of ``(values - mean) ** 2`` in numpy's pairwise order (see
    ``moments``), with ``buffer`` as the only scratch array."""
    n = values.size
    if n <= buffer.size:
        leaf = np.subtract(values, mean, out=buffer[:n])
        return np.add.reduce(np.multiply(leaf, leaf, out=leaf))
    half = n // 2
    half -= half % 8
    return _squared_deviations(values[:half], mean, buffer) + _squared_deviations(values[half:], mean, buffer)


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

    The queries and the data rows go into one ball screen, as in
    ``within_radius``, and ``core._BallScreen.nearest`` reads each query's
    minimum from the screen's row bands: it masks the query's
    coordinate-identical rows first (with ``leave_one_out``), and the
    kernel re-measures only the pairs within the band of the minimum. Each
    minimum equals that of a kernel scan of the query against every row
    bit for bit, and the minima are summed in query order, so the mean is
    the one-query-at-a-time loop's. The oracle counts n evaluations a
    query, as that loop makes.
    """
    if ds.n < 1 or queries.n < 1:
        raise InvalidInputError("nn statistics need nonempty data and queries")
    if queries.dim != ds.dim or queries.metric is not ds.metric:
        raise InvalidInputError("queries do not match the dataset's dimension and metric")
    if sample is not None and sample.n != ds.n:
        raise InvalidInputError("the pair sample was not drawn from this dataset")
    screen = _BallScreen(ds.metric, np.concatenate([queries.kernel_rows, ds.kernel_rows]), ds.dim)
    nearest = screen.nearest(queries.n, leave_one_out)
    if oracle is not None:
        oracle.add(ds.n * queries.n)
    if np.isnan(nearest).any():
        raise InvalidInputError("leave-one-out excluded every data point for a query")
    nn_sum = 0.0
    for value in nearest.tolist():
        nn_sum += value
    mean_eps_nn = nn_sum / queries.n
    characteristic = 0.0
    if ds.n >= 2:
        characteristic = float((sample if sample is not None else pairwise_distances(ds)).values.mean())
    ratio = DEGENERATE if characteristic == 0.0 else mean_eps_nn / characteristic
    return NNStats(mean_eps_nn, characteristic, ratio)
