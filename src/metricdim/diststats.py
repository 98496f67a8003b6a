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
drawn in chunks of a fixed byte budget, the leaves of numpy's pairwise-sum
tree over the sample, and each leaf's rows are gathered and measured in
tiles of 1 MiB a side, on buffers made once per call and shared
round-robin over a few threads (see ``_sample_leaves``). Neither the
chunking, the tiles nor the thread count changes a value: each draw is a
pure function of its index, and the kernel measures each pair on its own.

Enumerated distances are held in one copy, and a sample is never held.
Full enumeration (``pairwise_distances``) writes each band's triangle into
one plain float64 vector, and ``moments`` takes the variance's second pass
over it leaf by leaf: the leaves of numpy's pairwise-sum tree, cut by
``_pairwise_leaves`` and added back up by ``_merged``, so its value is
``values.var(ddof=1)`` to the bit. ``pair_moments`` folds a sample over
the same tree walk instead, into a table of one row per leaf: its mean is
the sample's ``values.mean()`` to the bit, its variance within a few ulps
of ``values.var(ddof=1)``.
"""

from __future__ import annotations

import math
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
# A leaf of sampled pairs spans at most this many bytes of kernel rows per
# side, and at least about half as many (see ``_sample_leaves``).
_CHUNK_BYTES = 2**22
# A leaf is gathered and measured in tiles of at most this many bytes of
# kernel rows per side (see ``_sample_leaves``).
_TILE_BYTES = 2**20
# At most this many threads share one pair sample. Each holds two gathered
# tiles of up to _TILE_BYTES, and the tiles are memory-bound numpy calls.
_MAX_WORKERS = 4
# numpy's pairwise sum adds at most this many values in one unrolled loop
# and splits every longer run (PW_BLOCKSIZE in its loops_utils).
_PAIRWISE_BLOCK = 128


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


def pairwise_distances(ds: Dataset) -> np.ndarray:
    """Distances of every unordered point pair, in (i, j>i) order, from the
    row bands of ``all_pair_distances``.

    The n(n-1)/2 values are one float64 vector. Statistics that need just
    the moments and the largest value read ``pair_moments``, which samples
    the pairs beyond ``PAIR_BUDGET`` and holds no sample.
    """
    if ds.n < 2:
        raise InvalidInputError("pairwise distances need at least 2 points")
    return all_pair_distances(ds.metric, ds.points)


def pair_moments(ds: Dataset, mode: PairMode | None = None) -> tuple[MomentSummary, float]:
    """``moments`` of the distances of the pairs ``mode`` names (by default
    ``default_mode``), and their largest value, without a vector of sampled
    pairs.

    For ``AllPairs`` this is ``moments`` of ``pairwise_distances`` and its
    maximum. ``SampledPairs`` are uniform over ordered pairs i != j, with
    replacement, then read as unordered: pair k takes i from draw k of
    counter stream 0 and j from draw k of stream 1, shifted past i. The
    sample is measured leaf by leaf (see ``_sample_leaves``): the leaves
    are the nodes of numpy's pairwise-sum tree over the m values that fit
    one chunk, each worker measures a leaf into its own leaf buffer and
    writes the leaf's sum (``np.add.reduce``, numpy's own tree below the
    leaf), its squared deviations about the leaf mean (M2), its maximum and
    its ``fmin`` into the leaf's row of a small table. Once the workers are
    done, ``_merged`` adds the sums back up the same tree, so the mean is
    ``values.mean()`` of the sample's vector, bit for bit, and merges the
    M2s by Chan, Golub and LeVeque's pairwise update ("Algorithms for
    computing the sample variance", Am. Stat. 1983). The variance is then
    within a few ulps of ``values.var(ddof=1)``, not equal to it bit for
    bit. None of the three depends on the chunking, the tiles or the
    worker count: every draw is a pure function of its index, and the
    kernel measures each pair on its own.

    A negative sampled distance (a kernel fault) is refused, and fewer than
    2 values as ``moments`` refuses them.
    """
    if ds.n < 2:
        raise InvalidInputError("pairwise distances need at least 2 points")
    if mode is None:
        mode = default_mode(ds.n, seed=ds.seed if ds.seed is not None else 0)
    if isinstance(mode, AllPairs):
        values = pairwise_distances(ds)
        return moments(values), float(values.max())
    if mode.m < 2:
        raise InvalidInputError("moments need at least 2 distance values")
    leaves, table = _sample_leaves(ds, mode)
    if table[:, 3].min() < 0:
        raise InvalidInputError("distances cannot be negative")
    total, m2 = _merged(0, mode.m, dict(zip(leaves, table[:, :2].tolist())))
    summary = MomentSummary(total / mode.m, m2 / (mode.m - 1), mode.m)
    return summary, float(table[:, 2].max())


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pairwise_half(n: int) -> int:
    """The first part's size where numpy's ``pairwise_sum`` splits n values
    (n > ``_PAIRWISE_BLOCK``): half of n, rounded down to a multiple of 8."""
    half = n // 2
    return half - half % 8


def _pairwise_leaves(start: int, stop: int, limit: int) -> list[tuple[int, int]]:
    """The nodes of numpy's pairwise-sum tree over [start, stop) that hold
    at most ``limit`` values (at least ``_PAIRWISE_BLOCK``) and whose parent
    holds more, in order, as (start, stop) pairs."""
    if stop - start <= limit:
        return [(start, stop)]
    mid = start + _pairwise_half(stop - start)
    return _pairwise_leaves(start, mid, limit) + _pairwise_leaves(mid, stop, limit)


def _merged(start: int, stop: int, leaves: dict) -> tuple[float, float]:
    """(sum, M2) of the values [start, stop), from ``leaves``, the (sum, M2)
    of each leaf by its (start, stop): sums added as numpy's pairwise sum
    adds them, M2s merged by Chan et al.'s update with the difference of
    the two parts' means."""
    if (start, stop) in leaves:
        return leaves[start, stop]
    mid = start + _pairwise_half(stop - start)
    (sa, qa), (sb, qb) = _merged(start, mid, leaves), _merged(mid, stop, leaves)
    na, nb = mid - start, stop - mid
    delta = sb / nb - sa / na
    return sa + sb, qa + qb + delta * delta * (na * nb / (stop - start))


def _sample_leaves(ds: Dataset, mode: SampledPairs):
    """Measure the pairs of ``mode`` leaf by leaf, the leaves of numpy's
    pairwise-sum tree over the m pairs that fit one chunk: each worker
    measures a leaf into its own leaf buffer and writes the leaf's sum, M2,
    maximum and ``fmin`` into its row of a table (see ``_leaf_row``).
    Returns the leaves and the table.

    A leaf is sized by the bytes of kernel rows it spans per side, not by a
    pair count, because the cache sets the best size, so a pair count
    would have to follow the row width. A leaf spans at most
    ``_CHUNK_BYTES`` of rows per side, and the tree's halving leaves it at
    least about half that: 19,531 pairs (2.4 MB) of 16 float64 columns or
    39,062 pairs of 512 bits packed into 64-byte rows, for 5M pairs. On two
    threads, the leaves of a 2 MiB budget, half those sizes, took 1.3-1.4x
    as long (one thread ran both sizes alike). A leaf holds at least
    numpy's pairwise block of 128 pairs, below which numpy's tree does not
    split.

    A leaf's pair indices are drawn whole (8 bytes a pair and side), and
    its rows are gathered and measured in tiles of at most ``_TILE_BYTES``
    of rows per side (8,192 pairs of 16 float64 columns), whose distances
    go into the leaf buffer, so the leaves and every value are the same
    whatever the tile. ``pair_moments`` over 5M pairs of 16
    columns (10k rows, medians of 11 runs in shuffled order on 2 CPUs)
    took 313 ms untiled and 326 ms in these tiles on one worker, 210 and
    220 ms on two. Tiles that drew their own indices took two workers
    about 290 ms: each tile then made about 20 numpy calls, and the
    workers handed the interpreter lock over at each.

    The leaves go round-robin to one thread per usable CPU, at most
    ``_MAX_WORKERS`` and at most one per leaf; a single worker runs in the
    calling thread. Each worker draws, gathers and measures its leaves on
    one set of buffers (see ``_sample_chunks``), so no leaf allocates. The
    buffers are allocated here, in the calling thread: glibc would keep a
    worker's own allocations in that thread's arena, which showed as peak
    memory. Workers write disjoint rows of the table.
    """
    rows = ds.kernel_rows
    leaves = _pairwise_leaves(0, mode.m, max(_PAIRWISE_BLOCK, _CHUNK_BYTES // rows[0].nbytes))
    size = max(stop - start for start, stop in leaves)
    tile = min(size, max(1, _TILE_BYTES // rows[0].nbytes))
    workers = min(_usable_cpus(), len(leaves), _MAX_WORKERS)
    keys = (rng.stream_key(mode.seed, 0), rng.stream_key(mode.seed, 1))
    steps = rng._counter_steps(size)
    table = np.empty((len(leaves), 4))
    numbered = [(k, start, stop) for k, (start, stop) in enumerate(leaves)]
    jobs = [(ds, keys, steps, numbered[w::workers], _chunk_buffers(rows, size, tile), table) for w in range(workers)]
    if workers == 1:
        _sample_chunks(*jobs[0])
    else:
        # Imported here: concurrent.futures loads logging, which cost every
        # CLI start about 7 ms.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(_sample_chunks, *job) for job in jobs]:
                future.result()
    return leaves, table


def _chunk_buffers(rows: np.ndarray, size: int, tile: int) -> tuple:
    """One worker's buffers: the distances, the i and j draws and scratch
    words of leaves of up to ``size`` pairs, and the two gathered row blocks
    of tiles of ``tile`` pairs."""
    block = (tile,) + rows.shape[1:]
    return (
        np.empty(size),
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.int64),
        np.empty(block, dtype=rows.dtype),
        np.empty(block, dtype=rows.dtype),
    )


def _sample_chunks(ds: Dataset, keys, steps: np.ndarray, leaves, buffers: tuple, table: np.ndarray) -> None:
    """Measure the sampled pairs of each leaf ``(k, start, stop)``, its
    indices drawn whole and its rows gathered in tiles of the row buffers'
    length, into the head of the worker's leaf buffer, on ``buffers`` (see
    ``_chunk_buffers``) alone, and fold the leaf into ``table[k]`` by
    ``_leaf_row``. ``keys`` and ``steps`` are the two streams' keys and
    their shared counter steps (see ``rng._draw_range``), read only.

    The gathers clip instead of checking their indices: every draw lies in
    [0, bound) (see ``rng._draw_range``), and with an ``out`` array numpy's
    checked mode copies the block once more.
    """
    rows = ds.kernel_rows
    leaf, draws_i, draws_j, words, tile_a, tile_b = buffers
    tile = len(tile_a)
    for k, start, stop in leaves:
        m = stop - start
        values, ii, jj, scratch = leaf[:m], draws_i[:m], draws_j[:m], words[:m]
        rng._draw_range(keys[0], start, stop, ds.n, out=ii, scratch=scratch, steps=steps)
        rng._draw_range(keys[1], start, stop, ds.n - 1, out=jj, scratch=scratch, steps=steps)
        jj += np.greater_equal(jj, ii, out=scratch)
        for lo in range(0, m, tile):
            hi = min(lo + tile, m)
            a, b = tile_a[: hi - lo], tile_b[: hi - lo]
            np.take(rows, ii[lo:hi], axis=0, out=a, mode="clip")
            np.take(rows, jj[lo:hi], axis=0, out=b, mode="clip")
            ds.distances(a, b, out=values[lo:hi])
        table[k] = _leaf_row(values)


def _leaf_row(values: np.ndarray) -> tuple:
    """One leaf's sum (numpy's pairwise sum), squared deviations about its
    own mean, maximum and ``fmin`` with an initial 0, negative exactly where
    ``(values < 0).any()`` is true: ``fmin`` skips NaN as the comparison
    does. Overwrites ``values``. A sum or square beyond the doubles reads
    inf, as in ``moments``."""
    # errstate is per thread, so it is entered here, in the worker.
    with np.errstate(over="ignore"):
        total = np.add.reduce(values)
        largest = np.maximum.reduce(values)
        lowest = np.fmin.reduce(values, initial=0.0)
        deviations = np.subtract(values, total / values.size, out=values)
        return total, np.add.reduce(np.multiply(deviations, deviations, out=deviations)), largest, lowest


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


def boxplot_summary(values) -> BoxplotSummary:
    """Tukey box statistics of an array of values: type-7 quartiles,
    1.5*IQR whisker fences."""
    values = np.asarray(values, dtype=np.float64)
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


def moments(values) -> MomentSummary:
    """Arithmetic mean and unbiased (count - 1) variance of an array of
    distances.

    The results equal ``float(values.mean())`` and
    ``float(values.var(ddof=1))`` bit for bit, but the variance's second
    pass holds no full-size temporary: ``values.var`` squares
    ``values - mean`` into a new array as large as the sample before
    summing it.

    Here the vector is cut at the leaves of numpy's pairwise-sum tree that
    fit one buffer of ``core._SCAN_BYTES // 8`` values (``_pairwise_leaves``,
    as ``pair_moments`` cuts its sample). Each leaf's deviations are squared
    into that buffer and summed by ``np.add.reduce``, which runs
    ``pairwise_sum`` on the leaf, and ``_merged`` adds the leaf sums back up
    the same tree (its M2 part, over leaves of M2 0, is not read). Any leaf
    of at least numpy's 128-value pairwise block gives numpy's own tree, so
    the sum is numpy's to the last bit.
    ``test_moments_equal_numpy_bit_for_bit`` pins this on the installed
    numpy, for sizes around the leaf and numpy's block and up to 5,000,000
    values.

    This needs the values held; ``pair_moments`` gives the same summary of
    a dataset's sampled pairs without holding them, its variance within a
    few ulps of this one.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise InvalidInputError("moments need at least 2 distance values")
    # A sum or square beyond the doubles reads inf, which cnbym_dimension
    # refuses by name.
    with np.errstate(over="ignore"):
        mean = values.mean()
        buffer = np.empty(min(values.size, _SCAN_BYTES // 8))
        # Python floats: _merged's unread M2 part may meet inf - inf, which
        # numpy scalars would warn of.
        sums = {}
        for start, stop in _pairwise_leaves(0, values.size, buffer.size):
            leaf = np.subtract(values[start:stop], mean, out=buffer[: stop - start])
            sums[start, stop] = float(np.add.reduce(np.multiply(leaf, leaf, out=leaf))), 0.0
    variance = _merged(0, values.size, sums)[0] / (values.size - 1)
    return MomentSummary(float(mean), variance, int(values.size))


def cnbym_dimension(summary: MomentSummary):
    """Dispersion dimension mean^2 / (2 * variance).

    Scale-free: multiplying all distances by c > 0 leaves it unchanged
    (exactly so for binary powers of two, which is why the square is a
    plain multiply: libm pow is not homogeneous under exact scaling).
    A zero-variance sample has unbounded dimension and yields DEGENERATE.
    A squared mean or a doubled variance beyond the doubles (distances
    near 1e154 and above) gives no dimension and is refused with
    ``InvalidInputError``, before a zero variance is read.
    """
    square = summary.mean * summary.mean
    for name, value in (("squared mean", square), ("variance", 2.0 * summary.variance)):
        if not math.isfinite(value):
            raise InvalidInputError(f"the {name} of the pair distances overflows the doubles; the coordinates are too large")
    if summary.variance == 0.0:
        return DEGENERATE
    return square / (2.0 * summary.variance)


def dataset_cnbym(ds: Dataset, mode: PairMode | None = None):
    return cnbym_dimension(pair_moments(ds, mode)[0])


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
    characteristic: float | None = None,
) -> NNStats:
    """Mean nearest-neighbor distance of the queries against the dataset,
    the dataset's mean pairwise distance (characteristic size), and their
    ratio.

    ``characteristic`` is the mean pair distance of ``ds`` that the caller
    already holds (``pair_moments``' mean); without one, the mean of the
    default-mode pairs is computed here: the one distance of a two-point
    dataset, and 0 for a single point. With ``leave_one_out`` a query's
    coordinate-identical data points are excluded from its own NN search.

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
    if characteristic is None:
        characteristic = 0.0
        if ds.n == 2:
            characteristic = float(pairwise_distances(ds)[0])
        elif ds.n > 2:
            characteristic = pair_moments(ds)[0].mean
    ratio = DEGENERATE if characteristic == 0.0 else mean_eps_nn / characteristic
    return NNStats(mean_eps_nn, characteristic, ratio)
