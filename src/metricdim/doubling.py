"""Greedy ball covers and a probe-based doubling (Assouad-style) estimate.

A space has doubling exponent rho when every ball splits into at most
2^rho balls of half the radius. The estimator probes seeded (center,
radius) balls, covers each with half-radius balls greedily, and reports
the worst log2 cover count seen. Two inflations are inherent and
documented: greedy covering can exceed the optimal cover count (by a
bounded factor), and finitely many probes only sample the sup over
scales. Radius halving is used rather than diameter halving; the two
definitions differ by at most a constant factor in rho.

Every ball is read from one exact ball screen (``core._BallScreen``): a
radius-free operand of the rows (``ball_operand``) is made once for all
probes and once per cover, and ``members`` lists the pairs inside a
radius, exactly as the distance kernel decides them. Covers are built in
blocks: the lowest-index uncovered points are screened against every
uncovered point, the greedy order inside the block is settled from the
sparse list of pairs inside the radius, and the covered points leave the
operand held. The centers are those of the one-center-at-a-time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import (
    Dataset,
    InvalidInputError,
    _BallScreen,
    _distinct_rows,
    diameter_upper_bound,
)

# Probed radii run log-uniformly from this fraction of the diameter bound
# up to the full bound; the first probe is pinned at the full bound so the
# whole-set scale is always examined.
MIN_RADIUS_FRACTION = 0.01

# A cover block screens at most this many (candidate, column held) pairs,
# which bounds its values buffer and the memory its temporaries take.
_BLOCK_ENTRIES = 65_536


@dataclass(frozen=True)
class CoverResult:
    """``owners`` has one entry per distinct subset index, ascending: the
    position in ``centers`` of the first center that covers that point."""

    centers: np.ndarray
    radius: float
    covered_count: int
    owners: np.ndarray


@dataclass(frozen=True)
class DoublingEstimate:
    rho_hat: float
    balls_probed: int
    worst_ball: tuple[int, float]


@dataclass(frozen=True)
class ProbeRecord:
    """One probed ball: its center point index, radius, and the number of
    half-radius balls the greedy cover needed. CSV consumers emit these as
    (center, radius, cover_count) rows next to the summary estimate."""

    center: int
    radius: float
    cover_count: int


def greedy_cover(ds: Dataset, subset, radius: float) -> CoverResult:
    """Cover the subset with radius-``radius`` balls centered on its points.

    Repeatedly picks the lowest-index uncovered point as a new center and
    marks everything within the radius as covered. Deterministic.
    ``subset`` holds integer point indices in [0, n); duplicates count once,
    and a strictly ascending subset is taken as it is, without a sort.
    Centers ascend, so a point's owner is its lowest-index center in reach.

    The subset's rows are prepared for the ball screen once
    (``core._BallScreen.ball_operand``): for Euclidean one C-ordered Gram
    operand of d + 2 rows, a point per column, otherwise the kernel rows,
    a point per row. The cover holds a copy of the uncovered points'
    operand. A covered point costs every later block d + 2 multiply-adds a
    row in the Gram product but a kernel evaluation a row otherwise, so
    the Gram operand is compacted once a quarter of it is covered and the
    kernel rows after every block.

    The work runs in blocks. The first b uncovered points (ascending) are
    candidates, and one product (or one kernel block) screens them against
    every point held. ``members`` lists the pairs within the radius,
    exactly as the kernel's ``<=`` decides them (the kernel measures the
    pairs within the band), and pairs with a covered point are dropped.
    Candidate 0 is a center; the next center is the first candidate no
    center so far covers, and so on. That is the loop's order exactly: the
    candidates are consecutive among the uncovered points, distances are
    symmetric, and the screen equals the kernel pair by pair. The picks
    are settled from the candidate pairs in the list (``_pick_centers``).
    Every candidate is covered, by itself if it is picked (d = 0 <= r), so
    the loop ends; a point the block covers is owned by the first picked
    row that holds it. b is twice the centers the previous block found, at
    most ``_BLOCK_ENTRIES`` entries against the points held. The values of
    every block go into one buffer made for the cover.
    """
    idx = np.asarray(subset)
    if idx.ndim != 1:
        raise InvalidInputError(f"subset must be a 1-d index sequence, got shape {idx.shape}")
    if idx.size == 0:
        raise InvalidInputError("cannot cover an empty subset")
    if idx.dtype.kind not in "iu":
        raise InvalidInputError(f"subset indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= ds.n:
        raise InvalidInputError(f"subset indices must lie in [0, {ds.n})")
    if not radius > 0:
        raise InvalidInputError("cover radius must be positive")
    subset = idx if (idx[1:] > idx[:-1]).all() else np.unique(idx)
    subset = subset.astype(np.int64, copy=False)
    m = subset.size
    screen = _BallScreen(ds.metric, ds.kernel_rows, ds.dim)
    operand, reach = screen.ball_operand(subset)
    # The Gram operand holds a point per column, the kernel rows one per row.
    axis = 0 if reach is None else 1
    # The point index and the subset position of each point held.
    held, where = subset, np.arange(m)
    live = np.ones(m, dtype=bool)
    remaining = m
    # A block has at most _BLOCK_ENTRIES entries, or one row of all columns.
    buffer = np.empty(min(max(_BLOCK_ENTRIES, m), m * m))
    owners = np.empty(m, dtype=np.int64)
    centers = []
    size = 1
    while remaining:
        dead = held.size - remaining
        if dead and (reach is None or 4 * dead >= held.size):
            keep = live.nonzero()[0]
            operand = np.take(operand, keep, axis=axis)
            held, where, live = held[keep], where[keep], np.ones(keep.size, dtype=bool)
        width = held.size
        size = min(size, remaining, max(1, _BLOCK_ENTRIES // width))
        candidates = live.nonzero()[0][:size]
        block = buffer[: size * width].reshape(size, width)
        rows, cols = np.divmod(screen.members(held, candidates, operand, reach, radius, block), width)
        if remaining < width:
            alive = live[cols]
            rows, cols = rows[alive], cols[alive]
        # The live columns up to the last candidate are the candidates.
        square = (cols <= candidates[-1]).nonzero()[0]
        later, earlier = rows[square], np.searchsorted(candidates, cols[square])
        below = earlier < later
        picked = _pick_centers(size, later[below], earlier[below])
        # Each picked row's rank among the picks, size for the others; the
        # lowest rank that holds a column is its owner.
        rank = np.where(picked, np.cumsum(picked) - 1, size)
        owner = np.full(width, size)
        np.minimum.at(owner, cols, rank[rows])
        covered = (owner < size).nonzero()[0]
        owners[where[covered]] = len(centers) + owner[covered]
        picks = held[candidates[picked]]
        centers.extend(picks.tolist())
        live[covered] = False
        remaining -= covered.size
        size = 2 * picks.size
    return CoverResult(np.asarray(centers, dtype=np.int64), radius, m, owners)


def _pick_centers(size: int, later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Greedy centers among ``size`` candidates, as a boolean array: the
    first candidate, then each one that no earlier pick covers. The pairs
    (``later[i]``, ``earlier[i]``) are the candidates within the radius of
    each other with earlier < later, in ascending ``later`` order, so every
    earlier candidate is settled when a later one is read, and only the
    candidates with an earlier neighbour take a step of the loop."""
    picked = [True] * size
    for k, j in zip(later.tolist(), earlier.tolist()):
        if picked[j]:
            picked[k] = False
    return np.array(picked)


def probe_rows(ds: Dataset, probes: int, seed: int = 0) -> list[ProbeRecord]:
    """Per-probe cover counts over seeded (center, radius) balls.

    Duplicate points are collapsed before probing: they are covered for
    free by their first occurrence, so they cannot change any cover count,
    and collapsing makes the records invariant under duplication. Centers
    are reported as original point indices. Radii scale with the diameter
    bound of ``ds`` itself, the one its other estimators read: the first
    probe's radius is ``diameter_upper_bound(ds)``.

    Every probe's ball is one sparse call (``core._BallScreen.members``
    of the center against all distinct rows) on one operand of the
    distinct rows, made once for all probes. It lists the rows inside
    exactly as the kernel's ``<=`` decides them, so the balls are those of
    a kernel scan per probe.
    """
    if probes < 1:
        raise InvalidInputError("need at least one probe")
    keep = _distinct_rows(ds)
    distinct = Dataset(ds.points[keep], ds.metric, ds.seed)
    if distinct.n == 1:
        return [ProbeRecord(int(keep[0]), 0.0, 1) for _ in range(probes)]

    bound = diameter_upper_bound(ds)
    centers = rng.integers(seed, probes, distinct.n, stream=0)
    log_span = math.log(MIN_RADIUS_FRACTION)
    radii = bound * np.exp(log_span * (1.0 - rng.uniform01(seed, probes, stream=1)))
    radii[0] = bound

    screen = _BallScreen(ds.metric, distinct.kernel_rows, ds.dim)
    rows = np.arange(distinct.n)
    operand, reach = screen.ball_operand(rows)
    out = np.empty((1, distinct.n))
    records = []
    for center, radius in zip(centers.tolist(), radii.tolist()):
        ball = screen.members(rows, np.array([center]), operand, reach, radius, out)
        cover = greedy_cover(distinct, ball, radius / 2.0)
        records.append(ProbeRecord(int(keep[center]), float(radius), len(cover.centers)))
    return records


def doubling_estimate(ds: Dataset, probes: int, seed: int = 0) -> DoublingEstimate:
    """Worst observed log2 half-radius cover count over seeded probe balls."""
    records = probe_rows(ds, probes, seed)
    worst = max(records, key=lambda r: r.cover_count)  # max() keeps the earliest on ties
    return DoublingEstimate(math.log2(worst.cover_count), probes, (worst.center, worst.radius))
