"""Greedy ball covers and a probe-based doubling (Assouad-style) estimate.

A space has doubling exponent rho when every ball splits into at most
2^rho balls of half the radius. The estimator probes seeded (center,
radius) balls, covers each with half-radius balls greedily, and reports
the worst log2 cover count seen. Two inflations are inherent and
documented: greedy covering can exceed the optimal cover count (by a
bounded factor), and finitely many probes only sample the sup over
scales. Radius halving is used rather than diameter halving; the two
definitions differ by at most a constant factor in rho.

Covers are built in blocks: the lowest-index uncovered points are screened
against every uncovered point with one exact ball screen (``core._BallScreen``,
prepared once per cover), the greedy order inside the block is settled from
that matrix, and the covered points leave a compacted index array. The
centers are those of the one-center-at-a-time loop, because the screen
answers exactly as the distance kernel does.
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

# A cover block screens at most this many (candidate, uncovered point)
# pairs, which bounds the memory its temporaries take.
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
    (``core._BallScreen``), and the work runs in blocks. The first b
    uncovered points (ascending) are candidates, and one screen matrix holds
    their ball membership against all uncovered points. Candidate 0 is a
    center; the next center is the first candidate no center so far covers,
    and so on, one step per center. That is the loop's order exactly: the
    candidates are consecutive among the uncovered points, distances are
    symmetric, and the screen equals the kernel's ``<=`` pair by pair. The
    picks run on bitsets: the covered candidates are one Python int, and a
    step takes its lowest clear bit and ORs in that candidate's row of the
    b x b candidate square. They end because every candidate covers itself
    (d = 0 <= r); a point the block covers is owned by the first picked row
    that holds it. b is twice the centers the previous block found, at most
    ``_BLOCK_ENTRIES`` matrix entries.
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
    screen = _BallScreen(ds.metric, ds.kernel_rows[subset], ds.dim)
    uncovered = np.arange(subset.size)
    owners = np.empty(subset.size, dtype=np.int64)
    centers = []
    size = 1
    while uncovered.size:
        size = min(size, uncovered.size, max(1, _BLOCK_ENTRIES // uncovered.size))
        within = screen.within(uncovered[:size], uncovered, radius)
        picked = _pick_centers(within[:, :size])
        rows = within[picked]
        covered = rows.any(axis=0)
        owners[uncovered[covered]] = len(centers) + np.argmax(rows[:, covered], axis=0)
        centers.extend(subset[uncovered[picked]].tolist())
        uncovered = uncovered[~covered]
        size = 2 * len(picked)
    return CoverResult(np.asarray(centers, dtype=np.int64), radius, int(subset.size), owners)


def _pick_centers(square: np.ndarray) -> list[int]:
    """Greedy centers among b candidates, from their b x b ball matrix: the
    first candidate, then each time the first one no pick so far covers.
    A picked row k is read as the int whose bit j is ``square[k, j]``."""
    size = square.shape[0]
    packed = np.packbits(square, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    full = (1 << size) - 1
    covered = 0
    picked = []
    while covered != full:
        k = (~covered & (covered + 1)).bit_length() - 1
        picked.append(k)
        covered |= int.from_bytes(data[k * width : (k + 1) * width], "little")
    return picked


def probe_rows(ds: Dataset, probes: int, seed: int = 0) -> list[ProbeRecord]:
    """Per-probe cover counts over seeded (center, radius) balls.

    Duplicate points are collapsed before probing: they are covered for
    free by their first occurrence, so they cannot change any cover count,
    and collapsing makes the records invariant under duplication. Centers
    are reported as original point indices. Radii scale with the diameter
    bound of ``ds`` itself, the one its other estimators read: the first
    probe's radius is ``diameter_upper_bound(ds)``.
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

    rows = distinct.kernel_rows
    records = []
    for center, radius in zip(centers.tolist(), radii.tolist()):
        ball = np.flatnonzero(distinct.distances(rows[center], rows) <= radius)
        cover = greedy_cover(distinct, ball, radius / 2.0)
        records.append(ProbeRecord(int(keep[center]), float(radius), len(cover.centers)))
    return records


def doubling_estimate(ds: Dataset, probes: int, seed: int = 0) -> DoublingEstimate:
    """Worst observed log2 half-radius cover count over seeded probe balls."""
    records = probe_rows(ds, probes, seed)
    worst = max(records, key=lambda r: r.cover_count)  # max() keeps the earliest on ties
    return DoublingEstimate(math.log2(worst.cover_count), probes, (worst.center, worst.radius))
