"""Greedy ball covers and a probe-based doubling (Assouad-style) estimate.

A space has doubling exponent rho when every ball splits into at most
2^rho balls of half the radius. The estimator probes seeded (center,
radius) balls, covers each with half-radius balls greedily, and reports
the worst log2 cover count seen. Two inflations are inherent and
documented: greedy covering can exceed the optimal cover count (by a
bounded factor), and finitely many probes only sample the sup over
scales. Radius halving is used rather than diameter halving; the two
definitions differ by at most a constant factor in rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import (
    Dataset,
    InvalidInputError,
    diameter_upper_bound,
    first_occurrence_indices,
    pair_distances,
)

# Probed radii run log-uniformly from this fraction of the diameter bound
# up to the full bound; the first probe is pinned at the full bound so the
# whole-set scale is always examined.
MIN_RADIUS_FRACTION = 0.01


@dataclass(frozen=True)
class CoverResult:
    centers: np.ndarray
    radius: float
    covered_count: int


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
    """
    subset = np.sort(np.asarray(subset, dtype=np.int64))
    if subset.size == 0:
        raise InvalidInputError("cannot cover an empty subset")
    if not radius > 0:
        raise InvalidInputError("cover radius must be positive")
    pts = ds.points[subset]
    uncovered = np.ones(subset.size, dtype=bool)
    centers = []
    while uncovered.any():
        local = int(np.flatnonzero(uncovered)[0])
        centers.append(int(subset[local]))
        within = pair_distances(ds.metric, pts[local], pts[uncovered]) <= radius
        idx = np.flatnonzero(uncovered)
        uncovered[idx[within]] = False
    return CoverResult(np.asarray(centers, dtype=np.int64), radius, int(subset.size))


def probe_rows(ds: Dataset, probes: int, seed: int = 0) -> list[ProbeRecord]:
    """Per-probe cover counts over seeded (center, radius) balls.

    Duplicate points are collapsed before probing: they are covered for
    free by their first occurrence, so they cannot change any cover count,
    and collapsing makes the records invariant under duplication. Centers
    are reported as original point indices.
    """
    if probes < 1:
        raise InvalidInputError("need at least one probe")
    keep = first_occurrence_indices(ds.points)
    distinct = Dataset(ds.points[keep], ds.metric, ds.seed)
    if distinct.n == 1:
        return [ProbeRecord(int(keep[0]), 0.0, 1) for _ in range(probes)]

    bound = diameter_upper_bound(distinct)
    centers = rng.integers(seed, probes, distinct.n, stream=0)
    log_span = math.log(MIN_RADIUS_FRACTION)
    radii = bound * np.exp(log_span * (1.0 - rng.uniform01(seed, probes, stream=1)))
    radii[0] = bound

    records = []
    for center, radius in zip(centers.tolist(), radii.tolist()):
        ball = np.flatnonzero(pair_distances(distinct.metric, distinct.points[center], distinct.points) <= radius)
        cover = greedy_cover(distinct, ball, radius / 2.0)
        records.append(ProbeRecord(int(keep[center]), float(radius), len(cover.centers)))
    return records


def doubling_estimate(ds: Dataset, probes: int, seed: int = 0) -> DoublingEstimate:
    """Worst observed log2 half-radius cover count over seeded probe balls."""
    records = probe_rows(ds, probes, seed)
    worst = max(records, key=lambda r: r.cover_count)  # max() keeps the earliest on ties
    return DoublingEstimate(math.log2(worst.cover_count), probes, (worst.center, worst.radius))
