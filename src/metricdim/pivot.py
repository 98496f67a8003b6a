"""Pivot-table exact range search with triangle-inequality pruning.

The index stores d(x, p) for every point x and pivot p. Each pivot's
distance function is 1-Lipschitz, so a point y with
|d(y, p) - d(q, p)| > eps for any pivot p cannot lie in the eps-ball
around q and is discarded without touching y itself. Survivors are
verified with a true distance. The query is exact by construction; what
degrades in high dimension is only the discarded fraction, which the
degradation sweep measures at matched result sizes.

All k pivots are applied to every candidate in one vectorized table sweep.
The table is stored column-major, so each pivot's distances are one
contiguous column and the sweep runs down the columns. Candidates are not
compacted to the survivors pivot by pivot, as LAESA (Micó, Oncina & Vidal
1994) does: where pruning collapses (high dimension) no column shrinks the
candidate set, so every gather would be overhead. An adaptive pivot order
could skip pivot evaluations, but it cannot shrink the surviving candidate
set, which is the quantity studied here. Pruning keeps candidates with
slack PRUNE_WIDENING so floating-point rounding can only make pruning
conservative, never incorrect.

``search_workloads`` defines the exact-search workloads in one place: the
degradation sweep, ``nettree-stats`` and the sweeps' ``--self-test`` all
read their data, queries and calibrated ranges from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import rng
from .core import CountingOracle, Dataset, InvalidInputError
from .generate import Family, GeneratorSpec, generate

PRUNE_WIDENING = 1e-12
CALIBRATION_ITERATIONS = 20


@dataclass(frozen=True)
class RandomPivots:
    seed: int


@dataclass(frozen=True)
class FarthestFirst:
    seed: int


PivotPolicy = Union[RandomPivots, FarthestFirst]


@dataclass(frozen=True)
class PivotIndex:
    pivots: np.ndarray  # (k,) point indices
    table: np.ndarray  # (n, k), table[i, j] = d(point i, pivot j); column-major

    @property
    def k(self) -> int:
        return len(self.pivots)


@dataclass(frozen=True)
class QueryStats:
    distance_computations: int
    candidates_after_pruning: int
    discarded_fraction: float
    result_size: int


def _select_farthest_first(ds: Dataset, table: np.ndarray, seed: int) -> np.ndarray:
    """The pivots chosen farthest-first, one per column of ``table``, each
    column filled with its pivot's distances as the pivot is chosen."""
    chosen = [int(rng.distinct_indices(seed, 1, ds.n)[0])]
    table[:, 0] = _distances_from(ds, chosen[0])
    min_dist = table[:, 0].copy()
    for j in range(1, table.shape[1]):
        chosen.append(int(np.argmax(min_dist)))  # argmax takes the lowest index on ties
        table[:, j] = _distances_from(ds, chosen[-1])
        np.minimum(min_dist, table[:, j], out=min_dist)
    return np.asarray(chosen, dtype=np.int64)


def _distances_from(ds: Dataset, index: int) -> np.ndarray:
    return ds.distances(ds.kernel_rows[index], ds.kernel_rows)


def build_pivot_index(ds: Dataset, k: int, policy: PivotPolicy, oracle: CountingOracle | None = None) -> PivotIndex:
    """Materialize the n x k pivot distance table, one contiguous column per pivot.

    RandomPivots draws k distinct seeded indices; FarthestFirst grows the
    pivot set by always adding the point farthest from it (lowest index on
    ties), and its table is the columns measured for that choice. Either
    way the build costs exactly n * k counted distances, charged to
    ``oracle`` at once.
    """
    if not 1 <= k <= ds.n:
        raise InvalidInputError(f"pivot count must be in [1, {ds.n}], got {k}")
    table = np.empty((k, ds.n)).T
    if isinstance(policy, RandomPivots):
        pivots = rng.distinct_indices(policy.seed, k, ds.n)
        for j, p in enumerate(pivots.tolist()):
            table[:, j] = _distances_from(ds, p)
    else:
        pivots = _select_farthest_first(ds, table, policy.seed)
    if oracle is not None:
        oracle.add(ds.n * k)
    return PivotIndex(pivots, table)


def _check_eps(eps: float) -> None:
    if not eps > 0:
        raise InvalidInputError("range query needs eps > 0")


def _verified_result(
    ds: Dataset,
    q: np.ndarray,
    eps: float,
    candidates: np.ndarray,
    pruning_computations: int,
    oracle: CountingOracle | None,
) -> tuple[set[int], QueryStats]:
    """The tail of an indexed range query: verify the candidates with one
    kernel call and charge the oracle once, for pruning and verification.
    ``q`` is a query from ``ds.check_query``."""
    verified = ds.distances(q, ds.kernel_rows[candidates])
    result = set(candidates[verified < eps].tolist())
    computations = pruning_computations + verified.size
    if oracle is not None:
        oracle.add(computations)
    stats = QueryStats(
        distance_computations=computations,
        candidates_after_pruning=int(candidates.size),
        discarded_fraction=(ds.n - int(candidates.size)) / ds.n,
        result_size=len(result),
    )
    return result, stats


def range_query(
    index: PivotIndex,
    ds: Dataset,
    q,
    eps: float,
    oracle: CountingOracle | None = None,
) -> tuple[set[int], QueryStats]:
    """All points strictly within eps of q, with pruning statistics."""
    _check_eps(eps)
    q = ds.check_query(q)
    q_to_pivot = ds.distances(q, ds.kernel_rows[index.pivots])
    survives = (np.abs(index.table - q_to_pivot) <= eps + PRUNE_WIDENING).all(axis=1)
    return _verified_result(ds, q, eps, np.flatnonzero(survives), q_to_pivot.size, oracle)


def sequential_scan(ds: Dataset, q, eps: float, oracle: CountingOracle | None = None) -> set[int]:
    """The baseline: evaluate the true distance to every point."""
    _check_eps(eps)
    dv = ds.distances(ds.check_query(q), ds.kernel_rows)
    if oracle is not None:
        oracle.add(ds.n)
    return set(np.flatnonzero(dv < eps).tolist())


def calibrate_eps(ds: Dataset, q, target_result_size: int) -> float:
    """Binary-search an eps whose exact result size approximates the target.

    Runs CALIBRATION_ITERATIONS bisection steps against one held-out scan
    of the true distances (not charged to any oracle). A step asks whether
    fewer than ``target_result_size`` distances lie below its midpoint,
    which holds exactly when the target-th smallest distance is not below
    it, so every step reads that one order statistic (one partition).
    """
    if target_result_size < 1:
        raise InvalidInputError("target result size must be >= 1")
    if target_result_size > ds.n:
        raise InvalidInputError("target result size exceeds the dataset size")
    dv = ds.distances(ds.check_query(q), ds.kernel_rows)
    lo = 0.0
    hi = max(float(dv.max()) * 2.0, 1e-300)
    dv.partition(target_result_size - 1)
    kth = float(dv[target_result_size - 1])
    for _ in range(CALIBRATION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if kth < mid:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SweepRow:
    family: Family
    dim: int
    n: int
    k: int
    mean_discarded_fraction: float
    mean_distance_computations: float
    mean_result_size: float
    scan_cost: int


# The canonical degradation ladder: low dimensions on the solid cube where
# pruning thrives, high dimensions on the bit cube where concentration
# kills it. Measured discarded fractions for the default configuration
# (n=10000, k=32, target 10, seed 42) are frozen as regression bounds in
# the acceptance suite. In the saturated high-d regime only the pivots
# themselves can be discarded, so fractions there tie at k/n up to
# one-point noise; rank comparisons must use the 1/n resolution.
DEFAULT_LADDER = (
    (Family.UNIFORM_CUBE, 2),
    (Family.UNIFORM_CUBE, 8),
    (Family.HAMMING_UNIFORM, 32),
    (Family.HAMMING_UNIFORM, 128),
    (Family.HAMMING_UNIFORM, 512),
)


def search_workloads(workloads, n: int, queries: int, target_result_size: int, seed: int):
    """The exact-search workloads of ``fig-d``, ``pivot-sweep`` and
    ``nettree-stats``, one per (family, dim) of ``workloads``.

    For the workload at position w this yields ``(family, dim, data,
    ranges, build_seed)``: n data points seeded by ``derive_seed(seed, 1,
    w)``, the list of ``queries`` query points (``derive_seed(seed, 2, w)``)
    each paired with its ``calibrate_eps`` range for ``target_result_size``,
    and ``derive_seed(seed, 3, w)`` for the structure built on the data.
    """
    for w_idx, (family, dim) in enumerate(workloads):
        ds = generate(GeneratorSpec(family, dim, n, rng.derive_seed(seed, 1, w_idx)))
        qs = generate(GeneratorSpec(family, dim, queries, rng.derive_seed(seed, 2, w_idx)))
        ranges = [(q, calibrate_eps(ds, q, target_result_size)) for q in qs.points]
        yield family, dim, ds, ranges, rng.derive_seed(seed, 3, w_idx)


def degradation_sweep(
    workloads,
    n: int,
    k: int,
    target_result_size: int,
    queries: int,
    seed: int,
    policy_kind=RandomPivots,
) -> list[SweepRow]:
    """Measure pruning effectiveness per (family, dim) at matched result sizes.

    For each of the ``search_workloads``: build a k-pivot index under
    ``policy_kind`` seeded by the workload's build seed, run every query
    at its calibrated range, and average the query statistics.
    """
    if target_result_size < 1:
        raise InvalidInputError("target result size must be >= 1")
    rows = []
    for family, dim, ds, ranges, build_seed in search_workloads(workloads, n, queries, target_result_size, seed):
        index = build_pivot_index(ds, k, policy_kind(build_seed))
        stats = [range_query(index, ds, q, eps)[1] for q, eps in ranges]
        rows.append(
            SweepRow(
                family=family,
                dim=dim,
                n=n,
                k=k,
                mean_discarded_fraction=float(np.mean([s.discarded_fraction for s in stats])),
                mean_distance_computations=float(np.mean([s.distance_computations for s in stats])),
                mean_result_size=float(np.mean([s.result_size for s in stats])),
                scan_cost=n,
            )
        )
    return rows
