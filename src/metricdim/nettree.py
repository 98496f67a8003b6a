"""A leveled hierarchy of nets over a metric dataset, queried exactly.

Level i holds a net at radius r_i: nodes pairwise more than r_i apart,
every point within r_i of some node. Radii halve from the diameter bound
down to the scale where every distinct point is its own node (or a floor
of 2^-40 times the top radius for pathologically close points). Each level
below the root is a ``doubling.greedy_cover`` of all points, grown in
ascending point index, so the structure is a pure function of the dataset.
The cover's owners (each point's lowest-index node in reach) give every
node its parent one level up and every bottom node its members. The root
is point 0: the top radius (the exact diameter, 2 * max d(p0, .), or the
Hamming cap 1 / scale) is at least max d(p0, .), also when it is 0.

With degree bounded by the doubling character of the data, the descent
visits few nodes per level: a range query keeps the nodes v at level i
with d(q, v) <= eps + 2 * r_i. The factor 2 covers the worst drift of an
ancestor chain (r_i + r_i/2 + ... < 2 * r_i), which makes the descent
sound: no point of the true result can be lost, and survivors are
verified with true distances, so results equal a sequential scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CountingOracle,
    Dataset,
    InvalidInputError,
    InvariantViolation,
    diameter_upper_bound,
    first_occurrence_indices,
    pair_distances,
)
from .doubling import greedy_cover
from .pivot import QueryStats

RADIUS_FLOOR_FACTOR = 2.0**-40


@dataclass(frozen=True)
class NetLevel:
    radius: float
    nodes: np.ndarray  # point indices, ascending
    parents: np.ndarray  # position of each node's parent in the level above (-1 at the root level)


@dataclass(frozen=True)
class NetTree:
    levels: list[NetLevel]
    children: list[list[np.ndarray]]  # children[i][p]: level-(i+1) node positions under node p of level i
    members: list[np.ndarray]  # per bottom-level node: the point indices it answers for

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class TreeStats:
    max_degree: int
    depth: int
    node_count: int


def _group(labels: np.ndarray, count: int) -> list[np.ndarray]:
    """Entry k lists, ascending, the positions whose label is k."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def _top_radius(ds: Dataset) -> float:
    # Bit metrics have an intrinsic diameter bound (1 / scale); anchoring
    # the halving ladder there keeps the level scales independent of the
    # sample. Real metrics anchor at the sample's diameter bound.
    if ds.metric.kind.uses_bits:
        return 1.0 / ds.metric.scale
    return diameter_upper_bound(ds) if ds.n >= 2 else 0.0


def build_net_tree(ds: Dataset) -> tuple[NetTree, TreeStats]:
    """Construct the full level hierarchy for ``ds``."""
    n_distinct = first_occurrence_indices(ds.points).size
    top_radius = _top_radius(ds)
    # At least the smallest positive double, so a halved radius stays > 0.
    floor = max(top_radius * RADIUS_FLOOR_FACTOR, 5e-324)

    levels = [NetLevel(top_radius, np.array([0], dtype=np.int64), np.array([-1], dtype=np.int64))]
    owners = np.zeros(ds.n, dtype=np.int64)
    radius = top_radius
    while levels[-1].nodes.size < n_distinct and radius > floor:
        radius /= 2.0
        cover = greedy_cover(ds, np.arange(ds.n), radius)
        levels.append(NetLevel(radius, cover.centers, owners[cover.centers]))
        owners = cover.owners

    children = [_group(levels[i + 1].parents, levels[i].nodes.size) for i in range(len(levels) - 1)]
    members = _group(owners, levels[-1].nodes.size)

    max_degree = 1
    for level_children in children:
        max_degree = max(max_degree, max(len(c) for c in level_children))
    stats = TreeStats(
        max_degree=max_degree,
        depth=len(levels) - 1,
        node_count=int(sum(level.nodes.size for level in levels)),
    )
    return NetTree(levels, children, members), stats


def net_range_query(
    tree: NetTree,
    ds: Dataset,
    q,
    eps: float,
    oracle: CountingOracle | None = None,
) -> tuple[set[int], QueryStats]:
    """All points strictly within eps of q, via net descent; exact."""
    if not eps > 0:
        raise InvalidInputError("range query needs eps > 0")
    q = ds.check_query(q)
    root = tree.levels[0]
    root_dist = pair_distances(ds.metric, q, ds.points[root.nodes[0]])
    computations = 1
    live = np.array([0], dtype=np.int64) if root_dist <= eps + 2.0 * root.radius else np.array([], dtype=np.int64)

    for i, level_children in enumerate(tree.children):
        if live.size == 0:
            break
        child_positions = np.concatenate([level_children[p] for p in live.tolist()])
        level = tree.levels[i + 1]
        dv = pair_distances(ds.metric, q, ds.points[level.nodes[child_positions]])
        computations += dv.size
        live = child_positions[dv <= eps + 2.0 * level.radius]

    candidates = np.concatenate([tree.members[p] for p in live.tolist()]) if live.size else np.array([], dtype=np.int64)
    verified = pair_distances(ds.metric, q, ds.points[candidates])
    computations += verified.size
    result = set(candidates[verified < eps].tolist())
    if oracle is not None:
        oracle.add(computations)

    stats = QueryStats(
        distance_computations=computations,
        candidates_after_pruning=int(candidates.size),
        discarded_fraction=(ds.n - int(candidates.size)) / ds.n,
        result_size=len(result),
    )
    return result, stats


def verify_net_invariants(tree: NetTree, ds: Dataset) -> None:
    """Brute-force checks of the nets, parent links, children and bottom
    members that exact queries rest on; raises InvariantViolation."""
    if tree.levels[0].nodes.size != 1:
        raise InvariantViolation("net tree must have a single root")
    for level in tree.levels:
        node_pts = ds.points[level.nodes]
        covered = np.zeros(ds.n, dtype=bool)
        for pos, node in enumerate(level.nodes.tolist()):
            dv = pair_distances(ds.metric, ds.points[node], ds.points)
            covered |= dv <= level.radius
            to_others = pair_distances(ds.metric, ds.points[node], node_pts)
            to_others[pos] = np.inf
            if level.nodes.size > 1 and float(to_others.min()) <= level.radius:
                raise InvariantViolation(f"net nodes not more than the level radius {level.radius} apart")
        if not covered.all():
            raise InvariantViolation(f"uncovered points at level radius {level.radius}")
    for i in range(1, len(tree.levels)):
        level, above = tree.levels[i], tree.levels[i - 1]
        for pos, node in enumerate(level.nodes.tolist()):
            parent_node = int(above.nodes[int(level.parents[pos])])
            if pair_distances(ds.metric, ds.points[node], ds.points[parent_node]) > above.radius:
                raise InvariantViolation("parent link longer than the level radius")
    if len(tree.children) != len(tree.levels) - 1:
        raise InvariantViolation("need one children list per level below the root")
    for i, level_children in enumerate(tree.children):
        want = [np.flatnonzero(tree.levels[i + 1].parents == p).tolist() for p in range(tree.levels[i].nodes.size)]
        if [sorted(c.tolist()) for c in level_children] != want:
            raise InvariantViolation(f"children of level {i} do not group the parents of level {i + 1}")
    assigned = np.concatenate(tree.members) if tree.members else np.array([], dtype=np.int64)
    if np.sort(assigned).size != ds.n or (np.sort(assigned) != np.arange(ds.n)).any():
        raise InvariantViolation("bottom-level members do not partition the dataset")
    bottom = tree.levels[-1]
    if len(tree.members) != bottom.nodes.size or any(
        (pair_distances(ds.metric, ds.points[node], ds.points[group]) > bottom.radius).any()
        for node, group in zip(bottom.nodes.tolist(), tree.members)
    ):
        raise InvariantViolation(f"bottom members not within the bottom radius {bottom.radius} of their node")
