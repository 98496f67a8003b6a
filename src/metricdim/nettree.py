"""A leveled hierarchy of nets over a metric dataset, queried exactly.

Level i holds a net at radius r_i: nodes pairwise more than r_i apart,
every point within r_i of some node. Radii halve from the diameter bound
down to the scale where every distinct point is its own node (or a floor
of 2^-40 times the top radius for pathologically close points). Each node
links to the lowest-index node one level up within that level's radius.
Nets are grown greedily in ascending point index, so the whole structure
is a pure function of the dataset.

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


def _greedy_net(ds: Dataset, radius: float) -> np.ndarray:
    """Maximal subset with pairwise distance > radius, ascending index."""
    min_dist = np.full(ds.n, np.inf)
    nodes = []
    for j in range(ds.n):
        if min_dist[j] > radius:
            nodes.append(j)
            np.minimum(min_dist, pair_distances(ds.metric, ds.points[j], ds.points), out=min_dist)
    return np.asarray(nodes, dtype=np.int64)


def _attach_parents(ds: Dataset, child_nodes: np.ndarray, parent_nodes: np.ndarray, radius: float) -> np.ndarray:
    parent_pts = ds.points[parent_nodes]
    parents = np.empty(child_nodes.size, dtype=np.int64)
    for pos, node in enumerate(child_nodes.tolist()):
        within = pair_distances(ds.metric, ds.points[node], parent_pts) <= radius
        parents[pos] = int(np.flatnonzero(within)[0])
    return parents


def _group_children(parents: np.ndarray, parent_count: int) -> list[np.ndarray]:
    order = np.argsort(parents, kind="stable")
    counts = np.bincount(parents, minlength=parent_count)
    return np.split(order, np.cumsum(counts)[:-1])


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
    floor = top_radius * RADIUS_FLOOR_FACTOR

    levels = [NetLevel(top_radius, _greedy_net(ds, top_radius), np.array([-1], dtype=np.int64))]
    radius = top_radius
    while levels[-1].nodes.size < n_distinct and radius > floor:
        radius /= 2.0
        nodes = _greedy_net(ds, radius)
        parents = _attach_parents(ds, nodes, levels[-1].nodes, levels[-1].radius)
        levels.append(NetLevel(radius, nodes, parents))

    children = [
        _group_children(levels[i + 1].parents, levels[i].nodes.size) for i in range(len(levels) - 1)
    ]

    bottom = levels[-1]
    assignment = np.full(ds.n, -1, dtype=np.int64)
    for pos, node in enumerate(bottom.nodes.tolist()):
        dv = pair_distances(ds.metric, ds.points[node], ds.points)
        take = (dv <= bottom.radius) & (assignment == -1)
        assignment[take] = pos
    members = [np.flatnonzero(assignment == pos) for pos in range(bottom.nodes.size)]

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
    """Brute-force covering/separation checks; raises InvariantViolation."""
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
            if level.nodes.size > 1 and float(to_others.min()) < level.radius:
                raise InvariantViolation(f"net nodes closer than the level radius {level.radius}")
        if not covered.all():
            raise InvariantViolation(f"uncovered points at level radius {level.radius}")
    for i in range(1, len(tree.levels)):
        level, above = tree.levels[i], tree.levels[i - 1]
        for pos, node in enumerate(level.nodes.tolist()):
            parent_node = int(above.nodes[int(level.parents[pos])])
            if pair_distances(ds.metric, ds.points[node], ds.points[parent_node]) > above.radius:
                raise InvariantViolation("parent link longer than the level radius")
    assigned = np.concatenate(tree.members) if tree.members else np.array([], dtype=np.int64)
    if np.sort(assigned).size != ds.n or (np.sort(assigned) != np.arange(ds.n)).any():
        raise InvariantViolation("bottom-level members do not partition the dataset")
