"""A leveled hierarchy of nets over a metric dataset, queried exactly.

Level i holds a net at radius r_i: nodes pairwise more than r_i apart,
every point within r_i of some node. Radii halve from the diameter bound
down to the scale where every distinct point is its own node (or a floor
of 2^-40 times the top radius for pathologically close points). Each level
below the root is the greedy cover of all points grown in ascending point
index (``doubling.greedy_cover``), so the structure is a pure function of
the dataset. The build runs that cover only on the points with another
point in reach, read off the nearest distances of the dataset's one band
pass (``core._extremes``, which also gives the exact diameter the probes
read); every other point is a node of its own. The
cover's owners (each point's lowest-index node in reach) give every node
its parent one level up, and the bottom cover's owners give every point
the bottom node that answers for it. The tree stores only these
labels: a node's children are the nodes of the level below whose parent it
is, and a bottom node's members are the points it owns. The root is point
0: the top radius (the exact diameter, 2 * max d(p0, .), or the Hamming
cap 1) is at least max d(p0, .), also when it is 0.

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
    InvariantViolation,
    _distinct_rows,
    _extremes,
    diameter_upper_bound,
)
from .doubling import greedy_cover
from .pivot import QueryStats, _check_eps, _verified_result

RADIUS_FLOOR_FACTOR = 2.0**-40


@dataclass(frozen=True)
class NetLevel:
    radius: float
    nodes: np.ndarray  # point indices, ascending
    parents: np.ndarray  # position of each node's parent in the level above (-1 at the root level)


@dataclass(frozen=True)
class NetTree:
    levels: list[NetLevel]
    owners: np.ndarray  # per point: the position of its bottom-level node, the one that answers for it


@dataclass(frozen=True)
class TreeStats:
    max_degree: int
    depth: int
    node_count: int


def build_net_tree(ds: Dataset) -> tuple[NetTree, TreeStats]:
    """Construct the full level hierarchy for ``ds``.

    Each level equals ``greedy_cover(ds, np.arange(ds.n), radius)``, with
    the cover run on fewer points. A point whose nearest other point lies
    beyond the radius is isolated: it covers no other point, and no other
    point covers it. The greedy loop over all points therefore picks it as
    a center when it reaches it, and that pick changes nothing for the
    rest, so the loop picks the same centers among the other points as a
    cover of those points alone. No such center is in an isolated point's
    reach, so each of those points keeps its lowest-index center in reach
    as its owner, and an isolated point owns itself. The level is the two
    sets of centers merged by point index. The nearest distances come from
    the band pass cached on the dataset and equal the kernel's, so the
    comparison with the radius agrees with the cover's own."""
    n_distinct = _distinct_rows(ds).size
    # Bit metrics have an intrinsic diameter bound (1); anchoring the
    # halving ladder there keeps the level scales independent of the
    # sample. Real metrics anchor at the sample's diameter bound.
    if ds.metric.uses_bits:
        top_radius = 1.0
    else:
        top_radius = diameter_upper_bound(ds) if ds.n >= 2 else 0.0
    # At least the smallest positive double, so a halved radius stays > 0.
    floor = max(top_radius * RADIUS_FLOOR_FACTOR, 5e-324)

    levels = [NetLevel(top_radius, np.array([0], dtype=np.int64), np.array([-1], dtype=np.int64))]
    owners = np.zeros(ds.n, dtype=np.int64)
    nearest = _extremes(ds)[1]
    radius = top_radius
    while levels[-1].nodes.size < n_distinct and radius > floor:
        radius /= 2.0
        is_node = nearest > radius
        near = np.flatnonzero(~is_node)
        # Each point's owning node, as a point index and then as a position.
        owner_points = np.arange(ds.n)
        if near.size:
            cover = greedy_cover(ds, near, radius)
            is_node[cover.centers] = True
            owner_points[near] = cover.centers[cover.owners]
        nodes = np.flatnonzero(is_node)
        levels.append(NetLevel(radius, nodes, owners[nodes]))
        owners = (np.cumsum(is_node) - 1)[owner_points]

    stats = TreeStats(
        max_degree=max([1] + [int(np.bincount(level.parents).max()) for level in levels[1:]]),
        depth=len(levels) - 1,
        node_count=int(sum(level.nodes.size for level in levels)),
    )
    return NetTree(levels, owners), stats


def net_range_query(
    tree: NetTree,
    ds: Dataset,
    q,
    eps: float,
    oracle: CountingOracle | None = None,
) -> tuple[set[int], QueryStats]:
    """All points strictly within eps of q, via net descent; exact.

    ``live`` marks the kept nodes of the current level; the next level
    visits the nodes whose parent is live, and the candidates are the points
    whose bottom node is live.
    """
    _check_eps(eps)
    q = ds.check_query(q)
    rows = ds.kernel_rows
    root = tree.levels[0]
    live = np.array([ds.distances(q, rows[root.nodes[0]]) <= eps + 2.0 * root.radius])
    computations = 1
    for level in tree.levels[1:]:
        visit = np.flatnonzero(live[level.parents])
        dv = ds.distances(q, rows[level.nodes[visit]])
        computations += dv.size
        live = np.zeros(level.nodes.size, dtype=bool)
        live[visit] = dv <= eps + 2.0 * level.radius
    return _verified_result(ds, q, eps, np.flatnonzero(live[tree.owners]), computations, oracle)


def verify_net_invariants(tree: NetTree, ds: Dataset) -> None:
    """Brute-force checks of the nets, parent links and owners that exact
    queries rest on; raises InvariantViolation."""
    if tree.levels[0].nodes.size != 1 or tree.levels[0].parents.tolist() != [-1]:
        raise InvariantViolation("net tree must have a single root, with parent -1")
    rows = ds.kernel_rows
    for level in tree.levels:
        node_rows = rows[level.nodes]
        covered = np.zeros(ds.n, dtype=bool)
        for pos, node in enumerate(level.nodes.tolist()):
            dv = ds.distances(rows[node], rows)
            covered |= dv <= level.radius
            to_others = ds.distances(rows[node], node_rows)
            to_others[pos] = np.inf
            if level.nodes.size > 1 and float(to_others.min()) <= level.radius:
                raise InvariantViolation(f"net nodes not more than the level radius {level.radius} apart")
        if not covered.all():
            raise InvariantViolation(f"uncovered points at level radius {level.radius}")
    for i in range(1, len(tree.levels)):
        level, above = tree.levels[i], tree.levels[i - 1]
        parents = level.parents
        if parents.shape != level.nodes.shape or (parents < 0).any() or (parents >= above.nodes.size).any():
            raise InvariantViolation(f"parents of level {i} are not positions in level {i - 1}")
        if (ds.distances(rows[level.nodes], rows[above.nodes[parents]]) > above.radius).any():
            raise InvariantViolation("parent link longer than the level radius")
    bottom, owners = tree.levels[-1], tree.owners
    if owners.shape != (ds.n,) or (owners < 0).any() or (owners >= bottom.nodes.size).any():
        raise InvariantViolation("owners are not one bottom-level position per point")
    if (ds.distances(rows, rows[bottom.nodes[owners]]) > bottom.radius).any():
        raise InvariantViolation(f"bottom members not within the bottom radius {bottom.radius} of their node")
