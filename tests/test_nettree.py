import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim.core import (
    CountingOracle,
    Dataset,
    InvalidInputError,
    InvariantViolation,
    MetricKind,
    diameter_upper_bound,
    pair_distances,
)
from metricdim.doubling import greedy_cover
from metricdim.generate import Family, GeneratorSpec, generate
from metricdim.nettree import (
    RADIUS_FLOOR_FACTOR,
    NetLevel,
    NetTree,
    TreeStats,
    build_net_tree,
    net_range_query,
    verify_net_invariants,
)
from metricdim.pivot import QueryStats, calibrate_eps, sequential_scan
from metricdim import rng

EUCLID = MetricKind.EUCLIDEAN


def line_dataset(xs, seed=None):
    return Dataset(np.asarray(xs, dtype=np.float64)[:, None], EUCLID, seed=seed)


def reference_net_tree(ds):
    """The per-level loops the cover-based build must match: an independent
    greedy net per level, a scan per node for its parent, and a scan per
    bottom node for the points it owns."""

    def greedy_net(radius):
        min_dist = np.full(ds.n, np.inf)
        nodes = []
        for j in range(ds.n):
            if min_dist[j] > radius:
                nodes.append(j)
                np.minimum(min_dist, pair_distances(ds.metric, ds.points[j], ds.points), out=min_dist)
        return np.asarray(nodes, dtype=np.int64)

    def attach_parents(child_nodes, parent_nodes, radius):
        parents = np.empty(child_nodes.size, dtype=np.int64)
        for pos, node in enumerate(child_nodes.tolist()):
            within = pair_distances(ds.metric, ds.points[node], ds.points[parent_nodes]) <= radius
            parents[pos] = int(np.flatnonzero(within)[0])
        return parents

    n_distinct = np.unique(ds.points, axis=0).shape[0]
    if ds.metric.uses_bits:
        top_radius = 1.0
    else:
        top_radius = diameter_upper_bound(ds) if ds.n >= 2 else 0.0
    floor = top_radius * RADIUS_FLOOR_FACTOR
    levels = [NetLevel(top_radius, greedy_net(top_radius), np.array([-1], dtype=np.int64))]
    radius = top_radius
    while levels[-1].nodes.size < n_distinct and radius > floor:
        radius /= 2.0
        nodes = greedy_net(radius)
        levels.append(NetLevel(radius, nodes, attach_parents(nodes, levels[-1].nodes, levels[-1].radius)))
    children = [
        [np.flatnonzero(levels[i + 1].parents == p) for p in range(levels[i].nodes.size)] for i in range(len(levels) - 1)
    ]
    bottom = levels[-1]
    assignment = np.full(ds.n, -1, dtype=np.int64)
    for pos, node in enumerate(bottom.nodes.tolist()):
        take = (pair_distances(ds.metric, ds.points[node], ds.points) <= bottom.radius) & (assignment == -1)
        assignment[take] = pos
    max_degree = max([1] + [len(c) for level_children in children for c in level_children])
    stats = TreeStats(max_degree, len(levels) - 1, int(sum(level.nodes.size for level in levels)))
    return NetTree(levels, assignment), stats


def grouped_range_query(tree, ds, q, eps):
    """The descent ``net_range_query`` must match in results and counts: per
    node child lists and member lists, joined one live node at a time."""
    children = [[np.flatnonzero(below.parents == p) for p in range(above.nodes.size)] for above, below in zip(tree.levels, tree.levels[1:])]
    members = [np.flatnonzero(tree.owners == p) for p in range(tree.levels[-1].nodes.size)]
    root = tree.levels[0]
    root_dist = pair_distances(ds.metric, q, ds.points[root.nodes[0]])
    computations = 1
    live = np.array([0], dtype=np.int64) if root_dist <= eps + 2.0 * root.radius else np.array([], dtype=np.int64)
    for level_children, level in zip(children, tree.levels[1:]):
        if live.size == 0:
            break
        child_positions = np.concatenate([level_children[p] for p in live.tolist()])
        dv = pair_distances(ds.metric, q, ds.points[level.nodes[child_positions]])
        computations += dv.size
        live = child_positions[dv <= eps + 2.0 * level.radius]
    candidates = np.concatenate([members[p] for p in live.tolist()]) if live.size else np.array([], dtype=np.int64)
    verified = pair_distances(ds.metric, q, ds.points[candidates])
    computations += verified.size
    result = set(candidates[verified < eps].tolist())
    return result, QueryStats(computations, int(candidates.size), (ds.n - int(candidates.size)) / ds.n, len(result))


# Point layouts for the reference comparison. "grid" puts pair distances
# exactly on the halved radii (integer coordinates; bit vectors have a
# power-of-two length), "pool" repeats rows, "equal" repeats one row.
TREE_LAYOUTS = {
    "random": lambda g, n, dim: g.random((n, dim)),
    "offset": lambda g, n, dim: 1e8 + g.random((n, dim)),
    "pool": lambda g, n, dim: g.random((max(2, n // 6), dim))[g.integers(0, max(2, n // 6), n)],
    "grid": lambda g, n, dim: g.integers(0, 3, (n, dim)).astype(np.float64),
    "single": lambda g, n, dim: g.random((1, dim)),
    "equal": lambda g, n, dim: np.repeat(g.random((1, dim)), n, axis=0),
}


@st.composite
def tree_datasets(draw, kind):
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, dim = draw(st.integers(1, 80)), draw(st.integers(1, 5))
    layout = draw(st.sampled_from(sorted(TREE_LAYOUTS)))
    if kind is MetricKind.HAMMING:
        if layout == "offset":
            layout = "random"
        points = TREE_LAYOUTS[layout](g, n, 2 ** draw(st.integers(2, 5))) < 0.5
        return Dataset(points.astype(np.uint8), kind)
    return Dataset(TREE_LAYOUTS[layout](g, n, dim), kind)


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_build_matches_the_reference_loops(kind, data):
    ds = data.draw(tree_datasets(kind))
    tree, stats = build_net_tree(ds)
    want_tree, want_stats = reference_net_tree(ds)
    assert stats == want_stats
    assert len(tree.levels) == len(want_tree.levels)
    for got, want in zip(tree.levels, want_tree.levels):
        assert got.radius == want.radius
        assert got.nodes.tolist() == want.nodes.tolist()
        assert got.parents.tolist() == want.parents.tolist()
    assert tree.owners.tolist() == want_tree.owners.tolist()
    verify_net_invariants(tree, ds)


# Inputs whose deep levels hold both points with another point in reach and
# points without: "grid" (distinct integer points) puts Manhattan distances
# exactly on the radii 4, 2 and 1, and "pool" repeats rows, whose nearest
# distance is 0 at every level.
SPLIT_LEVEL_INPUTS = {
    "uniform-cube-1": lambda: generate(GeneratorSpec(Family.UNIFORM_CUBE, 1, 600, seed=rng.derive_seed(7, 1))),
    "hamming-64": lambda: generate(GeneratorSpec(Family.HAMMING_UNIFORM, 64, 400, seed=rng.derive_seed(7, 64))),
    "pool": lambda: Dataset(TREE_LAYOUTS["pool"](np.random.default_rng(7), 300, 3), EUCLID),
    "grid": lambda: Dataset(
        np.stack(np.divmod(np.random.default_rng(7).permutation(25)[:10], 5), axis=1).astype(np.float64),
        MetricKind.MANHATTAN,
    ),
}


@pytest.mark.parametrize("make", SPLIT_LEVEL_INPUTS.values(), ids=SPLIT_LEVEL_INPUTS)
def test_levels_equal_greedy_covers_of_all_points(make):
    # The build covers only the points with another point in reach and makes
    # each other point its own node; a cover of all points must agree.
    ds = make()
    tree, _ = build_net_tree(ds)
    owners = np.zeros(ds.n, dtype=np.int64)
    split = False
    for level in tree.levels[1:]:
        cover = greedy_cover(ds, np.arange(ds.n), level.radius)
        assert level.nodes.tolist() == cover.centers.tolist()
        assert level.parents.tolist() == owners[cover.centers].tolist()
        owners = cover.owners
        near = [(pair_distances(ds.metric, ds.points[i], ds.points) <= level.radius).sum() > 1 for i in range(ds.n)]
        split |= 0 < sum(near) < ds.n
    assert tree.owners.tolist() == owners.tolist()
    assert split


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_query_matches_the_grouped_descent(kind, data):
    # eps is a distance from q to a data point, where a rounding slip in the
    # pruning or the verification would change the result
    ds = data.draw(tree_datasets(kind))
    tree, _ = build_net_tree(ds)
    i, j = data.draw(st.integers(0, ds.n - 1)), data.draw(st.integers(0, ds.n - 1))
    q = ds.points[i]
    if kind is not MetricKind.HAMMING and data.draw(st.booleans()):
        q = 0.5 * (ds.points[i] + ds.points[j])
    dv = pair_distances(ds.metric, q, ds.points)
    positive = np.unique(dv[dv > 0])
    eps = float(data.draw(st.sampled_from(positive.tolist()))) if positive.size else 1.0
    oracle = CountingOracle(ds.metric)
    result, stats = net_range_query(tree, ds, q, eps, oracle)
    want_result, want_stats = grouped_range_query(tree, ds, q, eps)
    assert result == want_result
    assert stats == want_stats
    assert oracle.count == stats.distance_computations
    assert result == sequential_scan(ds, q, eps)


class TestBuild:
    def test_single_point(self):
        tree, stats = build_net_tree(line_dataset([0.3]))
        assert stats.node_count == 1
        assert stats.depth == 0
        assert stats.max_degree == 1
        assert tree.owners.tolist() == [0]

    def test_two_points_separate_below_their_distance(self):
        tree, stats = build_net_tree(line_dataset([0.0, 1.0]))
        assert tree.levels[0].nodes.size == 1  # single root covers both
        assert tree.levels[-1].nodes.size == 2  # both survive once r < 1
        assert stats.max_degree == 2

    def test_duplicates_collapse(self):
        tree, stats = build_net_tree(line_dataset([0.5, 0.5, 0.5, 2.0]))
        bottom = tree.levels[-1]
        assert bottom.nodes.size == 2
        assert tree.owners.tolist() == [0, 0, 0, 1]

    def test_invariants_on_mixed_workloads(self):
        for family, d in [(Family.UNIFORM_CUBE, 2), (Family.HAMMING_UNIFORM, 16)]:
            ds = generate(GeneratorSpec(family, d, 300, seed=rng.derive_seed(1, d)))
            tree, _ = build_net_tree(ds)
            verify_net_invariants(tree, ds)

    def test_line_degree_regression_bound(self):
        # 1-d data has constant doubling character; measured max degree is 3,
        # frozen at <= 8
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 1, 2000, seed=rng.derive_seed(42, 1, 0)))
        _, stats = build_net_tree(ds)
        assert stats.max_degree <= 8

    def test_radii_halve(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 64, seed=0))
        tree, _ = build_net_tree(ds)
        radii = [level.radius for level in tree.levels]
        for a, b in zip(radii, radii[1:]):
            assert b == a / 2.0

    def test_deterministic(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 3, 200, seed=2))
        t1, s1 = build_net_tree(ds)
        t2, s2 = build_net_tree(ds)
        assert s1 == s2
        for a, b in zip(t1.levels, t2.levels):
            assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.parents, b.parents)


class TestQuery:
    def test_huge_eps_returns_everything(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 150, seed=3))
        tree, _ = build_net_tree(ds)
        eps = diameter_upper_bound(ds) * 1.01
        result, stats = net_range_query(tree, ds, ds.points[0], eps)
        assert result == set(range(150))
        assert stats.result_size == 150

    def test_matches_scan_on_seeded_workloads(self):
        for family, d in [(Family.UNIFORM_CUBE, 2), (Family.UNIFORM_CUBE, 8), (Family.HAMMING_UNIFORM, 32)]:
            ds = generate(GeneratorSpec(family, d, 300, seed=rng.derive_seed(4, d)))
            qs = generate(GeneratorSpec(family, d, 20, seed=rng.derive_seed(5, d)))
            tree, _ = build_net_tree(ds)
            for i, q in enumerate(qs.points):
                eps = calibrate_eps(ds, q, 1 + i)
                result, _ = net_range_query(tree, ds, q, eps)
                assert result == sequential_scan(ds, q, eps)

    def test_query_on_duplicate_point_returns_whole_group(self):
        ds = line_dataset([0.5, 0.5, 0.5, 2.0])
        tree, _ = build_net_tree(ds)
        result, _ = net_range_query(tree, ds, np.array([0.5]), 0.25)
        assert result == {0, 1, 2}

    def test_stats_fields(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 200, seed=6))
        tree, _ = build_net_tree(ds)
        oracle = CountingOracle(ds.metric)
        q = np.array([0.5, 0.5])
        result, stats = net_range_query(tree, ds, q, 0.05, oracle)
        assert stats.distance_computations == oracle.count
        assert stats.result_size == len(result)
        assert 0.0 <= stats.discarded_fraction <= 1.0

    def test_low_dimension_beats_half_scan(self):
        # frozen regression bound: on the 1-d line with target-10 ranges the
        # descent touches well under half the points
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 1, 2000, seed=rng.derive_seed(42, 1, 0)))
        qs = generate(GeneratorSpec(Family.UNIFORM_CUBE, 1, 30, seed=rng.derive_seed(42, 2, 0)))
        tree, _ = build_net_tree(ds)
        costs = []
        for q in qs.points:
            eps = calibrate_eps(ds, q, 10)
            _, stats = net_range_query(tree, ds, q, eps)
            costs.append(stats.distance_computations)
        assert float(np.mean(costs)) < 1000

    def test_eps_must_be_positive(self):
        ds = line_dataset([0.0, 1.0])
        tree, _ = build_net_tree(ds)
        with pytest.raises(InvalidInputError):
            net_range_query(tree, ds, np.array([0.5]), 0.0)

    @given(
        xs=st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=25),
        q=st.floats(min_value=-25, max_value=25),
        eps=st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_exactness_property(self, xs, q, eps):
        ds = line_dataset(xs)
        tree, _ = build_net_tree(ds)
        result, _ = net_range_query(tree, ds, np.array([q]), eps)
        assert result == sequential_scan(ds, np.array([q]), eps)


def hand_tree(levels, owners):
    """A NetTree from plain lists: levels are (radius, nodes, parents)."""
    return NetTree(
        [NetLevel(r, np.asarray(nodes, dtype=np.int64), np.asarray(parents, dtype=np.int64)) for r, nodes, parents in levels],
        np.asarray(owners, dtype=np.int64),
    )


class TestVerify:
    def test_rejects_nodes_exactly_the_radius_apart(self):
        # a net needs nodes more than r apart; these two are exactly r = 1 apart
        tree = hand_tree([(2.0, [0], [-1]), (1.0, [0, 1], [0, 0])], [0, 1])
        with pytest.raises(InvariantViolation, match="apart"):
            verify_net_invariants(tree, line_dataset([0.0, 1.0]))

    def test_rejects_a_member_outside_the_bottom_radius(self):
        # point 1 (at 0.5) is answered for by the node at 5.0, 4.5 away
        tree = hand_tree([(5.0, [0], [-1]), (1.0, [0, 2], [0, 0])], [0, 1, 1])
        with pytest.raises(InvariantViolation, match="bottom members"):
            verify_net_invariants(tree, line_dataset([0.0, 0.5, 5.0]))

    @pytest.mark.parametrize("root_parents", [[0], [-1, -1], []])
    def test_rejects_a_root_without_parent_minus_one(self, root_parents):
        tree = NetTree([NetLevel(2.0, np.array([0]), np.asarray(root_parents, dtype=np.int64))], np.array([0, 0]))
        with pytest.raises(InvariantViolation, match="single root"):
            verify_net_invariants(tree, line_dataset([0.0, 1.0]))

    @pytest.mark.parametrize(
        "parents",
        [[0, 0, -1], [0, 0, 2], [0, 0]],
        ids=["minus-one-below-the-root", "past-the-end", "wrong-length"],
    )
    def test_rejects_parents_that_are_not_positions_above(self, parents):
        # level 1 has two nodes: -1 would wrap onto the last one, 2 is past it
        tree = hand_tree([(8.0, [0], [-1]), (2.0, [0, 1], [0, 0]), (0.25, [0, 1, 2], parents)], [0, 1, 2])
        with pytest.raises(InvariantViolation, match="parents of level 2"):
            verify_net_invariants(tree, line_dataset([0.0, 4.0, 4.5]))

    def test_rejects_a_parent_link_longer_than_the_radius_above(self):
        # the node at 4.5 names the level-1 node at 0.0 as its parent, 4.5 > 2 away
        tree = hand_tree([(8.0, [0], [-1]), (2.0, [0, 1], [0, 0]), (0.25, [0, 1, 2], [0, 1, 0])], [0, 1, 2])
        with pytest.raises(InvariantViolation, match="parent link longer"):
            verify_net_invariants(tree, line_dataset([0.0, 4.0, 4.5]))

    @pytest.mark.parametrize(
        "owners",
        [[0, 1], [0, 1, 1, 1], [0, 2, 1], [0, -1, 1]],
        ids=["short", "long", "past-the-end", "negative"],
    )
    def test_rejects_owners_that_are_not_bottom_positions(self, owners):
        tree = hand_tree([(8.0, [0], [-1]), (2.0, [0, 1], [0, 0])], owners)
        with pytest.raises(InvariantViolation, match="owners"):
            verify_net_invariants(tree, line_dataset([0.0, 4.0, 4.5]))


@pytest.mark.parametrize("kind", [MetricKind.MANHATTAN, MetricKind.CHEBYSHEV], ids=lambda k: k.value)
def test_subnormal_distances_build_and_query_exactly(kind):
    # The top radius is 2 * 5e-324 and halves to the smallest positive
    # double; halving once more would give a radius of 0, which no cover takes.
    ds = Dataset(np.array([[0.0], [5e-324], [1e-323]]), kind)
    tree, _ = build_net_tree(ds)
    verify_net_invariants(tree, ds)
    assert min(level.radius for level in tree.levels) > 0
    for q in ds.points:
        result, _ = net_range_query(tree, ds, q, 1e-323)
        assert result == sequential_scan(ds, q, 1e-323)
