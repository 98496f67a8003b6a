import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metricdim.core import (
    CountingOracle,
    Dataset,
    InvalidInputError,
    MetricKind,
    diameter_upper_bound,
    pair_distances,
)
from metricdim.generate import Family, GeneratorSpec, generate
from metricdim.pivot import (
    PRUNE_WIDENING,
    FarthestFirst,
    QueryStats,
    RandomPivots,
    build_pivot_index,
    calibrate_eps,
    degradation_sweep,
    range_query,
    sequential_scan,
)
from metricdim import rng

EUCLID = MetricKind.EUCLIDEAN


def line_dataset(xs, seed=None):
    return Dataset(np.asarray(xs, dtype=np.float64)[:, None], EUCLID, seed=seed)


class TestBuild:
    def test_every_point_a_pivot(self):
        ds = line_dataset([0.0, 2.0, 5.0])
        index = build_pivot_index(ds, 3, RandomPivots(seed=1))
        assert sorted(index.pivots.tolist()) == [0, 1, 2]
        for j, p in enumerate(index.pivots.tolist()):
            assert index.table[p, j] == 0.0

    def test_farthest_first_picks_extremes(self):
        ds = line_dataset([0.0, 1.0, 0.5])
        index = build_pivot_index(ds, 2, FarthestFirst(seed=3))
        first = int(index.pivots[0])
        expected_second = {0: 1, 1: 0, 2: 0}[first]  # from 0.5 both ends tie; lowest index wins
        assert int(index.pivots[1]) == expected_second

    def test_random_build_cost_is_n_times_k(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 3, 1000, seed=5))
        oracle = CountingOracle(ds.metric)
        build_pivot_index(ds, 32, RandomPivots(seed=2), oracle)
        assert oracle.count == 32_000

    def test_farthest_first_build_cost(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 3, 200, seed=5))
        oracle = CountingOracle(ds.metric)
        build_pivot_index(ds, 8, FarthestFirst(seed=2), oracle)
        # n * k table entries plus n per selection round
        assert oracle.count == 200 * 8 + 200 * 8

    def test_k_beyond_n_rejected(self):
        with pytest.raises(InvalidInputError):
            build_pivot_index(line_dataset([0.0, 1.0]), 3, RandomPivots(seed=0))

    @pytest.mark.parametrize("policy", [RandomPivots(seed=3), FarthestFirst(seed=3)], ids=["random", "farthest"])
    def test_table_columns_are_contiguous_pivot_distances(self, policy):
        # the query's table sweep runs down these columns; its speed rests on this layout
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 3, 50, seed=5))
        index = build_pivot_index(ds, 6, policy)
        assert index.table.shape == (50, 6)
        for j, p in enumerate(index.pivots.tolist()):
            column = index.table[:, j]
            assert column.flags.c_contiguous
            np.testing.assert_array_equal(column, pair_distances(ds.metric, ds.points[p], ds.points))

    def test_table_shape_and_values(self):
        ds = line_dataset([0.0, 1.0, 4.0])
        index = build_pivot_index(ds, 2, RandomPivots(seed=0))
        assert index.table.shape == (3, 2)
        for j, p in enumerate(index.pivots.tolist()):
            np.testing.assert_array_equal(index.table[:, j], np.abs(ds.points[:, 0] - ds.points[p, 0]))


class TestRangeQuery:
    def test_lipschitz_pruning_rule(self):
        # pivot at 0, y at 5, query at 3: |5 - 3| > eps = 1 discards y
        ds = line_dataset([0.0, 5.0])
        index = build_pivot_index(ds, 1, RandomPivots(seed=1))
        assert int(index.pivots[0]) in (0, 1)
        result, stats = range_query(index, ds, np.array([3.0]), eps=1.0)
        assert result == set()
        assert stats.candidates_after_pruning == 0

    def test_huge_eps_prunes_nothing(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 100, seed=4))
        index = build_pivot_index(ds, 4, RandomPivots(seed=1))
        eps = diameter_upper_bound(ds) * 1.5
        result, stats = range_query(index, ds, ds.points[0], eps)
        assert stats.candidates_after_pruning == 100
        assert result == set(range(100))

    def test_stats_invariants(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 128, seed=4))
        index = build_pivot_index(ds, 8, RandomPivots(seed=1))
        oracle = CountingOracle(ds.metric)
        result, stats = range_query(index, ds, np.array([0.5, 0.5]), 0.1, oracle)
        assert stats.distance_computations == 8 + stats.candidates_after_pruning
        assert stats.distance_computations == oracle.count
        assert 0.0 <= stats.discarded_fraction <= 1.0
        assert stats.candidates_after_pruning + round(stats.discarded_fraction * ds.n) == ds.n
        assert stats.result_size == len(result)
        assert stats.distance_computations <= ds.n + 8

    def test_eps_must_be_positive(self):
        ds = line_dataset([0.0, 1.0])
        index = build_pivot_index(ds, 1, RandomPivots(seed=0))
        with pytest.raises(InvalidInputError):
            range_query(index, ds, np.array([0.5]), 0.0)

    def test_matches_scan_on_seeded_workloads(self):
        for family, d in [(Family.UNIFORM_CUBE, 3), (Family.HAMMING_UNIFORM, 24)]:
            ds = generate(GeneratorSpec(family, d, 400, seed=rng.derive_seed(6, d)))
            qs = generate(GeneratorSpec(family, d, 25, seed=rng.derive_seed(7, d)))
            index = build_pivot_index(ds, 8, RandomPivots(seed=1))
            for i, q in enumerate(qs.points):
                eps = calibrate_eps(ds, q, 1 + i % 20)
                result, _ = range_query(index, ds, q, eps)
                assert result == sequential_scan(ds, q, eps)

    @given(
        xs=st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=30),
        q=st.floats(min_value=-60, max_value=60),
        eps=st.floats(min_value=0.01, max_value=80.0),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_exactness_property(self, xs, q, eps, k):
        ds = line_dataset(xs)
        index = build_pivot_index(ds, min(k, ds.n), RandomPivots(seed=0))
        result, _ = range_query(index, ds, np.array([q]), eps)
        assert result == sequential_scan(ds, np.array([q]), eps)

    def test_pruned_points_are_truly_outside(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 300, seed=8))
        index = build_pivot_index(ds, 6, RandomPivots(seed=2))
        q = np.array([0.25, 0.75])
        eps = calibrate_eps(ds, q, 5)
        range_query(index, ds, q, eps)
        # recompute the candidate mask the query used
        q_to_pivot = np.array([float(np.linalg.norm(q - ds.points[p])) for p in index.pivots.tolist()])
        survives = (np.abs(index.table - q_to_pivot) <= eps + 1e-12).all(axis=1)
        pruned = np.flatnonzero(~survives)
        dv = np.linalg.norm(ds.points[pruned] - q, axis=1)
        assert (dv > eps).all()

    def test_more_pivots_shrink_candidates(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 500, seed=3))
        q = np.array([0.4, 0.6])
        eps = calibrate_eps(ds, q, 10)
        small = build_pivot_index(ds, 4, RandomPivots(seed=11))
        large = build_pivot_index(ds, 12, RandomPivots(seed=11))
        assert np.array_equal(large.pivots[:4], small.pivots)  # same stream, prefix draw

        def candidates(index):
            q_to_pivot = np.array([float(np.linalg.norm(q - ds.points[p])) for p in index.pivots.tolist()])
            mask = (np.abs(index.table - q_to_pivot) <= eps + 1e-12).all(axis=1)
            return set(np.flatnonzero(mask).tolist())

        assert candidates(large) <= candidates(small)


def whole_table_range_query(index, ds, q, eps):
    """The pivot query written out with the (n, k) table mask: the reference
    that any other form of the sweep must match exactly."""
    q_to_pivot = pair_distances(ds.metric, q, ds.points[index.pivots])
    survives = (np.abs(index.table - q_to_pivot) <= eps + PRUNE_WIDENING).all(axis=1)
    candidates = np.flatnonzero(survives)
    verified = pair_distances(ds.metric, q, ds.points[candidates])
    result = set(candidates[verified < eps].tolist())
    stats = QueryStats(
        distance_computations=index.k + candidates.size,
        candidates_after_pruning=candidates.size,
        discarded_fraction=(ds.n - candidates.size) / ds.n,
        result_size=len(result),
    )
    return result, stats


@st.composite
def pivot_queries(draw, kind):
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    if kind is MetricKind.HAMMING:
        points = g.integers(0, 2, (n, draw(st.integers(1, 16)))).astype(np.uint8)
    else:
        # small integer grids tie many distances; at the 1e5 scale a distance
        # absorbs PRUNE_WIDENING, so eps + PRUNE_WIDENING can equal a gap
        scale = draw(st.sampled_from([0.1, 1.0, 1e5]))
        points = g.integers(-3, 4, (n, draw(st.integers(1, 4)))) * scale
    ds = Dataset(points, kind)
    k = draw(st.integers(1, n))
    policy = draw(st.sampled_from([RandomPivots, FarthestFirst]))(draw(st.integers(0, 2**16)))
    index = build_pivot_index(ds, k, policy)
    source = draw(st.sampled_from(["pivot", "point", "fresh"]))
    if source == "pivot":
        q = ds.points[int(draw(st.sampled_from(index.pivots.tolist())))]
    elif source == "point":
        q = ds.points[draw(st.integers(0, n - 1))]
    elif kind is MetricKind.HAMMING:
        q = g.integers(0, 2, ds.dim).astype(np.uint8)
    else:
        q = g.integers(-3, 4, ds.dim) * scale + draw(st.sampled_from([0.0, 0.5 * scale]))
    dv = pair_distances(ds.metric, q, ds.points)
    positive = np.unique(dv[dv > 0])
    assume(positive.size)
    d = float(draw(st.sampled_from(positive.tolist())))
    eps = draw(st.sampled_from([d, np.nextafter(d, 0.0), np.nextafter(d, np.inf), 2.0 * d]))
    return ds, index, q, float(eps)


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_range_query_matches_the_whole_table_mask(kind, data):
    ds, index, q, eps = data.draw(pivot_queries(kind))
    oracle = CountingOracle(ds.metric)
    result, stats = range_query(index, ds, q, eps, oracle)
    want_result, want_stats = whole_table_range_query(index, ds, q, eps)
    assert result == want_result
    assert stats == want_stats
    assert oracle.count == stats.distance_computations


class TestCalibration:
    def test_hits_target_on_continuous_data(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 2000, seed=12))
        q = np.array([0.5, 0.5])
        eps = calibrate_eps(ds, q, 25)
        size = len(sequential_scan(ds, q, eps))
        assert abs(size - 25) <= 1

    def test_target_validation(self):
        ds = line_dataset([0.0, 1.0])
        with pytest.raises(InvalidInputError):
            calibrate_eps(ds, np.array([0.5]), 0)
        with pytest.raises(InvalidInputError):
            calibrate_eps(ds, np.array([0.5]), 3)


class TestScan:
    def test_empty_when_eps_below_min_distance(self):
        ds = line_dataset([0.0, 1.0])
        assert sequential_scan(ds, np.array([0.4]), 0.1) == set()

    def test_query_on_data_point(self):
        ds = line_dataset([0.0, 1.0])
        assert sequential_scan(ds, np.array([0.0]), 1e-9) == {0}

    def test_cost_is_n(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 77, seed=1))
        oracle = CountingOracle(ds.metric)
        sequential_scan(ds, ds.points[0], 0.5, oracle)
        assert oracle.count == 77


def test_concurrent_queries_share_one_oracle_exactly():
    # queries are read-only on the index; a shared oracle must aggregate
    # every worker's evaluations without losing a count
    import threading

    ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 3, 500, seed=2))
    index = build_pivot_index(ds, 8, RandomPivots(seed=1))
    qs = generate(GeneratorSpec(Family.UNIFORM_CUBE, 3, 40, seed=3))
    shared = CountingOracle(ds.metric)
    per_query = []
    lock = threading.Lock()

    def work(points):
        for q in points:
            _, stats = range_query(index, ds, q, 0.2, shared)
            with lock:
                per_query.append(stats.distance_computations)

    threads = [threading.Thread(target=work, args=(qs.points[i::4],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert shared.count == sum(per_query)


def test_pivot_and_net_queries_raise_a_shared_oracle_by_their_count():
    from metricdim.nettree import build_net_tree, net_range_query

    ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 3, 300, seed=4))
    q = np.array([0.4, 0.5, 0.6])
    shared = CountingOracle(ds.metric)
    shared.add(1000)
    _, stats = range_query(build_pivot_index(ds, 8, RandomPivots(seed=1)), ds, q, 0.3, shared)
    assert shared.count == 1000 + stats.distance_computations
    _, net_stats = net_range_query(build_net_tree(ds)[0], ds, q, 0.3, shared)
    assert shared.count == 1000 + stats.distance_computations + net_stats.distance_computations


def test_sweep_smoke():
    rows = degradation_sweep(
        [(Family.UNIFORM_CUBE, 2), (Family.HAMMING_UNIFORM, 64)],
        n=400,
        k=8,
        target_result_size=5,
        queries=10,
        seed=21,
    )
    assert len(rows) == 2
    assert rows[0].mean_discarded_fraction > rows[1].mean_discarded_fraction
    for row in rows:
        assert 0.0 <= row.mean_discarded_fraction <= 1.0
        assert row.scan_cost == 400
