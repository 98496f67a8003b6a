import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim.core import (
    CountingOracle,
    Dataset,
    InvalidInputError,
    MetricDescriptor,
    MetricKind,
    counted_distance,
    counted_distances_to,
    diameter_is_exact,
    diameter_upper_bound,
    distance,
    distances_to,
    format_points,
    load_dataset,
)
from metricdim.nettree import build_net_tree, net_range_query
from metricdim.pivot import RandomPivots, build_pivot_index, calibrate_eps, range_query, sequential_scan

EUCLID = MetricDescriptor(MetricKind.EUCLIDEAN)
MANHATTAN = MetricDescriptor(MetricKind.MANHATTAN)
CHEBYSHEV = MetricDescriptor(MetricKind.CHEBYSHEV)
HAMMING = MetricDescriptor(MetricKind.HAMMING)

REAL_METRICS = [EUCLID, MANHATTAN, CHEBYSHEV]
ALL_METRICS = REAL_METRICS + [HAMMING]

# Coordinates are 0 or at least 1e-30 in magnitude: differences of such
# values never underflow when squared, which keeps "zero iff equal" exact
# (see the precision note in metricdim.core).
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False).map(
    lambda v: 0.0 if abs(v) < 1e-30 else v
)


def real_triples(dim=4):
    return st.tuples(*(st.lists(coords, min_size=dim, max_size=dim) for _ in range(3)))


class TestDistance:
    def test_pythagorean(self):
        assert distance(EUCLID, [0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_hamming_half(self):
        assert distance(HAMMING, [0, 1, 0, 1], [0, 0, 0, 0]) == 0.5

    @pytest.mark.parametrize("metric", REAL_METRICS)
    def test_identity(self, metric):
        assert distance(metric, [1.5, -2.0], [1.5, -2.0]) == 0.0

    def test_manhattan_and_chebyshev(self):
        assert distance(MANHATTAN, [0.0, 0.0], [3.0, 4.0]) == 7.0
        assert distance(CHEBYSHEV, [0.0, 0.0], [3.0, 4.0]) == 4.0

    def test_scale_divides(self):
        halved = MetricDescriptor(MetricKind.EUCLIDEAN, scale=2.0)
        assert distance(halved, [0.0], [4.0]) == 2.0

    def test_bit_vector_under_euclidean_rejected(self):
        bits = np.array([0, 1, 1], dtype=np.uint8)
        with pytest.raises(InvalidInputError):
            distance(EUCLID, bits, bits)

    def test_real_vector_under_hamming_rejected(self):
        with pytest.raises(InvalidInputError):
            distance(HAMMING, [0.5, 1.0], [0.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            distance(EUCLID, [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            distance(EUCLID, [float("nan")], [0.0])

    def test_non_binary_bits_rejected(self):
        with pytest.raises(InvalidInputError):
            distance(HAMMING, [0, 2], [0, 1])

    @pytest.mark.parametrize("metric", REAL_METRICS)
    @given(triple=real_triples())
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, metric, triple):
        x, y, z = triple
        dxy = distance(metric, x, y)
        assert dxy == distance(metric, y, x)
        assert dxy >= 0.0
        if x == y:
            assert dxy == 0.0
        elif dxy == 0.0:
            assert x == y
        assert distance(metric, x, z) <= dxy + distance(metric, y, z) + 1e-9

    @given(triple=real_triples())
    @settings(max_examples=60, deadline=None)
    def test_distance_functions_are_one_lipschitz(self, triple):
        p, x, y = triple
        for metric in REAL_METRICS:
            assert abs(distance(metric, p, x) - distance(metric, p, y)) <= distance(metric, x, y) + 1e-9

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_hamming_axioms(self, rows):
        x = [r[0] for r in rows]
        y = [r[1] for r in rows]
        z = [r[2] for r in rows]
        dxy = distance(HAMMING, x, y)
        assert dxy == distance(HAMMING, y, x)
        assert (dxy == 0.0) == (x == y)
        assert distance(HAMMING, x, z) <= dxy + distance(HAMMING, y, z) + 1e-12


class TestBatchDistances:
    def test_matches_scalar(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, -1.0]])
        q = np.array([1.0, 1.0])
        for metric in REAL_METRICS:
            batch = distances_to(metric, q, pts)
            scalar = [distance(metric, q, p) for p in pts]
            np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)

    def test_hamming_batch(self):
        pts = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [1, 1, 1, 1]], dtype=np.uint8)
        q = np.array([0, 0, 0, 0], dtype=np.uint8)
        np.testing.assert_array_equal(distances_to(HAMMING, q, pts), [0.0, 0.5, 1.0])


@st.composite
def query_and_rows(draw, metric):
    """A query point and 1-8 rows of one random length, valid for ``metric``."""
    elements, dtype = (st.integers(0, 1), np.uint8) if metric.kind.uses_bits else (coords, np.float64)
    dim = draw(st.integers(1, 40))
    row = st.lists(elements, min_size=dim, max_size=dim)
    return np.array(draw(row), dtype=dtype), np.array(draw(st.lists(row, min_size=1, max_size=8)), dtype=dtype)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind.value)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_equals_scalar_exactly(metric, data):
    q, pts = data.draw(query_and_rows(metric))
    assert distances_to(metric, q, pts).tolist() == [distance(metric, q, p) for p in pts]


class TestCountingOracle:
    def test_single_call(self):
        oracle = CountingOracle(EUCLID)
        counted_distance(oracle, [0.0], [1.0])
        assert oracle.count == 1

    def test_k_calls(self):
        oracle = CountingOracle(EUCLID)
        for _ in range(7):
            counted_distance(oracle, [0.0], [1.0])
        assert oracle.count == 7
        oracle.reset()
        assert oracle.count == 0

    def test_batch_counts_rows(self):
        oracle = CountingOracle(EUCLID)
        counted_distances_to(oracle, [0.0, 0.0], np.zeros((5, 2)))
        assert oracle.count == 5

    def test_value_matches_uncounted_on_random_pairs(self):
        rng = np.random.default_rng(3)
        oracle = CountingOracle(EUCLID)
        for _ in range(1000):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert counted_distance(oracle, x, y) == distance(EUCLID, x, y)
        assert oracle.count == 1000

    def test_concurrent_increments_are_exact(self):
        import threading

        oracle = CountingOracle(EUCLID)

        def work():
            for _ in range(1000):
                oracle.add(1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert oracle.count == 8000


class TestDiameterBound:
    def test_two_points(self):
        ds = Dataset(np.array([[0.0], [1.0]]), EUCLID)
        assert diameter_upper_bound(ds) == 1.0

    def test_three_point_triangle(self):
        ds = Dataset(np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 4.0]]), EUCLID)
        # brute-force max over the 3 pairs is the 3-4-5 hypotenuse
        assert diameter_upper_bound(ds) == 5.0

    def test_duplicate_points_give_zero(self):
        ds = Dataset(np.array([[2.0, 2.0], [2.0, 2.0]]), EUCLID)
        assert diameter_upper_bound(ds) == 0.0

    def test_single_point_rejected(self):
        with pytest.raises(InvalidInputError):
            diameter_upper_bound(Dataset(np.array([[1.0]]), EUCLID))

    @given(st.lists(st.lists(coords, min_size=2, max_size=2), min_size=2, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_exact_branch_equals_brute_force(self, rows):
        ds = Dataset(np.array(rows), EUCLID)
        brute = max(
            distance(EUCLID, rows[i], rows[j]) for i in range(len(rows)) for j in range(i + 1, len(rows))
        )
        assert diameter_upper_bound(ds) == brute
        assert diameter_is_exact(ds.n)

    def test_large_n_branch_dominates_true_max(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(2500, 2))
        ds = Dataset(pts, EUCLID)
        bound = diameter_upper_bound(ds)
        assert not diameter_is_exact(ds.n)
        sample = rng.integers(0, 2500, size=(4000, 2))
        observed = max(distance(EUCLID, pts[i], pts[j]) for i, j in sample)
        assert bound >= observed

    def test_hamming_bound_capped_at_one(self):
        bits = (np.random.default_rng(1).uniform(size=(3000, 16)) < 0.5).astype(np.uint8)
        ds = Dataset(bits, HAMMING)
        assert diameter_upper_bound(ds) <= 1.0


class TestDatasetIO:
    def test_real_round_trip(self, tmp_path):
        ds = Dataset(np.array([[0.25, -1.5], [3.0, 4.0]]), EUCLID, seed=9)
        path = tmp_path / "pts.txt"
        path.write_text("# header line\n" + format_points(ds))
        loaded = load_dataset(path, EUCLID)
        np.testing.assert_array_equal(loaded.points, ds.points)

    def test_bit_round_trip(self, tmp_path):
        ds = Dataset(np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8), HAMMING)
        path = tmp_path / "bits.txt"
        path.write_text(format_points(ds))
        loaded = load_dataset(path, HAMMING)
        np.testing.assert_array_equal(loaded.points, ds.points)

    def test_comma_separated_accepted(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0, 2.0\n3.0, 4.0\n")
        loaded = load_dataset(path, EUCLID)
        assert loaded.points.shape == (2, 2)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\noops 4.0\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            load_dataset(path, EUCLID)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(InvalidInputError, match="line 2"):
            load_dataset(path, EUCLID)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            load_dataset(path, EUCLID)

    def test_dataset_points_read_only(self):
        ds = Dataset(np.array([[1.0]]), EUCLID)
        with pytest.raises(ValueError):
            ds.points[0, 0] = 2.0


# Every public entry point that takes an outside point validates it once,
# at entry; the kernel behind it validates nothing.
QUERY_ENTRY_POINTS = {
    "distance": lambda ds, q: distance(ds.metric, q, ds.points[0]),
    "distances_to": lambda ds, q: distances_to(ds.metric, q, ds.points),
    "counted_distance": lambda ds, q: counted_distance(CountingOracle(ds.metric), q, ds.points[0]),
    "counted_distances_to": lambda ds, q: counted_distances_to(CountingOracle(ds.metric), q, ds.points),
    "range_query": lambda ds, q: range_query(build_pivot_index(ds, 2, RandomPivots(seed=1)), ds, q, 0.5),
    "sequential_scan": lambda ds, q: sequential_scan(ds, q, 0.5),
    "net_range_query": lambda ds, q: net_range_query(build_net_tree(ds)[0], ds, q, 0.5),
    "calibrate_eps": lambda ds, q: calibrate_eps(ds, q, 1),
}

BAD_POINTS = {
    "nan-coordinate": (EUCLID, [0.5, float("nan"), 0.5, 0.5]),
    "wrong-length": (EUCLID, [0.5, 0.5, 0.5]),
    "real-vector-under-hamming": (HAMMING, [0.0, 1.0, 0.5, 1.0]),
    "bit-value-2": (HAMMING, [0, 1, 2, 1]),
}


@pytest.mark.parametrize("bad", BAD_POINTS)
@pytest.mark.parametrize("entry", QUERY_ENTRY_POINTS)
def test_entry_points_reject_invalid_outside_points(entry, bad):
    metric, q = BAD_POINTS[bad]
    if metric.kind.uses_bits:
        ds = Dataset(np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]], dtype=np.uint8), metric)
    else:
        ds = Dataset(np.array([[0.0, 0.5, 1.0, 0.0], [1.0, 1.0, 0.0, 0.5], [0.5, 0.0, 0.5, 1.0]]), metric)
    with pytest.raises(InvalidInputError):
        QUERY_ENTRY_POINTS[entry](ds, q)


def test_metric_scale_must_be_positive():
    with pytest.raises(InvalidInputError):
        MetricDescriptor(MetricKind.EUCLIDEAN, scale=0.0)


def test_nonpositive_dataset_rejected():
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((0, 2)), EUCLID)
