import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim import core
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
    pair_distances,
    within_radius,
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


def reference_hamming(a, b, scale):
    """Differing bits of each broadcast row pair, counted in plain Python,
    divided by the bit length and then by the scale."""
    a, b = np.broadcast_arrays(a, b)
    d = a.shape[-1]
    rows = zip(a.reshape(-1, d).tolist(), b.reshape(-1, d).tolist())
    return np.array([sum(x != y for x, y in zip(ra, rb)) / d / scale for ra, rb in rows]).reshape(a.shape[:-1])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_packed_hamming_kernel_counts_every_bit(data):
    # Widths 1-200 give every remainder mod 8 (bytes) and mod 64 (words);
    # densities 0 and 1 fill whole words and leave only the padding clear.
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d, m, k = data.draw(st.integers(1, 200)), data.draw(st.integers(1, 30)), data.draw(st.integers(1, 6))
    density = data.draw(st.sampled_from([0.0, 0.5, 1.0, float(g.random())]))
    pts = (g.random((m, d)) < density).astype(np.uint8)
    q = g.integers(0, 2, d).astype(np.uint8)
    scale = data.draw(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    metric = MetricDescriptor(MetricKind.HAMMING, scale)
    ds = Dataset(pts, metric)
    rows = ds.kernel_rows
    assert rows.dtype == np.uint64 and rows.shape == (m, -(-d // 64))

    one_to_many = reference_hamming(q, pts, scale).tolist()
    assert pair_distances(metric, q, pts).tolist() == one_to_many
    assert ds.distances(ds.check_query(q), rows).tolist() == one_to_many

    blocks = reference_hamming(pts[:k, None], pts[None], scale).tolist()
    assert pair_distances(metric, pts[:k, None], pts[None]).tolist() == blocks
    assert ds.distances(rows[:k, None], rows[None]).tolist() == blocks
    rescaled = Dataset(pts, HAMMING).rescaled(scale)
    assert rescaled.distances(rows[:k, None], rows[None]).tolist() == blocks


# Row layouts for the ball predicate: "offset" needs the centring, "huge"
# overflows squares (every pair goes to the kernel), "tiny" lies below the
# screen's range, "grid" puts distances exactly on radii like sqrt(2), and
# "pool" repeats rows.
REAL_LAYOUTS = {
    "random": lambda g, shape: g.standard_normal(shape) * 10.0 ** g.integers(-3, 4),
    "offset": lambda g, shape: 1e8 + g.random(shape),
    "huge": lambda g, shape: g.standard_normal(shape) * 1e300,
    "tiny": lambda g, shape: g.standard_normal(shape) * 1e-200,
    "grid": lambda g, shape: g.integers(0, 3, shape).astype(np.float64),
    "pool": lambda g, shape: g.standard_normal((3, shape[1]))[g.integers(0, 3, shape[0])],
}


@st.composite
def radius_blocks(draw, metric):
    """Two row blocks and a radius on, next to, or far from one of their distances."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 20))
    rows = draw(st.integers(1, 6)) + draw(st.integers(1, 40))
    if metric.kind.uses_bits:
        pool = g.integers(0, 2, (draw(st.sampled_from([3, rows])), dim)).astype(np.uint8)
        pts = pool[g.integers(0, pool.shape[0], rows)]
    else:
        pts = REAL_LAYOUTS[draw(st.sampled_from(sorted(REAL_LAYOUTS)))](g, (rows, dim))
    split = draw(st.integers(1, rows - 1))
    a, b = pts[:split], pts[split:]
    values = pair_distances(metric, a[:, None], b[None]).ravel()
    on = float(values[draw(st.integers(0, values.size - 1))])
    near = st.sampled_from([on, np.nextafter(on, 0.0), np.nextafter(on, np.inf)])
    fixed = st.sampled_from([1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0, math.inf])
    return a, b, float(draw(st.one_of(near, near, fixed)))


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_within_radius_equals_the_kernel_comparison(kind, scale, data):
    metric = MetricDescriptor(kind, scale)
    a, b, radius = data.draw(radius_blocks(metric))
    expected = pair_distances(metric, a[:, None], b[None]) <= radius
    np.testing.assert_array_equal(within_radius(metric, a, b, radius), expected)


def test_within_radius_decides_exact_ties_on_a_grid():
    # Distances sqrt(k) on the integer grid land exactly on these radii.
    grid = np.array(np.meshgrid(*[np.arange(3.0)] * 3)).reshape(3, -1).T
    for radius in (1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0):
        for shift in (0.0, 1e8):
            pts = grid + shift
            expected = pair_distances(EUCLID, pts[:, None], pts[None]) <= radius
            np.testing.assert_array_equal(within_radius(EUCLID, pts, pts, radius), expected)
            assert (pair_distances(EUCLID, pts[:, None], pts[None]) == radius).any()


# Layouts for the prepared screen: "offset" needs the centring, "scaled"
# lies far inside the unit box, and "far-centre" moves the centre row
# (row 0) away from the rest, so blocks without it have a large reach.
SCREEN_LAYOUTS = {
    "offset": lambda g, shape: 1e8 + g.random(shape),
    "scaled": lambda g, shape: 1e-3 * g.standard_normal(shape),
    "far-centre": lambda g, shape: g.random(shape) + 1e4 * (np.arange(shape[0]) == 0)[:, None],
}


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_prepared_screen_equals_the_kernel_comparison(kind, scale, data):
    metric = MetricDescriptor(kind, scale)
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, dim = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 20))
    if kind.uses_bits:
        rows = g.integers(0, 2, (n, dim)).astype(np.uint8)
    else:
        rows = SCREEN_LAYOUTS[data.draw(st.sampled_from(sorted(SCREEN_LAYOUTS)))](g, (n, dim))
    # Index blocks in any order, with repeats, often without the centre row 0.
    low = data.draw(st.sampled_from([0, 1]))
    ia, ib = (np.array(data.draw(st.lists(st.integers(low, n - 1), min_size=1, max_size=30))) for _ in range(2))
    values = pair_distances(metric, rows[ia][:, None], rows[ib][None])
    on = float(values.ravel()[data.draw(st.integers(0, values.size - 1))])
    near = st.sampled_from([on, np.nextafter(on, 0.0), np.nextafter(on, np.inf)])
    radius = float(data.draw(st.one_of(near, near, st.sampled_from([1e-3, 1.0, math.inf]))))
    got = core._BallScreen(metric, rows).within(ia, ib, radius)
    np.testing.assert_array_equal(got, values <= radius)


# "huge" would overflow the kernel's own squares.
PAIR_LAYOUTS = {**{k: v for k, v in REAL_LAYOUTS.items() if k != "huge"}, **SCREEN_LAYOUTS}


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_all_pair_distances_match_the_kernel_pair_by_pair(kind, scale, data):
    metric = MetricDescriptor(kind, scale)
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Above about 260 rows the pairs take more than one row band.
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(250, 400)))
    dim = data.draw(st.integers(1, 20))
    if kind.uses_bits:
        pool = g.integers(0, 2, (data.draw(st.sampled_from([3, n])), dim)).astype(np.uint8)
        points = pool[g.integers(0, pool.shape[0], n)]
    else:
        points = PAIR_LAYOUTS[data.draw(st.sampled_from(sorted(PAIR_LAYOUTS)))](g, (n, dim))
    # Every pair (i, j > i), in that order.
    ii = np.repeat(np.arange(n), np.arange(n - 1, -1, -1))
    jj = np.concatenate([np.arange(i + 1, n) for i in range(n)])
    expected = pair_distances(metric, points[ii], points[jj])
    got = core.all_pair_distances(metric, points)
    assert got.dtype == np.float64 and got.shape == expected.shape
    if kind is MetricKind.EUCLIDEAN:
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)
    else:
        np.testing.assert_array_equal(got, expected)


def test_pair_engine_reads_integer_rows_as_reals():
    ints = np.array([[0, 0], [3, 4], [1, 1]])
    for metric in REAL_METRICS:
        assert core.all_pair_distances(metric, ints).tolist() == core.all_pair_distances(metric, ints * 1.0).tolist()
    assert within_radius(EUCLID, ints, ints, 2.0).tolist() == within_radius(EUCLID, ints * 1.0, ints * 1.0, 2.0).tolist()


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


def scanned_bound(points, metric):
    """The diameter bound scanned at the metric's own scale, row by row."""
    n = points.shape[0]
    if n <= core.EXACT_DIAMETER_LIMIT:
        return max(float(pair_distances(metric, points[i], points[i + 1 :]).max()) for i in range(n - 1))
    bound = 2.0 * float(pair_distances(metric, points[0], points).max())
    return min(bound, 1.0 / metric.scale) if metric.kind.uses_bits else bound


REAL_SCANS = [
    (MetricKind.EUCLIDEAN, 1),
    (MetricKind.MANHATTAN, 1),
    (MetricKind.CHEBYSHEV, 1),
    (MetricKind.EUCLIDEAN, 7),
]
# Beside rows scaled one by one, layouts with many tied and cancelling
# maxima: "offset" (the centring), "grid" and "pool" (exact ties).
TIE_LAYOUTS = ("offset", "grid", "pool")


@pytest.mark.parametrize("scan_bytes", [None, 3000], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize(
    "kind, dim, layout",
    [pytest.param(k, d, None, id=f"{k.value}-{d}") for k, d in REAL_SCANS]
    + [pytest.param(MetricKind.HAMMING, w, None, id=f"hamming-{w}") for w in (1, 63, 64, 65)]
    + [pytest.param(k, d, lay, id=f"{k.value}-{d}-{lay}") for k, d in REAL_SCANS for lay in TIE_LAYOUTS],
)
# 300 rows take two row bands at the default budget.
@pytest.mark.parametrize("n", [2, 3, 300, 2048])
def test_blocked_diameter_scan_equals_the_row_loop(n, kind, dim, layout, scan_bytes, monkeypatch):
    if scan_bytes is not None:
        monkeypatch.setattr(core, "_SCAN_BYTES", scan_bytes)
    g = np.random.default_rng(n * 100 + dim)
    if kind.uses_bits:
        points = g.integers(0, 2, (n, dim)).astype(np.uint8)
    elif layout is not None:
        points = REAL_LAYOUTS[layout](g, (n, dim))
    else:
        points = g.standard_normal((n, dim)) * 10.0 ** g.integers(-3, 4, (n, 1))
    ds = Dataset(points, MetricDescriptor(kind))
    assert core._raw_diameter(ds) == scanned_bound(points, ds.metric)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_exact_diameter_of_near_tied_maxima_equals_the_row_loop(data):
    # Unit rows and their negatives: many pairs at distance 2 up to rounding,
    # where the largest Gram value need not belong to the kernel's maximum.
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, dim = data.draw(st.integers(2, 300)), data.draw(st.integers(2, 8))
    u = g.standard_normal((-(-n // 2), dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    points = np.concatenate([u, -u])[g.permutation(2 * len(u))[:n]] + data.draw(st.sampled_from([0.0, 1e3]))
    assert core._raw_diameter(Dataset(points, EUCLID)) == scanned_bound(points, EUCLID)


@pytest.mark.parametrize("limit", [core.EXACT_DIAMETER_LIMIT, 5], ids=["exact", "triangle"])
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rescaled_bound_equals_a_fresh_scan(kind, limit, data):
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (data.draw(st.integers(2, 40)), data.draw(st.integers(1, 12)))
    if kind.uses_bits:
        pts = g.integers(0, 2, shape).astype(np.uint8)
    else:
        # "huge" would overflow the Euclidean squares.
        pts = REAL_LAYOUTS[data.draw(st.sampled_from(sorted(set(REAL_LAYOUTS) - {"huge"})))](g, shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "EXACT_DIAMETER_LIMIT", limit)
        ds = Dataset(pts, MetricDescriptor(kind))
        normalizing = diameter_upper_bound(ds) or 1.0
        scale = data.draw(
            st.one_of(
                st.just(1.0),
                st.just(normalizing),
                st.integers(-20, 20).map(lambda e: 2.0**e),
                st.floats(1e-3, 1e3),
            )
        )
        rescaled = ds.rescaled(scale)
        fresh = Dataset(pts, MetricDescriptor(kind, scale))
        expected = scanned_bound(fresh.points, fresh.metric)
        assert rescaled.points is ds.points
        assert diameter_upper_bound(rescaled) == expected
        assert diameter_upper_bound(fresh) == expected
        nearest = core._extremes(rescaled)[1] / scale
        assert nearest.tobytes() == (core._extremes(fresh)[1] / scale).tobytes()
        assert nearest.tolist() == per_row_minimum(fresh)


def per_row_minimum(ds):
    """Each row's kernel distance to its nearest other row, one row at a time."""
    others = (np.delete(ds.points, i, axis=0) for i in range(ds.n))
    return [float(pair_distances(ds.metric, row, rest).min(initial=np.inf)) for row, rest in zip(ds.points, others)]


def unit_ring(g, shape):
    """Unit rows at equal angles on a randomly placed circle: each row's two
    neighbours are at the same distance up to rounding."""
    n, dim = shape
    angles = 2.0 * np.pi * np.arange(n) / n + g.random()
    plane = np.linalg.qr(g.standard_normal((max(dim, 2), 2)))[0][:dim].T
    return np.stack([np.cos(angles), np.sin(angles)], axis=1) @ plane


def unit_star(g, shape):
    """Row 1 is a centre, every other row lies on a random unit direction
    from it: at distance 1 (odd rows) or 1.001 (even rows, one per odd row's
    direction). The centre's neighbours tie up to rounding, and each of them
    has a nearer neighbour, its partner on the same direction."""
    n, dim = shape
    u = g.standard_normal((-(-n // 2), dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    centre = g.standard_normal(dim)
    rows = centre + np.repeat(u, 2, axis=0)[:n] * np.where(np.arange(n) % 2 == 0, 1.001, 1.0)[:, None]
    rows[min(1, n - 1)] = centre
    return rows


# "grid" ties nearest neighbours exactly, "pool" repeats rows (distance 0),
# and "ring" and "star" tie them up to rounding. The star's centre meets its
# neighbours as a band row; reversed, it meets them as a band column.
NEAREST_LAYOUTS = {
    **{k: REAL_LAYOUTS[k] for k in ("random", "offset", "grid", "pool")},
    "ring": unit_ring,
    "star": unit_star,
    "star-reversed": lambda g, shape: unit_star(g, shape)[::-1],
}


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_nearest_distances_equal_the_per_row_kernel_minimum(kind, scale, data):
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Above about 260 rows the pairs take more than one row band; a small
    # band budget splits any row set into many.
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(250, 400)))
    dim = data.draw(st.integers(1, 20))
    if kind.uses_bits:
        pool = g.integers(0, 2, (data.draw(st.sampled_from([3, n])), dim)).astype(np.uint8)
        points = pool[g.integers(0, pool.shape[0], n)]
    else:
        points = NEAREST_LAYOUTS[data.draw(st.sampled_from(sorted(NEAREST_LAYOUTS)))](g, (n, dim))
    ds = Dataset(points, MetricDescriptor(kind, scale))
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(core, "_SCAN_BYTES", 3000)
        got = core._extremes(ds)[1] / ds.metric.scale
    assert got.dtype == np.float64
    assert got.tolist() == per_row_minimum(ds)


@pytest.mark.parametrize("reverse", [False, True], ids=["centre-as-row", "centre-as-column"])
def test_nearest_distances_of_near_tied_stars(reverse, monkeypatch):
    # Bands of a few rows, so the centre meets most of its neighbours only
    # in its own band row (or, reversed, only as a band column). Many stars:
    # in any one of them the rounding seldom puts the smallest Gram value on
    # a pair other than the kernel's nearest.
    monkeypatch.setattr(core, "_SCAN_BYTES", 3000)
    for seed in range(200):
        g = np.random.default_rng(seed)
        points = unit_star(g, (int(g.integers(3, 40)), int(g.integers(2, 8))))
        ds = Dataset(points[::-1] if reverse else points, EUCLID)
        assert core._extremes(ds)[1].tolist() == per_row_minimum(ds)


def test_nearest_distance_of_a_lone_row_is_infinite():
    assert core._extremes(Dataset(np.array([[0.5, 2.0]]), EUCLID))[1].tolist() == [math.inf]


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

    def test_parse_errors_name_the_first_bad_line_and_its_reason(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n1.0 inf\n1.0 oops\n")
        with pytest.raises(InvalidInputError, match="^line 2: coordinates must be finite$"):
            load_dataset(path, EUCLID)
        path.write_text("1.0 2.0\n1.0 oops\n1.0 inf\n")
        message = "line 2: not a numeric row: could not convert string to float: 'oops'"
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
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

    def test_bit_values_that_wrap_rejected(self):
        # a cast to uint8 first would make both rows [0, 1]
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[256, 1], [0, 1]]), HAMMING)

    def test_real_bit_values_that_truncate_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[0.5, 1.0], [1.0, 0.0]]), HAMMING)

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_real_and_bool_bits_accepted(self, dtype):
        ds = Dataset(np.array([[0, 1], [1, 0]], dtype=dtype), HAMMING)
        assert ds.points.dtype == np.uint8
        assert ds.points.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize(
        "metric, rows", [(HAMMING, np.array([[0, 1], [1, 0]], dtype=np.uint8)), (EUCLID, np.eye(2))], ids=["bits", "reals"]
    )
    def test_dataset_copies_the_callers_array(self, metric, rows):
        before = rows.tolist()
        ds = Dataset(rows, metric)
        assert rows.flags.writeable
        rows[0, 0] = 1 - rows[0, 0]
        assert ds.points.tolist() == before

    def test_dataset_points_read_only(self):
        ds = Dataset(np.array([[1.0]]), EUCLID)
        with pytest.raises(ValueError):
            ds.points[0, 0] = 2.0

    def test_rescaled_copy_shares_the_read_only_packed_words(self):
        ds = Dataset(np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8), HAMMING)
        # np.packbits order (first bit highest), zero-padded to one 8-byte word
        assert ds.kernel_rows.view(np.uint8).tolist() == [[0b01100000] + [0] * 7, [0b10000000] + [0] * 7]
        assert ds.rescaled(0.25).kernel_rows is ds.kernel_rows
        with pytest.raises(ValueError):
            ds.kernel_rows[0, 0] = 0


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
    # a cast to uint8 before the check would read these as valid bits
    "bit-value-256": (HAMMING, [256, 1, 0, 1]),
    "bit-value-257": (HAMMING, [257, 0, 0, 1]),
    "bit-value-minus-255": (HAMMING, [-255, 1, 0, 1]),
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
