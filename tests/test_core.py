import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metricdim import core, rng
from metricdim.core import (
    CountingOracle,
    Dataset,
    InvalidInputError,
    MetricKind,
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
from test_diststats import traced_peak

EUCLID = MetricKind.EUCLIDEAN
MANHATTAN = MetricKind.MANHATTAN
CHEBYSHEV = MetricKind.CHEBYSHEV
HAMMING = MetricKind.HAMMING

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
    elements, dtype = (st.integers(0, 1), np.uint8) if metric.uses_bits else (coords, np.float64)
    dim = draw(st.integers(1, 40))
    row = st.lists(elements, min_size=dim, max_size=dim)
    return np.array(draw(row), dtype=dtype), np.array(draw(st.lists(row, min_size=1, max_size=8)), dtype=dtype)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.value)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_equals_scalar_exactly(metric, data):
    q, pts = data.draw(query_and_rows(metric))
    assert distances_to(metric, q, pts).tolist() == [distance(metric, q, p) for p in pts]


def reference_hamming(a, b):
    """Differing bits of each broadcast row pair, counted in plain Python,
    divided by the bit length."""
    a, b = np.broadcast_arrays(a, b)
    d = a.shape[-1]
    rows = zip(a.reshape(-1, d).tolist(), b.reshape(-1, d).tolist())
    return np.array([sum(x != y for x, y in zip(ra, rb)) / d for ra, rb in rows]).reshape(a.shape[:-1])


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
    ds = Dataset(pts, HAMMING)
    rows = ds.kernel_rows
    assert rows.dtype == np.uint64 and rows.shape == (m, -(-d // 64))

    one_to_many = reference_hamming(q, pts).tolist()
    assert pair_distances(HAMMING, q, pts).tolist() == one_to_many
    assert ds.distances(ds.check_query(q), rows).tolist() == one_to_many

    blocks = reference_hamming(pts[:k, None], pts[None]).tolist()
    assert pair_distances(HAMMING, pts[:k, None], pts[None]).tolist() == blocks
    assert ds.distances(rows[:k, None], rows[None]).tolist() == blocks
    # With out=, the first operand is scratch and no NaN in out survives.
    scratch = np.repeat(rows[:k, None], m, axis=1)
    out = np.full(scratch.shape[:-1], np.nan)
    assert core._kernel(HAMMING, scratch, rows[None], d, out=out) is out
    assert out.tolist() == blocks


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
    if metric.uses_bits:
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


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_within_radius_equals_the_kernel_comparison(kind, data):
    a, b, radius = data.draw(radius_blocks(kind))
    expected = pair_distances(kind, a[:, None], b[None]) <= radius
    np.testing.assert_array_equal(within_radius(kind, a, b, radius), expected)


def test_within_radius_decides_exact_ties_on_a_grid():
    # Distances sqrt(k) on the integer grid land exactly on these radii.
    grid = np.array(np.meshgrid(*[np.arange(3.0)] * 3)).reshape(3, -1).T
    for radius in (1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0):
        for shift in (0.0, 1e8):
            pts = grid + shift
            expected = pair_distances(EUCLID, pts[:, None], pts[None]) <= radius
            np.testing.assert_array_equal(within_radius(EUCLID, pts, pts, radius), expected)
            assert (pair_distances(EUCLID, pts[:, None], pts[None]) == radius).any()


# Radii outside the screen's range: every pair goes to the kernel. The
# real rows hold a duplicate and a pair a subnormal step apart.
OUT_OF_RANGE_RADII = {"zero": 0.0, "subnormal": 5e-324, "huge": 1e300, "infinite": math.inf}
OUT_OF_RANGE_ROWS = {
    "real": np.array([[0.0, 0.0], [0.0, 0.0], [5e-324, 0.0], [1.0, 1.0], [3.0, -4.0]]),
    "bits": np.array([[0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, 1]], np.uint8),
}


@pytest.mark.parametrize("radius", OUT_OF_RANGE_RADII)
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
def test_within_radius_outside_the_screen_range_equals_the_kernel_comparison(kind, radius):
    rows = OUT_OF_RANGE_ROWS["bits" if kind.uses_bits else "real"]
    t = OUT_OF_RANGE_RADII[radius]
    a, b = rows[:3], rows[1:]
    expected = pair_distances(kind, a[:, None], b[None]) <= t
    assert expected.any() and (expected.all() == (t >= 1.0))
    np.testing.assert_array_equal(within_radius(kind, a, b, t), expected)


def screen_widths(kind):
    """Row widths for the ball screen's tests. Bit rows also take one,
    two and eight packed words, with a ragged or a full last word."""
    widths = st.integers(1, 20)
    return st.one_of(widths, st.sampled_from([63, 64, 65, 127, 128, 129, 512])) if kind.uses_bits else widths


def test_screen_counts_every_bit_of_rows_wider_than_float32_counts():
    # Past 2**24 not every bit count is a float32 value: 2**24 + 3 and
    # 2**24 + 5 are not. Rows 0 and 1 differ in 3 bits, the radius; rows 0
    # and 2 in d - 1 bits, the diameter.
    d = 2**24 + 6
    rows = np.ones((3, d), dtype=np.uint8)
    rows[1, :3] = 0
    rows[2, 1:] = 0
    kernel = pair_distances(HAMMING, rows[:, None], rows[None])
    radius = float(kernel[0, 1])
    assert radius == 3 / d
    np.testing.assert_array_equal(within_radius(HAMMING, rows, rows, radius), kernel <= radius)
    assert diameter_upper_bound(Dataset(rows, HAMMING)) == kernel.max() == (d - 1) / d
    assert core.all_pair_distances(HAMMING, rows).tolist() == kernel[np.triu_indices(3, 1)].tolist()


# Layouts for the prepared screen: "offset" needs the centring, "scaled"
# lies far inside the unit box, and "far-centre" moves row 0 away from the
# rest, so an operand that holds it has a large reach, wherever it is
# centred.
SCREEN_LAYOUTS = {
    "offset": lambda g, shape: 1e8 + g.random(shape),
    "scaled": lambda g, shape: 1e-3 * g.standard_normal(shape),
    "far-centre": lambda g, shape: g.random(shape) + 1e4 * (np.arange(shape[0]) == 0)[:, None],
}


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_prepared_screen_equals_the_kernel_comparison(kind, data):
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, dim = data.draw(st.integers(2, 40)), data.draw(screen_widths(kind))
    if kind.uses_bits:
        rows = g.integers(0, 2, (n, dim)).astype(np.uint8)
    else:
        rows = SCREEN_LAYOUTS[data.draw(st.sampled_from(sorted(SCREEN_LAYOUTS)))](g, (n, dim))
    # Index blocks in any order, with repeats, often without row 0.
    low = data.draw(st.sampled_from([0, 1]))
    ia, ib = (np.array(data.draw(st.lists(st.integers(low, n - 1), min_size=1, max_size=30))) for _ in range(2))
    # One operand holds ia then ib, centred on rows[ia[0]]; the block is ia
    # against ib, or against the whole operand, as in a greedy cover.
    held = np.concatenate([ia, ib])
    start = data.draw(st.sampled_from([0, len(ia)]))
    values = pair_distances(kind, rows[ia][:, None], rows[held[start:]][None])
    on = float(values.ravel()[data.draw(st.integers(0, values.size - 1))])
    near = st.sampled_from([on, np.nextafter(on, 0.0), np.nextafter(on, np.inf)])
    # 0 and a subnormal radius lie below the screen's range.
    radius = float(data.draw(st.one_of(near, near, st.sampled_from([0.0, 5e-324, 1e-3, 1.0, math.inf]))))
    screen = core._BallScreen(kind, core._kernel_form(kind, rows), dim)
    operand, reach = screen.ball_operand(held)
    flat = screen.members(held, np.arange(len(ia)), operand, reach, radius, np.empty(values.shape), start)
    assert (np.diff(flat) > 0).all()
    got = np.zeros(values.shape, dtype=bool)
    got.ravel()[flat] = True
    np.testing.assert_array_equal(got, values <= radius)


# "huge" would overflow the kernel's own squares.
PAIR_LAYOUTS = {**{k: v for k, v in REAL_LAYOUTS.items() if k != "huge"}, **SCREEN_LAYOUTS}


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_all_pair_distances_match_the_kernel_pair_by_pair(kind, data):
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Above about 260 rows the pairs take more than one row band.
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(250, 400)))
    dim = data.draw(screen_widths(kind))
    if kind.uses_bits:
        pool = g.integers(0, 2, (data.draw(st.sampled_from([3, n])), dim)).astype(np.uint8)
        points = pool[g.integers(0, pool.shape[0], n)]
    else:
        points = PAIR_LAYOUTS[data.draw(st.sampled_from(sorted(PAIR_LAYOUTS)))](g, (n, dim))
    # Every pair (i, j > i), in that order.
    ii = np.repeat(np.arange(n), np.arange(n - 1, -1, -1))
    jj = np.concatenate([np.arange(i + 1, n) for i in range(n)])
    expected = pair_distances(kind, points[ii], points[jj])
    got = core.all_pair_distances(kind, points)
    assert got.dtype == np.float64 and got.shape == expected.shape
    if kind is MetricKind.EUCLIDEAN:
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)
    else:
        np.testing.assert_array_equal(got, expected)


def concatenated_band_triangles(kind, points):
    """The pairs of ``all_pair_distances`` as the band triangles collected
    in a list and joined at the end: the reference for the preallocated
    output."""
    screen = core._BallScreen(kind, core._kernel_form(kind, points), points.shape[1])
    out = [np.empty(0)]
    for ia, ib, values, band in screen._bands():
        upper = ib > ia[:, None]
        if band is not None:
            ii, jj, measured = screen._remeasure(ia, ib, upper & (values < band / 2e-9))
            np.sqrt(np.maximum(values, 0.0, out=values), out=values)
            values[ii, jj] = measured
        out.append(values[upper])
    return np.concatenate(out)


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
def test_all_pair_distances_equal_the_joined_band_triangles(kind, n):
    g = np.random.default_rng(n)
    points = g.integers(0, 2, (n, 70)).astype(np.uint8) if kind.uses_bits else 1e8 + g.standard_normal((n, 5))
    got = core.all_pair_distances(kind, points)
    assert got.dtype == np.float64 and got.shape == (n * (n - 1) // 2,)
    assert got.tobytes() == concatenated_band_triangles(kind, points).tobytes()


def test_pair_engine_reads_integer_rows_as_reals():
    ints = np.array([[0, 0], [3, 4], [1, 1]])
    for metric in REAL_METRICS:
        assert core.all_pair_distances(metric, ints).tolist() == core.all_pair_distances(metric, ints * 1.0).tolist()
    assert within_radius(EUCLID, ints, ints, 2.0).tolist() == within_radius(EUCLID, ints * 1.0, ints * 1.0, 2.0).tolist()


class TestCountingOracle:
    def test_single_call(self):
        oracle = CountingOracle(EUCLID)
        oracle.add()
        assert oracle.count == 1

    def test_k_calls(self):
        oracle = CountingOracle(EUCLID)
        for _ in range(7):
            oracle.add()
        assert oracle.count == 7
        oracle.reset()
        assert oracle.count == 0

    def test_batch_counts_rows(self):
        oracle = CountingOracle(EUCLID)
        oracle.add(5)
        assert oracle.count == 5

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
    """The diameter bound scanned row by row."""
    n = points.shape[0]
    if n <= core.EXACT_DIAMETER_LIMIT:
        return max(float(pair_distances(metric, points[i], points[i + 1 :]).max()) for i in range(n - 1))
    bound = 2.0 * float(pair_distances(metric, points[0], points).max())
    return min(bound, 1.0) if metric.uses_bits else bound


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
    ds = Dataset(points, kind)
    assert core._diameter(ds) == scanned_bound(points, ds.metric)


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
    assert core._diameter(Dataset(points, EUCLID)) == scanned_bound(points, EUCLID)


@pytest.mark.parametrize("limit", [core.EXACT_DIAMETER_LIMIT, 5], ids=["exact", "triangle"])
@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cached_bound_and_nearest_distances_equal_a_fresh_scan(kind, limit, data):
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (data.draw(st.integers(2, 40)), data.draw(st.integers(1, 12)))
    if kind.uses_bits:
        pts = g.integers(0, 2, shape).astype(np.uint8)
    else:
        # "huge" would overflow the Euclidean squares.
        pts = REAL_LAYOUTS[data.draw(st.sampled_from(sorted(set(REAL_LAYOUTS) - {"huge"})))](g, shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "EXACT_DIAMETER_LIMIT", limit)
        ds = Dataset(pts, kind)
        assert diameter_upper_bound(ds) == scanned_bound(ds.points, ds.metric)
        assert core._extremes(ds)[1].tolist() == per_row_minimum(ds)


# fig-a's reading: all pairs divided by the diameter bound. Rows scaled by
# 2**-k give the bound and every distance scaled by 2**-k exactly, so the
# quotients keep their bits (the Gram products and the band scale too).
@pytest.mark.parametrize("kind", [MetricKind.EUCLIDEAN, MetricKind.MANHATTAN, MetricKind.CHEBYSHEV], ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_all_pairs_over_the_bound_keep_their_bits_under_power_of_two_scaling(kind, data):
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, dim = data.draw(st.one_of(st.integers(2, 12), st.integers(250, 300))), data.draw(st.integers(1, 12))
    # "tiny" lies below the screen's range, which a shift could move it into.
    points = PAIR_LAYOUTS[data.draw(st.sampled_from(sorted(set(PAIR_LAYOUTS) - {"tiny"})))](g, (n, dim))
    k = data.draw(st.integers(-100, 100))
    ds, shifted = Dataset(points, kind), Dataset(np.ldexp(points, -k), kind)
    bound = diameter_upper_bound(ds)
    assert diameter_upper_bound(shifted) == math.ldexp(bound, -k)
    assert core._extremes(shifted)[1].tolist() == np.ldexp(core._extremes(ds)[1], -k).tolist()
    # As fig-a does, a zero bound divides nothing.
    normalized = core.all_pair_distances(kind, points) / (bound or 1.0)
    quotients = core.all_pair_distances(kind, shifted.points) / (math.ldexp(bound, -k) or 1.0)
    assert quotients.tobytes() == normalized.tobytes()


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


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_nearest_distances_equal_the_per_row_kernel_minimum(kind, data):
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Above about 260 rows the pairs take more than one row band; a small
    # band budget splits any row set into many.
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(250, 400)))
    dim = data.draw(screen_widths(kind))
    if kind.uses_bits:
        pool = g.integers(0, 2, (data.draw(st.sampled_from([3, n])), dim)).astype(np.uint8)
        points = pool[g.integers(0, pool.shape[0], n)]
    else:
        points = NEAREST_LAYOUTS[data.draw(st.sampled_from(sorted(NEAREST_LAYOUTS)))](g, (n, dim))
    ds = Dataset(points, kind)
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(core, "_SCAN_BYTES", 3000)
        got = core._extremes(ds)[1]
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


# Subnormals, the extremes of the double range and both zeros.
EDGE_FLOATS = [5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, -0.0, 0.0]

# Files that numpy's C parser refuses or misreads, each with the rows the
# per-row parse gives or its refusal.
PER_ROW_FILES = {
    "underscore": ("1_000 2\n3 4\n", [[1000.0, 2.0], [3.0, 4.0]]),
    "arabic-indic-digit": ("١ 2\n", [[1.0, 2.0]]),
    "inline-comment": ("1 2 # x\n", "line 1: not a numeric row: could not convert string to float: '#'"),
    "commas-alone": ("1 2\n,\n3 4\n", "line 2: row has 0 coordinates, expected 2"),
    "overflow": ("1 2\n1e309 0\n", "line 2: coordinates must be finite"),
    "nan": ("nan 2\n", "line 1: coordinates must be finite"),
    "ragged": ("1 2\n3\n", "line 2: row has 1 coordinates, expected 2"),
}


def per_row_load(path, metric=EUCLID):
    """``load_dataset`` with numpy's C parser refusing every file."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_parse_real_lines", lambda lines: None)
        return load_dataset(path, metric)


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

    @pytest.mark.parametrize("width", [1, 7, 64, 513])
    def test_bit_rows_render_as_their_characters(self, width):
        rows = (rng.matrix_uniform01(5, 40, width) < 0.5).astype(np.uint8)
        rows[0] = 0
        rows[1] = 1
        expected = "".join("".join("1" if b else "0" for b in row) + "\n" for row in rows)
        assert format_points(Dataset(rows, HAMMING)) == expected

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

    @given(data=st.data(), width=st.integers(1, 5), n=st.integers(1, 8))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_c_parser_reads_what_the_per_row_parse_reads(self, data, width, n, tmp_path):
        floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
        forms = st.sampled_from([repr, "%e".__mod__, "%g".__mod__, "%.17g".__mod__])
        separators = st.sampled_from([" ", ",", "\t", ", ", " ,\t", ",,"])
        lines = []
        for _ in range(n):
            fields = [data.draw(forms)(data.draw(floats)) for _ in range(width)]
            fields = ["+" + f if data.draw(st.booleans()) and not f.startswith("-") else f for f in fields]
            row = fields[0] + "".join(data.draw(separators) + f for f in fields[1:])
            lines += data.draw(st.lists(st.sampled_from(["", "  ", "# x y", "  # 1 2"]), max_size=2))
            lines.append(data.draw(st.sampled_from(["", " ", "\t"])) + row + data.draw(st.sampled_from(["", " ", ","])))
        path = tmp_path / "pts.txt"
        path.write_bytes(data.draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode())
        data_lines = [line.strip() for line in path.read_text().splitlines() if line.strip()[:1] not in ("", "#")]
        assert core._parse_real_lines(data_lines) is not None  # no file here takes the fallback
        assert load_dataset(path, EUCLID).points.tobytes() == per_row_load(path).points.tobytes()

    @pytest.mark.parametrize("text, expected", PER_ROW_FILES.values(), ids=PER_ROW_FILES)
    def test_files_the_c_parser_refuses_take_the_per_row_parse(self, text, expected, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text(text)
        if isinstance(expected, str):
            for load in (load_dataset, per_row_load):
                with pytest.raises(InvalidInputError, match=f"^{expected}$"):
                    load(path, EUCLID)
        else:
            assert load_dataset(path, EUCLID).points.tolist() == per_row_load(path).points.tolist() == expected
        assert core._parse_real_lines(text.splitlines()) is None

    def test_real_bit_values_that_truncate_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[0.5, 1.0], [1.0, 0.0]]), HAMMING)

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[0, -1], [1, 0]], np.int8),
            np.array([[256, 1], [1, 0]], np.uint16),
            np.array([[0, 2], [1, 0]], np.int64),
            np.array([[0.5, 1.0], [1.0, 0.0]]),
        ],
        ids=["int8-minus-1", "uint16-256", "int64-2", "float-0.5"],
    )
    def test_bit_rows_outside_0_and_1_rejected(self, rows):
        with pytest.raises(InvalidInputError, match="may only contain 0 and 1"):
            Dataset(rows, HAMMING)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_integer_and_bool_bit_rows_checked_without_full_size_temporaries(self, dtype):
        # The check reads the least and greatest value; only the uint8 copy
        # is as large as the rows.
        rows = (np.arange(5000 * 512).reshape(5000, 512) % 3 == 1).astype(dtype)
        peak = traced_peak(lambda: core._check_rows(HAMMING, rows, "bit rows"))
        assert peak <= rows.size + 2**16
        assert core._check_rows(HAMMING, rows, "bit rows").tobytes() == rows.astype(np.uint8).tobytes()

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

    def test_packed_words_are_read_only(self):
        ds = Dataset(np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8), HAMMING)
        # np.packbits order (first bit highest), zero-padded to one 8-byte word
        assert ds.kernel_rows.view(np.uint8).tolist() == [[0b01100000] + [0] * 7, [0b10000000] + [0] * 7]
        with pytest.raises(ValueError):
            ds.kernel_rows[0, 0] = 0


# Every public entry point that takes an outside point validates it once,
# at entry; the kernel behind it validates nothing.
QUERY_ENTRY_POINTS = {
    "distance": lambda ds, q: distance(ds.metric, q, ds.points[0]),
    "distances_to": lambda ds, q: distances_to(ds.metric, q, ds.points),
    "check_query": lambda ds, q: ds.check_query(q),
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
    if metric.uses_bits:
        ds = Dataset(np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]], dtype=np.uint8), metric)
    else:
        ds = Dataset(np.array([[0.0, 0.5, 1.0, 0.0], [1.0, 1.0, 0.0, 0.5], [0.5, 0.0, 0.5, 1.0]]), metric)
    with pytest.raises(InvalidInputError):
        QUERY_ENTRY_POINTS[entry](ds, q)


# A point matrix from outside the program is held to the same row rule as
# a Dataset's points.
BAD_POINT_MATRICES = {
    "bit-value-2": (HAMMING, [0, 1], np.array([[0, 2], [0, 1]], np.uint8)),
    "nan-row": (EUCLID, [0.0, 0.0], np.array([[0.0, float("nan")], [1.0, 1.0]])),
    "bit-matrix-under-euclidean": (EUCLID, [0.0, 0.0], np.array([[0, 1], [1, 0]], np.uint8)),
    "real-values-under-hamming": (HAMMING, [0, 1], np.array([[0.0, 0.5], [1.0, 1.0]])),
}
MATRIX_ENTRY_POINTS = {
    "Dataset": lambda metric, q, points: Dataset(points, metric),
    "distances_to": distances_to,
}


@pytest.mark.parametrize("bad", BAD_POINT_MATRICES)
@pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
def test_entry_points_reject_invalid_point_matrices(entry, bad):
    metric, q, points = BAD_POINT_MATRICES[bad]
    with pytest.raises(InvalidInputError):
        MATRIX_ENTRY_POINTS[entry](metric, q, points)


def test_distances_to_reads_a_real_typed_bit_matrix_as_its_bits():
    bits = np.array([[0, 1, 1], [1, 1, 0]], np.uint8)
    expected = distances_to(HAMMING, [0, 1, 0], bits)
    assert distances_to(HAMMING, [0, 1, 0], bits.astype(np.float64)).tolist() == expected.tolist() == [1 / 3, 1 / 3]


# Each public entry point that takes a metric refuses anything but a
# MetricKind, here its value string, with a message naming both types.
METRIC_ENTRY_POINTS = {
    "Dataset": lambda metric, path: Dataset(np.eye(2), metric),
    "load_dataset": lambda metric, path: load_dataset(path, metric),
    "distance": lambda metric, path: distance(metric, [0.0], [1.0]),
    "distances_to": lambda metric, path: distances_to(metric, [0.0], np.eye(1)),
    "pair_distances": lambda metric, path: pair_distances(metric, np.eye(2), np.eye(2)),
    "within_radius": lambda metric, path: within_radius(metric, np.eye(2), np.eye(2), 0.5),
    "all_pair_distances": lambda metric, path: core.all_pair_distances(metric, np.eye(2)),
}


@pytest.mark.parametrize("entry", METRIC_ENTRY_POINTS)
def test_entry_points_refuse_a_metric_that_is_not_a_metric_kind(entry, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1.0 0.0\n0.0 1.0\n")
    with pytest.raises(InvalidInputError, match="must be a MetricKind, got str"):
        METRIC_ENTRY_POINTS[entry]("euclidean", path)


def test_nonpositive_dataset_rejected():
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((0, 2)), EUCLID)
