import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim import core, diststats
from metricdim.core import (
    DEGENERATE,
    Dataset,
    InvalidInputError,
    MetricKind,
    distance,
    pair_distances,
)
from metricdim.diststats import (
    ALL_PAIRS,
    DistanceSample,
    MomentSummary,
    SampledPairs,
    boxplot_summary,
    cnbym_dimension,
    default_mode,
    moments,
    nn_statistics,
    pair_moments,
    pairwise_distances,
)
from metricdim.generate import Family, GeneratorSpec, generate
from metricdim import rng

EUCLID = MetricKind.EUCLIDEAN


def line_dataset(xs, seed=None):
    return Dataset(np.asarray(xs, dtype=np.float64)[:, None], EUCLID, seed=seed)


class TestPairwise:
    def test_three_points_three_values(self):
        sample = pairwise_distances(line_dataset([0.0, 1.0, 3.0]), ALL_PAIRS)
        assert sample.values.size == 3
        assert sorted(sample.values.tolist()) == [1.0, 2.0, 3.0]

    def test_all_pairs_order_is_lexicographic(self):
        ds = line_dataset([0.0, 1.0, 3.0])
        # pairs (0,1), (0,2), (1,2)
        np.testing.assert_array_equal(pairwise_distances(ds, ALL_PAIRS).values, [1.0, 3.0, 2.0])

    def test_single_point_rejected(self):
        with pytest.raises(InvalidInputError):
            pairwise_distances(line_dataset([1.0]))

    def test_sampled_mean_close_to_full_mean(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 1000, seed=5))
        full = pairwise_distances(ds, ALL_PAIRS).values.mean()
        sampled = pairwise_distances(ds, SampledPairs(5000, seed=9)).values.mean()
        assert abs(sampled - full) / full < 0.02

    def test_sampled_is_deterministic(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 100, seed=5))
        a = pairwise_distances(ds, SampledPairs(999, seed=4)).values
        b = pairwise_distances(ds, SampledPairs(999, seed=4)).values
        np.testing.assert_array_equal(a, b)

    def test_gram_path_matches_direct_rows(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 4, 60, seed=2))
        gram = pairwise_distances(ds, ALL_PAIRS).values
        direct = np.concatenate(
            [np.linalg.norm(ds.points[i + 1 :] - ds.points[i], axis=1) for i in range(ds.n - 1)]
        )
        np.testing.assert_allclose(gram, direct, atol=1e-9)

    def test_hamming_gram_path_exact(self):
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, 33, 80, seed=2))
        gram = pairwise_distances(ds, ALL_PAIRS).values
        direct = np.concatenate(
            [(ds.points[i + 1 :] != ds.points[i]).sum(axis=1) / 33 for i in range(ds.n - 1)]
        )
        np.testing.assert_array_equal(gram, direct)

    def test_default_mode_thresholds(self):
        assert default_mode(3162) == ALL_PAIRS  # 3162*3161/2 = 4997541 pairs
        assert isinstance(default_mode(3163), SampledPairs)  # one point more crosses the budget

    @pytest.mark.parametrize("kind", [MetricKind.MANHATTAN, MetricKind.CHEBYSHEV])
    def test_row_path_metrics_match_brute_force(self, kind):
        rng_np = np.random.default_rng(0)
        pts = rng_np.uniform(size=(30, 3))
        ds = Dataset(pts, kind)
        values = pairwise_distances(ds, ALL_PAIRS).values
        from metricdim.core import distance

        brute = [distance(ds.metric, pts[i], pts[j]) for i in range(30) for j in range(i + 1, 30)]
        np.testing.assert_array_equal(values, brute)


def test_cnbym_dimension_is_translation_invariant():
    # The uncentred Gram identity gave 2.2102 and then 0.0942 here: at an
    # offset of 1e8 it cancelled squares near 1e16 and lost distances of 1.
    ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 500, seed=1))
    dims = [
        cnbym_dimension(moments(pairwise_distances(Dataset(ds.points + shift, EUCLID), ALL_PAIRS)))
        for shift in (0.0, 1e8)
    ]
    assert 2.0 < dims[0] < 2.5
    assert abs(dims[1] - dims[0]) < 1e-9 * dims[0]


ALL_METRICS = [kind for kind in MetricKind]


@st.composite
def unit_scale_dataset(draw, metric):
    """2-12 rows of one random length with coordinates in [0, 1] (bits for Hamming)."""
    elements, dtype = (st.integers(0, 1), np.uint8) if metric.uses_bits else (st.floats(0.0, 1.0), np.float64)
    dim = draw(st.integers(1, 16))
    rows = draw(st.lists(st.lists(elements, min_size=dim, max_size=dim), min_size=2, max_size=12))
    return Dataset(np.array(rows, dtype=dtype), metric)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.value)
@given(data=st.data(), m=st.integers(1, 50), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_pairwise_matches_distance_on_the_same_pairs(metric, data, m, seed):
    ds = data.draw(unit_scale_dataset(metric))
    # SampledPairs draws ordered pairs i != j from these two counter streams.
    ii = rng.integers(seed, m, ds.n, stream=0)
    jj = rng.integers(seed, m, ds.n - 1, stream=1)
    jj = jj + (jj >= ii)
    sampled = pairwise_distances(ds, SampledPairs(m, seed)).values
    assert sampled.tolist() == [distance(metric, ds.points[i], ds.points[j]) for i, j in zip(ii, jj)]

    iu, ju = np.triu_indices(ds.n, k=1)
    exact = np.array([distance(metric, ds.points[i], ds.points[j]) for i, j in zip(iu, ju)])
    enumerated = pairwise_distances(ds, ALL_PAIRS).values
    if metric is MetricKind.EUCLIDEAN:
        # Centred Gram values are within 1e-9 relative of the kernel's; the
        # kernel measures the pairs too close for that.
        np.testing.assert_allclose(enumerated, exact, rtol=1e-9, atol=0.0)
    else:
        np.testing.assert_array_equal(enumerated, exact)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.value)
def test_sample_is_independent_of_the_chunking(metric, monkeypatch):
    dim, n, m, seed = 6, 40, 1003, 11
    pts = rng.matrix_bits(3, n, dim) if metric.uses_bits else rng.matrix_normals(3, n, dim)
    ds = Dataset(pts, metric)
    # A budget of seven rows gives chunks of at most numpy's 128-value
    # pairwise block: nine leaves of 64 to 128 pairs.
    monkeypatch.setattr(diststats, "_CHUNK_BYTES", 7 * ds.kernel_rows[0].nbytes)
    chunked = pairwise_distances(ds, SampledPairs(m, seed)).values
    ii = rng.integers(seed, m, n, stream=0)
    jj = rng.integers(seed, m, n - 1, stream=1)
    jj = jj + (jj >= ii)
    whole = pair_distances(metric, ds.points[ii], ds.points[jj])
    assert chunked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.value)
def test_sample_is_independent_of_the_worker_count(metric, monkeypatch):
    dim, n, m, seed = 6, 40, 1003, 11
    pts = rng.matrix_bits(3, n, dim) if metric.uses_bits else rng.matrix_normals(3, n, dim)
    ds = Dataset(pts, metric)
    # Nine leaves of 64 to 128 pairs (see the chunking test).
    monkeypatch.setattr(diststats, "_CHUNK_BYTES", 7 * ds.kernel_rows[0].nbytes)
    ii = rng.integers(seed, m, n, stream=0)
    jj = rng.integers(seed, m, n - 1, stream=1)
    jj = jj + (jj >= ii)
    whole = pair_distances(metric, ds.points[ii], ds.points[jj]).tobytes()
    fill = diststats._sample_chunks
    threads = set()

    def recorded_fill(*args):
        threads.add(threading.get_ident())
        # Each worker waits for the others: the pool would otherwise hand a
        # job to a thread that had already finished one.
        barrier.wait(timeout=10)
        fill(*args)

    monkeypatch.setattr(diststats, "_sample_chunks", recorded_fill)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers as finely as the interpreter allows
    try:
        for workers in (1, 2, 3):
            threads.clear()
            barrier = threading.Barrier(workers)
            monkeypatch.setattr(diststats, "_usable_cpus", lambda: workers)
            assert pairwise_distances(ds, SampledPairs(m, seed)).values.tobytes() == whole
            assert len(threads) == workers
            assert (threading.get_ident() in threads) == (workers == 1)
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize(
    "values, rejected",
    [([0.5, -1e-300], True), ([np.nan, 1.0], False), ([np.nan, -1.0], True), ([-0.0, 0.0], False), ([], False)],
    ids=["negative", "nan", "nan-and-negative", "negative-zero", "empty"],
)
def test_sign_check_agrees_with_the_elementwise_comparison(values, rejected):
    arr = np.array(values, dtype=np.float64)
    assert (arr < 0).any() == rejected
    mode, n = (SampledPairs(arr.size, 0), 5) if arr.size else (ALL_PAIRS, 1)
    if rejected:
        with pytest.raises(InvalidInputError, match="negative"):
            DistanceSample(arr, mode, n)
    else:
        assert DistanceSample(arr, mode, n).values.tobytes() == arr.tobytes()


class TestBoxplot:
    def test_symmetric_small_sample(self):
        box = boxplot_summary(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert (box.median, box.q1, box.q3) == (3.0, 2.0, 4.0)
        assert box.outliers.size == 0
        assert (box.whisker_low, box.whisker_high) == (1.0, 5.0)

    def test_far_value_is_outlier(self):
        # type-7 quartiles of [1,2,3,4,100]: q1=2, q3=4, fence hi = 4 + 1.5*2 = 7
        box = boxplot_summary(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert box.outliers.tolist() == [100.0]
        assert box.whisker_high == 4.0
        assert box.whisker_low == 1.0

    def test_constant_sample(self):
        box = boxplot_summary(np.array([2.0] * 5))
        assert box.median == box.q1 == box.q3 == 2.0
        assert box.outliers.size == 0

    def test_too_few_values_rejected(self):
        with pytest.raises(InvalidInputError):
            boxplot_summary(np.array([1.0, 2.0]))

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=5, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_fence_partition(self, values):
        arr = np.asarray(values)
        box = boxplot_summary(arr)
        lo, hi = box.q1 - 1.5 * box.iqr, box.q3 + 1.5 * box.iqr
        inside = arr[(arr >= lo) & (arr <= hi)]
        assert inside.size + box.outliers.size == arr.size
        if inside.size:
            assert box.whisker_low == inside.min() and box.whisker_high == inside.max()
        assert ((box.outliers < lo) | (box.outliers > hi)).all()
        assert box.q1 <= box.median <= box.q3


class TestMoments:
    def test_two_values(self):
        m = moments(np.array([1.0, 3.0]))
        assert (m.mean, m.variance, m.count) == (2.0, 2.0, 2)

    def test_constant(self):
        m = moments(np.array([2.0, 2.0, 2.0]))
        assert (m.mean, m.variance) == (2.0, 0.0)

    def test_single_value_rejected(self):
        with pytest.raises(InvalidInputError):
            moments(np.array([1.0]))

    def test_uniform_line_matches_analytic_moments(self):
        # E|X-Y| = 1/3, var = 1/18 for X, Y uniform on [0,1]; 1% bands
        pts = rng.matrix_uniform01(42, 20_000, 1)
        ds = Dataset(pts, EUCLID, seed=42)
        m = moments(pairwise_distances(ds))
        assert 0.330 < m.mean < 0.337
        assert 0.0545 < m.variance < 0.0566


# moments' leaf and numpy's pairwise block (128 values), each with its
# neighbours, and the sizes the CLI reads: fig-b's 4,498,500 pairs and
# estimate's 5,000,000.
LEAF = core._SCAN_BYTES // 8
MOMENT_SIZES = [2, 3, 7, 8, 9, 127, 128, 129, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 3, 200_003, 4_498_500, 5_000_000]


def moment_samples(n):
    base = np.random.default_rng(n).random(n)
    yield "random", base
    yield "offset", base + 1e8
    yield "huge", base * 1e150
    yield "tiny", base * 1e-150
    yield "constant", np.full(n, 0.7)
    yield "two-valued", np.where(base < 0.5, 1.0, 3.0)
    yield "strided", np.random.default_rng(n + 1).random(2 * n)[::2]


@pytest.mark.parametrize("n", MOMENT_SIZES)
def test_moments_equal_numpy_bit_for_bit(n):
    for name, values in moment_samples(n):
        m = moments(values)
        assert m.mean.hex() == float(values.mean()).hex(), name
        assert m.variance.hex() == float(values.var(ddof=1)).hex(), name
        assert m.count == n


def traced_peak(call):
    """Bytes that numpy and Python hold at most during ``call()``, beyond
    what was held before it, as ``tracemalloc`` counts them."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestOneCopyOfTheDistances:
    def test_moments_allocate_one_leaf(self):
        values = np.random.default_rng(3).random(2_000_000)
        assert traced_peak(lambda: moments(values)) < 2 * 2**20

    def test_all_pairs_allocate_the_output_and_one_band(self):
        points = np.random.default_rng(4).standard_normal((2000, 16))
        output = 2000 * 1999 // 2 * 8
        assert traced_peak(lambda: core.all_pair_distances(EUCLID, points)) < output + 4 * 2**20

    def test_sampled_pair_moments_hold_no_sample_vector(self, monkeypatch):
        # One worker's buffers and the leaf table, against the 40 MB that
        # pairwise_distances holds for the same sample.
        monkeypatch.setattr(diststats, "_usable_cpus", lambda: 1)
        ds = Dataset(rng.matrix_normals(5, 10_000, 16), EUCLID)
        assert traced_peak(lambda: pair_moments(ds, SampledPairs(5_000_000, 0))) < 8 * 2**20


def fold_dataset(metric):
    pts = rng.matrix_bits(8, 500, 70) if metric.uses_bits else rng.matrix_normals(8, 500, 16)
    return Dataset(pts, metric)


def leaf_limit(ds):
    return max(diststats._PAIRWISE_BLOCK, diststats._CHUNK_BYTES // ds.kernel_rows[0].nbytes)


# Each metric at its own leaf limit (32,768 pairs for 16 float64 columns,
# 262,144 for 70 bits in two words) and one pair either side, then sizes
# of many leaves: an odd one and estimate's 5,000,000.
FOLD_CASES = [(metric, size) for metric in MetricKind for size in ["limit-1", "limit", "limit+1", 1_000_003]]
FOLD_CASES += [(EUCLID, 5_000_000), (MetricKind.HAMMING, 5_000_000)]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("metric, size", FOLD_CASES, ids=lambda c: getattr(c, "value", str(c)))
def test_pair_moments_fold_the_sample(metric, size, workers, monkeypatch):
    monkeypatch.setattr(diststats, "_usable_cpus", lambda: workers)
    ds = fold_dataset(metric)
    m = leaf_limit(ds) + {"limit-1": -1, "limit": 0, "limit+1": 1}[size] if isinstance(size, str) else size
    mode = SampledPairs(m, 17)
    summary, largest = pair_moments(ds, mode)
    values = pairwise_distances(ds, mode).values
    assert summary.count == m
    assert summary.mean.hex() == float(values.mean()).hex()
    expected = float(values.var(ddof=1))
    assert abs(summary.variance - expected) <= 1e-15 * expected
    assert largest == float(values.max())


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.value)
def test_pair_moments_of_all_pairs_are_the_vector_moments(metric):
    ds = fold_dataset(metric)
    values = pairwise_distances(ds, ALL_PAIRS).values
    summary, largest = pair_moments(ds, ALL_PAIRS)
    assert summary == moments(values)
    assert largest == float(values.max())


def test_pair_moments_keep_the_sample_refusals(monkeypatch):
    ds = fold_dataset(EUCLID)
    with pytest.raises(InvalidInputError, match="at least 2 distance values"):
        pair_moments(ds, SampledPairs(1, 0))
    with pytest.raises(InvalidInputError, match="at least 2 points"):
        pair_moments(Dataset(np.zeros((1, 3)), EUCLID), SampledPairs(5, 0))
    # 135 pairs in leaves of at most 128 make two leaves, of 64 and 71
    # pairs; a kernel returns one negative distance in the second.
    kernel = Dataset.distances

    def negative_in_the_second_leaf(self, a, b, out=None):
        values = kernel(self, a, b, out)
        if out is not None and out.size == 71:
            values[-1] = -1e-300
        return values

    monkeypatch.setattr(Dataset, "distances", negative_in_the_second_leaf)
    monkeypatch.setattr(diststats, "_CHUNK_BYTES", 0)
    for measure in (pair_moments, pairwise_distances):
        with pytest.raises(InvalidInputError, match="distances cannot be negative"):
            measure(ds, SampledPairs(135, 0))


class TestCnbym:
    def test_uniform_segment_exact_moments(self):
        assert cnbym_dimension(MomentSummary(1.0 / 3.0, 1.0 / 18.0, 10**6)) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [8, 32, 128])
    def test_bit_cube_exact_moments(self, d):
        # binomial(d, 1/2)/d has mean 1/2 and variance 1/(4d)
        assert cnbym_dimension(MomentSummary(0.5, 1.0 / (4 * d), 10**6)) == pytest.approx(d / 2)

    def test_constant_sample_degenerate(self):
        assert cnbym_dimension(moments(np.array([2.0, 2.0, 2.0]))) is DEGENERATE

    @given(
        values=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=3, max_size=50),
        log2_scale=st.integers(min_value=-6, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance_exact_for_binary_scales(self, values, log2_scale):
        arr = np.asarray(values)
        base = cnbym_dimension(moments(arr))
        scaled = cnbym_dimension(moments(arr * 2.0**log2_scale))
        if base is DEGENERATE:
            assert scaled is DEGENERATE
        else:
            assert scaled == base


class TestNNStatistics:
    def test_direct_minimum(self):
        ds = line_dataset([0.0, 10.0])
        queries = line_dataset([1.0])
        nn = nn_statistics(ds, queries)
        assert nn.mean_eps_nn == 1.0
        assert nn.characteristic_size == 10.0
        assert nn.ratio == 0.1

    def test_coincident_query_distance_zero(self):
        ds = line_dataset([0.0, 10.0])
        nn = nn_statistics(ds, line_dataset([0.0]))
        assert nn.mean_eps_nn == 0.0

    def test_leave_one_out_excludes_identical(self):
        ds = line_dataset([0.0, 10.0])
        nn = nn_statistics(ds, line_dataset([0.0]), leave_one_out=True)
        assert nn.mean_eps_nn == 10.0

    def test_leave_one_out_keeps_distinct_rows_at_distance_zero(self):
        # 1e-170 squared underflows, so that row is at distance 0 from the
        # origin without being coordinate-identical to it; -0.0 equals 0.0.
        ds = Dataset(np.array([[0.0, 0.0], [-0.0, 0.0], [1e-170, 0.0], [3.0, 4.0]]), EUCLID)
        queries = Dataset(np.array([[0.0, 0.0], [3.0, 4.0]]), EUCLID)
        assert nn_statistics(ds, queries, leave_one_out=True).mean_eps_nn == 2.5

    def test_leave_one_out_drops_every_duplicate_bit_row(self):
        g = np.random.default_rng(3)
        bits = g.integers(0, 2, (10, 9)).astype(np.uint8)[g.integers(0, 10, 60)]
        metric = MetricKind.HAMMING
        ds, queries = Dataset(bits, metric), Dataset(bits[:12], metric)
        expected = sum(
            float(pair_distances(metric, q, bits[~(bits == q).all(axis=1)]).min()) for q in bits[:12]
        )
        assert nn_statistics(ds, queries, leave_one_out=True).mean_eps_nn == expected / 12

    def test_leave_one_out_exhausting_dataset_rejected(self):
        ds = line_dataset([5.0])
        with pytest.raises(InvalidInputError):
            nn_statistics(ds, line_dataset([5.0]), leave_one_out=True)

    def test_degenerate_ratio_for_constant_dataset(self):
        ds = line_dataset([1.0, 1.0])
        nn = nn_statistics(ds, line_dataset([1.0]))
        assert nn.ratio is DEGENERATE

    def test_ratio_grows_with_dimension(self):
        ratios = []
        for d in (2, 50):
            ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, d, 300, seed=rng.derive_seed(8, d)))
            qs = generate(GeneratorSpec(Family.UNIFORM_CUBE, d, 50, seed=rng.derive_seed(9, d)))
            ratios.append(nn_statistics(ds, qs).ratio)
        assert ratios[0] < ratios[1]


def reference_mean_nn(ds, queries, leave_one_out=False):
    """The one-query-at-a-time kernel loop that ``nn_statistics`` must match
    bit for bit: each query scanned against every row, its
    coordinate-identical rows dropped with ``leave_one_out``."""
    rows = ds.kernel_rows
    nn_sum = 0.0
    for q in queries.kernel_rows:
        dv = ds.distances(q, rows)
        if leave_one_out:
            zero = np.flatnonzero(dv == 0.0)
            dv = np.delete(dv, zero[(rows[zero] == q).all(axis=1)])
            if dv.size == 0:
                raise InvalidInputError("leave-one-out excluded every data point for a query")
        nn_sum += float(dv.min())
    return nn_sum / queries.n


# Row layouts for the nearest-neighbour exactness tests: "offset" moves the
# points by 1e8 and "pool" repeats rows. "tiny" mixes unit-scale rows with
# distinct rows near 1e-170, whose distances to each other underflow to 0,
# and "underflow" holds only the latter, outside the screen's range.
NN_LAYOUTS = {
    "random": lambda g, n, d: g.standard_normal((n, d)),
    "offset": lambda g, n, d: 1e8 + g.random((n, d)),
    "pool": lambda g, n, d: g.random((12, d))[g.integers(0, 12, n)],
    "tiny": lambda g, n, d: np.where(g.random((n, 1)) < 0.5, 1e-170 * g.integers(0, 3, (n, d)), g.random((n, d))),
    "underflow": lambda g, n, d: 1e-170 * g.integers(0, 3, (n, d)),
}


def nn_dataset(kind, layout, n, d, seed):
    g = np.random.default_rng(seed)
    if kind.uses_bits:
        pool = g.integers(0, 2, (n if layout == "random" else 12, d))
        return Dataset(pool[g.integers(0, pool.shape[0], n)].astype(np.uint8), kind)
    return Dataset(NN_LAYOUTS[layout](g, n, d), kind)


NN_CASES = [
    (kind, layout)
    for kind in MetricKind
    for layout in (["random", "pool"] if kind.uses_bits else sorted(NN_LAYOUTS))
]


@pytest.mark.parametrize("leave_one_out", [False, True])
@pytest.mark.parametrize("kind, layout", NN_CASES, ids=lambda c: getattr(c, "value", c))
def test_nn_statistics_equal_the_kernel_loop(kind, layout, leave_one_out, monkeypatch):
    # Bands of four query rows against the 1,500 data rows.
    monkeypatch.setattr(core, "_SCAN_BYTES", 4 * 1500 * 16)
    dim = 70 if kind.uses_bits else 5
    ds = nn_dataset(kind, layout, 1500, dim, seed=len(layout))
    g = np.random.default_rng(1)
    own = Dataset(ds.points[g.choice(ds.n, 200, replace=False)], kind)
    other = nn_dataset(kind, layout, 40, dim, seed=99)
    characteristic = pair_moments(ds, SampledPairs(1000, 0))[0].mean
    for queries in (own, other):
        oracle = core.CountingOracle(kind)
        got = nn_statistics(ds, queries, oracle, leave_one_out=leave_one_out, characteristic=characteristic)
        assert got.mean_eps_nn == reference_mean_nn(ds, queries, leave_one_out)
        assert oracle.count == ds.n * queries.n
        # A mean can hide an ulp; one query's mean is its minimum itself.
        for q in queries.points[:20]:
            one = Dataset(q[None], kind)
            got = nn_statistics(ds, one, leave_one_out=leave_one_out, characteristic=characteristic)
            assert got.mean_eps_nn == reference_mean_nn(ds, one, leave_one_out)


@pytest.mark.parametrize("leave_one_out", [False, True])
def test_nn_statistics_near_ties_far_from_the_centre(leave_one_out):
    # The screen centres on the first query, 1e4 away from the rest, so its
    # Gram values (about 1e8 before they cancel) cannot order neighbours
    # whose distances differ by less than 1e-8: the kernel must re-measure
    # every pair within the band of each minimum.
    g = np.random.default_rng(5)
    directions = g.standard_normal((60, 5))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    near = directions * (1.0 + 1e-11 * g.integers(0, 8, 60))[:, None]
    far = 1e4 * np.eye(5)
    ds = Dataset(np.concatenate([near, far]), EUCLID)
    centre = 1e-12 * g.standard_normal((40, 5))
    queries = Dataset(np.concatenate([far[:1], np.zeros((1, 5)), centre, near[:3]]), EUCLID)
    assert nn_statistics(ds, queries, leave_one_out=leave_one_out).mean_eps_nn == reference_mean_nn(
        ds, queries, leave_one_out
    )
    # The mean of distances near 1e4 and 1 can hide an ulp of the latter,
    # so the minima are compared one by one too, as nn_statistics takes them.
    screen = core._BallScreen(EUCLID, np.concatenate([queries.points, ds.points]), 5)
    expected = [reference_mean_nn(ds, Dataset(q[None], EUCLID), leave_one_out) for q in queries.points]
    assert screen.nearest(queries.n, leave_one_out).tolist() == expected


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
def test_nn_statistics_refuse_a_query_that_every_row_duplicates(kind):
    row = np.array([[1, 0, 1]], dtype=np.uint8 if kind.uses_bits else np.float64)
    ds = Dataset(np.repeat(row, 5, axis=0), kind)
    queries = Dataset(np.concatenate([1 - row, row]), kind)
    with pytest.raises(InvalidInputError, match="excluded every data point"):
        reference_mean_nn(ds, queries, leave_one_out=True)
    with pytest.raises(InvalidInputError, match="excluded every data point"):
        nn_statistics(ds, queries, leave_one_out=True)
    assert nn_statistics(ds, queries).mean_eps_nn == reference_mean_nn(ds, queries)
