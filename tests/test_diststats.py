import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim.core import DEGENERATE, Dataset, InvalidInputError, MetricDescriptor, MetricKind, distance
from metricdim.diststats import (
    ALL_PAIRS,
    MomentSummary,
    SampledPairs,
    boxplot_summary,
    cnbym_dimension,
    default_mode,
    moments,
    nn_statistics,
    pairwise_distances,
)
from metricdim.generate import Family, GeneratorSpec, generate
from metricdim import rng

EUCLID = MetricDescriptor(MetricKind.EUCLIDEAN)


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
        ds = Dataset(pts, MetricDescriptor(kind))
        values = pairwise_distances(ds, ALL_PAIRS).values
        from metricdim.core import distance

        brute = [distance(ds.metric, pts[i], pts[j]) for i in range(30) for j in range(i + 1, 30)]
        np.testing.assert_array_equal(values, brute)


ALL_METRICS = [MetricDescriptor(kind) for kind in MetricKind]


@st.composite
def unit_scale_dataset(draw, metric):
    """2-12 rows of one random length with coordinates in [0, 1] (bits for Hamming)."""
    elements, dtype = (st.integers(0, 1), np.uint8) if metric.kind.uses_bits else (st.floats(0.0, 1.0), np.float64)
    dim = draw(st.integers(1, 16))
    rows = draw(st.lists(st.lists(elements, min_size=dim, max_size=dim), min_size=2, max_size=12))
    return Dataset(np.array(rows, dtype=dtype), metric)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind.value)
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
    if metric.kind is MetricKind.EUCLIDEAN:
        # The Gram identity cancels |x|^2 + |y|^2 against 2 x.y, so the
        # rounding error is absolute in the squared distance: compare squares
        # at 1e-9 of the unit data scale.
        np.testing.assert_allclose(enumerated**2, exact**2, rtol=0, atol=1e-9)
    else:
        np.testing.assert_array_equal(enumerated, exact)


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
