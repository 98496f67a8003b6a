import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metricdim.concentration import (
    ConcentrationCurve,
    chernoff_alpha,
    chernoff_curve,
    concentration_dimension,
    empirical_concentration,
    select_witnesses,
    two_sided_alpha,
    union_bound_slack,
    witness_curve,
)
from metricdim.core import DEGENERATE, Dataset, InvalidInputError, MetricKind, diameter_upper_bound
from metricdim.generate import Family, GeneratorSpec, generate

EUCLID = MetricKind.EUCLIDEAN


def line_dataset(xs):
    return Dataset(np.asarray(xs, dtype=np.float64)[:, None], EUCLID)


class TestEmpiricalCurve:
    def test_single_point_vanishes(self):
        curve = empirical_concentration(line_dataset([0.4]), k=1, grid_size=11, seed=0)
        assert (curve.alpha == 0.0).all()

    def test_two_point_hand_evaluation(self):
        # anchor values {0, 1}, interpolated median 0.5; both deviations are
        # exactly 0.5, so alpha is 1 below 0.5 and 0 above it
        ds = line_dataset([0.0, 1.0])
        curve = witness_curve(ds, np.array([0]), 11)
        assert curve.alpha[6] == 0.0  # eps ~ 0.6
        assert curve.alpha[4] == 1.0  # eps ~ 0.4
        assert curve.alpha[5] == 0.0  # eps = 0.5 exactly; deviation test is strict

    def test_unnormalized_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            empirical_concentration(line_dataset([0.0, 2.0]), k=1, grid_size=11)

    def test_witness_count_bounds(self):
        ds = line_dataset([0.0, 1.0])
        with pytest.raises(InvalidInputError):
            empirical_concentration(ds, k=3, grid_size=11)

    @pytest.mark.parametrize(
        "anchors",
        [[], [[0, 1]], [-1], [3], [1.5], [True], np.array([0, 2**63], dtype=np.uint64)],
        ids=["empty", "2-d", "negative", "past-the-end", "fraction", "bool", "huge"],
    )
    def test_bad_anchors_rejected(self, anchors):
        # Once -1 read row n - 1, 3 raised IndexError and 1.5 read row 1.
        with pytest.raises(InvalidInputError, match="witness anchors"):
            witness_curve(line_dataset([0.0, 0.5, 1.0]), anchors, 11)

    def test_nonincreasing(self):
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, 32, 500, seed=3))
        curve = empirical_concentration(ds, k=8, grid_size=51, seed=1)
        assert (np.diff(curve.alpha) <= 0).all()

    def test_more_witnesses_never_decrease_alpha(self):
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, 16, 400, seed=7))
        small = select_witnesses(ds, 4, seed=5)
        large = select_witnesses(ds, 12, seed=5)  # prefix-extending anchor draw
        assert set(small.tolist()) <= set(large.tolist())
        a = witness_curve(ds, small, 41).alpha
        b = witness_curve(ds, large, 41).alpha
        assert (b >= a).all()

    def test_bit_cube_curve_below_closed_form_bound(self):
        d, n, k, grid = 64, 5000, 16, 101
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, d, n, seed=11))
        curve = empirical_concentration(ds, k, grid, seed=13)
        slack = union_bound_slack(n, k, grid)
        for eps, alpha in zip(curve.grid, curve.alpha):
            if eps >= 0.05:
                assert alpha <= chernoff_alpha(d, eps) + slack


class TestLength:
    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
    def test_nonpositive_or_nonfinite_length_rejected(self, length):
        with pytest.raises(InvalidInputError, match="positive finite"):
            empirical_concentration(line_dataset([0.0, 0.5]), k=1, grid_size=11, length=length)

    @given(fraction=st.floats(1e-6, 1.0 - 1e-8), xs=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_length_below_the_diameter_bound_rejected(self, fraction, xs):
        ds = line_dataset(xs)
        bound = diameter_upper_bound(ds)
        # Far above the subnormals, where fraction * bound keeps its ratio to the bound.
        assume(bound > 1e-100)
        with pytest.raises(InvalidInputError, match="below the diameter bound"):
            empirical_concentration(ds, k=1, grid_size=11, length=fraction * bound)
        empirical_concentration(ds, k=1, grid_size=11, length=bound)

    def test_dividing_by_the_length_equals_dividing_the_points(self):
        pts = generate(GeneratorSpec(Family.GAUSSIAN, 3, 300, seed=2)).points
        ds = Dataset(pts, EUCLID)
        bound = diameter_upper_bound(ds)
        by_length = empirical_concentration(ds, 8, 41, seed=4, length=bound).alpha
        unit = empirical_concentration(Dataset(pts / bound, EUCLID), 8, 41, seed=4).alpha
        np.testing.assert_allclose(by_length, unit, rtol=0, atol=1.0 / 300)

    # Multiplying by 2**-k is exact for doubles in the normal range, and every
    # step of the real kernels commutes with it, so the distances divided by
    # the length keep their bits.
    @pytest.mark.parametrize("kind", [MetricKind.EUCLIDEAN, MetricKind.MANHATTAN, MetricKind.CHEBYSHEV], ids=lambda k: k.value)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_rescaling_keeps_alpha_bits(self, kind, data):
        g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n, dim = data.draw(st.integers(2, 60)), data.draw(st.integers(1, 6))
        x = g.standard_normal((n, dim)) * 10.0 ** data.draw(st.integers(-3, 3))
        k = data.draw(st.integers(-200, 200))
        ds = Dataset(x, kind)
        bound = diameter_upper_bound(ds)
        length = data.draw(st.sampled_from([bound, 2.0 * bound, 2.0 ** math.ceil(math.log2(bound))]))
        grid, witnesses, seed = data.draw(st.integers(2, 60)), data.draw(st.integers(1, n)), data.draw(st.integers(0, 99))
        base = empirical_concentration(ds, witnesses, grid, seed, length=length)
        shifted = empirical_concentration(Dataset(np.ldexp(x, -k), kind), witnesses, grid, seed, length=math.ldexp(length, -k))
        assert shifted.alpha.tobytes() == base.alpha.tobytes()


class TestChernoff:
    def test_point_value(self):
        assert chernoff_alpha(100, 0.1) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_eps_zero_is_one(self):
        assert chernoff_alpha(7, 0.0) == 1.0

    def test_monotone_in_dimension(self):
        assert chernoff_alpha(1000, 0.1) < chernoff_alpha(10, 0.1)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInputError):
            chernoff_alpha(0, 0.1)


class TestTwoSidedReference:
    @pytest.mark.parametrize("d", range(1, 33))
    def test_bounds_the_two_sided_tail_of_a_witness_about_any_median(self, d):
        # A witness d(a, .) on uniform d-bit points is Binomial(d, 1/2) / d,
        # and every median of it lies in [floor(d/2), ceil(d/2)] / d.
        mass = [math.comb(d, j) / 2**d for j in range(d + 1)]
        for median in {d // 2 / d, 0.5, -(-d // 2) / d}:
            for eps in np.linspace(0.0, 1.0, 201).tolist():
                tail = math.fsum(p for j, p in enumerate(mass) if abs(j / d - median) > eps)
                assert tail <= two_sided_alpha(d, eps) + 1e-12

    def test_the_one_sided_reference_is_no_bound_on_the_two_sided_tail(self):
        # At d = 1 a witness is 0 or 1, 1/2 from its median everywhere.
        assert two_sided_alpha(1, 0.49) == 1.0 > chernoff_alpha(1, 0.49)


class TestConcentrationDimension:
    def test_constant_half_curve(self):
        grid = np.linspace(0.0, 1.0, 21)
        curve = ConcentrationCurve(grid, np.full(21, 0.5))
        assert concentration_dimension(curve) == pytest.approx(1.0)

    def test_zero_curve_degenerate(self):
        ds = line_dataset([0.3])
        curve = empirical_concentration(ds, k=1, grid_size=11)
        assert concentration_dimension(curve) is DEGENERATE

    def test_quadrature_against_independent_fine_grid(self):
        # oracle: plain-Python trapezoid at 100x resolution
        curve = chernoff_curve(50, 2001)
        dim = concentration_dimension(curve)
        n_fine = 200_001
        h = 1.0 / (n_fine - 1)
        total, prev = 0.0, 1.0
        for i in range(1, n_fine):
            x = i * h
            f = min(1.0, math.exp(-100.0 * x * x))
            total += 0.5 * (prev + f) * h
            prev = f
        oracle = 1.0 / (2.0 * total) ** 2
        assert abs(dim - oracle) / oracle < 0.001

    def test_antitone_in_the_curve(self):
        grid = np.linspace(0.0, 1.0, 201)
        low = ConcentrationCurve(grid, np.minimum(1.0, np.exp(-8 * grid**2)))
        high = ConcentrationCurve(grid, np.minimum(1.0, np.exp(-200 * grid**2)))
        assert (high.alpha <= low.alpha).all()
        assert concentration_dimension(high) > concentration_dimension(low)

    @given(d=st.integers(min_value=1, max_value=512))
    @settings(max_examples=30, deadline=None)
    def test_dimension_grows_with_sharper_curves(self, d):
        a = concentration_dimension(chernoff_curve(d, 401))
        b = concentration_dimension(chernoff_curve(d + 1, 401))
        assert b > a


class TestCurveValidation:
    def test_grid_must_span_unit_interval(self):
        with pytest.raises(InvalidInputError):
            ConcentrationCurve(np.array([0.0, 0.5]), np.array([1.0, 0.5]))

    def test_alpha_must_be_nonincreasing(self):
        with pytest.raises(InvalidInputError):
            ConcentrationCurve(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.9, 0.1]))

    def test_alpha_range_checked(self):
        with pytest.raises(InvalidInputError):
            ConcentrationCurve(np.array([0.0, 1.0]), np.array([1.5, 0.0]))
