import hashlib

import numpy as np
import pytest

from metricdim import rng
from metricdim.core import InvalidInputError, MetricKind
from metricdim.generate import Family, GeneratorSpec, generate
from test_diststats import traced_peak


def test_same_spec_is_bit_identical():
    spec = GeneratorSpec(Family.UNIFORM_CUBE, 5, 300, seed=11)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.points, b.points)
    assert a.metric == b.metric


def test_distinct_seeds_differ():
    a = generate(GeneratorSpec(Family.GAUSSIAN, 3, 10, seed=1))
    b = generate(GeneratorSpec(Family.GAUSSIAN, 3, 10, seed=2))
    assert not np.array_equal(a.points[0], b.points[0])


def test_point_substreams_extend_prefix():
    # growing n must not change the points already generated
    small = generate(GeneratorSpec(Family.UNIFORM_CUBE, 4, 50, seed=3))
    large = generate(GeneratorSpec(Family.UNIFORM_CUBE, 4, 80, seed=3))
    assert np.array_equal(large.points[:50], small.points)


# SHA-256 of the points at the benchmark's sizes. Gaussian coordinates also
# pass through numpy's log, cos and sin.
GENERATED_DIGESTS = {
    (Family.GAUSSIAN, 16, 10_000): "9da64faa4f7480758851172be169526615123f22894fc96a1b664949e5753609",
    (Family.UNIFORM_CUBE, 8, 10_000): "fdd5d2481ad0fec61f8edb167da82071a092162e596dbefb77111d772fac157e",
    (Family.HAMMING_UNIFORM, 512, 5_000): "eebb52b2ab2c11001f28d9bb43b6d611caf625bee12684e86b229d13179a15ba",
}


@pytest.mark.parametrize("family, dim, count", GENERATED_DIGESTS)
def test_generated_points_match_their_digest(family, dim, count):
    points = generate(GeneratorSpec(family, dim, count, seed=42)).points
    assert hashlib.sha256(points.tobytes()).hexdigest() == GENERATED_DIGESTS[family, dim, count]


def test_metrics_match_family():
    assert generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 5, 0)).metric is MetricKind.EUCLIDEAN
    assert generate(GeneratorSpec(Family.GAUSSIAN, 2, 5, 0)).metric is MetricKind.EUCLIDEAN
    assert generate(GeneratorSpec(Family.HAMMING_UNIFORM, 2, 5, 0)).metric is MetricKind.HAMMING


@pytest.mark.parametrize("dim,count", [(0, 5), (3, 0)])
def test_invalid_spec_rejected(dim, count):
    with pytest.raises(InvalidInputError):
        GeneratorSpec(Family.UNIFORM_CUBE, dim, count, 0)


def test_uniform_cube_coordinate_means():
    # uniform mean 1/2; 3-sigma CLT band at n=100000 is about +/- 0.0027
    ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 3, 100_000, seed=42))
    means = ds.points.mean(axis=0)
    assert ((means > 0.49) & (means < 0.51)).all()
    assert ds.points.min() >= 0.0 and ds.points.max() < 1.0


def test_hamming_ones_fraction():
    ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, 64, 50_000, seed=42))
    frac = ds.points.mean()
    assert 0.495 < frac < 0.505


def test_gaussian_unit_variance():
    ds = generate(GeneratorSpec(Family.GAUSSIAN, 1, 100_000, seed=42))
    assert 0.98 < ds.points.var(ddof=1) < 1.02


def test_uniform_statistics_hold_across_seeds():
    for seed in (0, 1, 7):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 50_000, seed=seed))
        assert abs(ds.points.mean() - 0.5) < 0.01


_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64_reference(state):
    """The published SplitMix64 step, in plain Python integers."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


MATRIX_DRAWS = ["matrix_uniform01", "matrix_normals", "matrix_bits"]


def _stream_rows(seed, n_rows, n_cols):
    """Row i the first 2 * ceil(n_cols / 2) uniforms of stream i, the
    draws a normal row takes; uniform and bit rows are their first
    ``n_cols``."""
    width = 2 * ((n_cols + 1) // 2)
    return np.array([rng.uniform01(seed, width, stream=i) for i in range(n_rows)]).reshape(n_rows, width)


def _one_pass(name, u, n_cols):
    """The matrix draw ``name`` computed from the whole uniform matrix
    ``u`` at once: as drawn for uniforms and bits, through the Box-Muller
    transform for normals."""
    if name == "matrix_uniform01":
        return u[:, :n_cols]
    if name == "matrix_bits":
        return (u[:, :n_cols] < 0.5).astype(np.uint8)
    pairs = u.shape[1] // 2
    radius = np.sqrt(-2.0 * np.log(u[:, :pairs] + 2.0**-53))
    angle = 2.0 * np.pi * u[:, pairs:]
    out = np.empty(u.shape)
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out[:, :n_cols]


class TestRngPlumbing:
    def test_uniform_draws_match_published_algorithm(self):
        # draw k of a stream must be the top 53 bits of the k-th output of
        # SplitMix64 seeded at the stream key, whether drawn as a stream or
        # as a matrix row; this pins cross-machine portability
        state = int(rng.stream_key(9, stream=4))
        expected = []
        for _ in range(20):
            state, z = _splitmix64_reference(state)
            expected.append((z >> 11) * 2.0**-53)
        assert rng.uniform01(9, 20, stream=4).tolist() == expected
        assert rng.matrix_uniform01(9, 5, 20)[4].tolist() == expected

    def test_frozen_uniform_values(self):
        # regression freeze: changing these silently would break every
        # published CSV's reproducibility
        assert [repr(float(v)) for v in rng.uniform01(42, 3)] == [
            "0.6146409341949204",
            "0.45010882945711317",
            "0.20639215340029482",
        ]
        assert rng.derive_seed(42) == 12058926934050108962

    def test_matrix_rows_are_named_streams(self):
        for n_rows, n_cols in ((6, 9), (0, 9), (6, 0), (0, 0)):
            m = rng.matrix_uniform01(42, n_rows, n_cols)
            assert m.shape == (n_rows, n_cols) and m.dtype == np.float64
            for i in range(n_rows):
                assert np.array_equal(m[i], rng.uniform01(42, n_cols, stream=i))

    @pytest.mark.parametrize("name", MATRIX_DRAWS)
    @pytest.mark.parametrize("n_rows, n_cols", [(5000, 512), (20_000, 15)])
    def test_matrix_draw_holds_its_output_plus_four_blocks(self, name, n_rows, n_cols):
        # The rows are drawn in blocks on buffers made once per call, so the
        # draw holds its output and a fixed allowance: one block of scratch
        # words, one of uniforms (bits) or the Box-Muller temporaries of one
        # block (normals), and the block's keys.
        output = {"matrix_uniform01": 8 * n_cols, "matrix_normals": 16 * ((n_cols + 1) // 2), "matrix_bits": n_cols}
        peak = traced_peak(lambda: getattr(rng, name)(7, n_rows, n_cols))
        assert peak <= output[name] * n_rows + 4 * rng._BLOCK_BYTES

    # Four rows of 9 uniforms (and their keys) to a block.
    SMALL_BLOCK_BYTES = 4 * 8 * (9 + 1)

    @pytest.mark.parametrize("name", MATRIX_DRAWS)
    @pytest.mark.parametrize(
        "n_rows, n_cols",
        [(3, 9), (4, 9), (5, 9), (7, 9), (8, 9), (9, 9), (3, 100), (1, 100), (0, 9), (6, 0), (0, 0)],
    )
    def test_blocked_rows_are_the_named_streams(self, name, n_rows, n_cols, monkeypatch):
        # Row counts one below, at and one above one and two whole blocks,
        # rows wider than a whole block (one block each), and empty shapes;
        # normals of 9 columns draw 10 uniforms a row.
        monkeypatch.setattr(rng, "_BLOCK_BYTES", self.SMALL_BLOCK_BYTES)
        got = getattr(rng, name)(42, n_rows, n_cols)
        want = _one_pass(name, _stream_rows(42, n_rows, n_cols), n_cols)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", MATRIX_DRAWS)
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocked_draw_equals_one_pass_at_the_real_budget(self, name, blocks, offset):
        # One and two real blocks of 9-column rows, one row less and one more.
        draws = 10 if name == "matrix_normals" else 9
        n_rows = blocks * (rng._BLOCK_BYTES // (8 * (draws + 1))) + offset
        keys = rng.stream_key(3, np.arange(n_rows, dtype=np.uint64))
        want = _one_pass(name, rng._draw_range(keys[:, None], 0, draws, None), 9)
        assert getattr(rng, name)(3, n_rows, 9).tobytes() == want.tobytes()

    def test_distinct_indices_prefix_property(self):
        short = rng.distinct_indices(5, 4, 100)
        long = rng.distinct_indices(5, 9, 100)
        assert np.array_equal(long[:4], short)
        assert len(set(long.tolist())) == 9

    def test_distinct_indices_full_range(self):
        assert sorted(rng.distinct_indices(0, 10, 10).tolist()) == list(range(10))

    def test_integers_within_bound(self):
        vals = rng.integers(9, 10_000, 7)
        assert vals.min() >= 0 and vals.max() < 7

    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("start, stop", [(0, 37), (211, 500), (300, 300), (463, 1000)])
    def test_range_draw_is_a_slice_of_the_whole_draw(self, start, stop, stream):
        # Chunked samplers draw [start, stop) on its own; it must be the
        # same values as that slice of one draw of the whole stream.
        n = 1000
        key = rng.stream_key(7, stream)
        assert np.array_equal(rng._draw_range(key, start, stop, None), rng.uniform01(7, n, stream)[start:stop])
        got = rng._draw_range(key, start, stop, 613)
        assert got.dtype == np.int64
        assert np.array_equal(got, rng.integers(7, n, 613, stream)[start:stop])

    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("bound", [1000, 999, 2**53 - 1, 2**53 + 3])
    @pytest.mark.parametrize("start, stop", [(0, 64), (5, 12), (211, 500), (300, 301), (777, 777)])
    def test_draw_into_caller_buffers_equals_the_allocating_draw(self, start, stop, bound, stream):
        # Chunked samplers reuse their buffers, so stale contents must not leak.
        key = rng.stream_key(7, stream)
        out = np.full(stop - start, -1, dtype=np.int64)
        scratch = np.full(stop - start, np.nan)
        got = rng._draw_range(key, start, stop, bound, out=out, scratch=scratch, steps=rng._counter_steps(1000))
        assert got is out
        assert np.array_equal(got, rng._draw_range(key, start, stop, bound))
        assert np.array_equal(got, rng.integers(7, stop, bound, stream)[start:])
        # Gathers index rows with these unchecked.
        assert ((got >= 0) & (got < bound)).all()
        uniforms = rng._draw_range(
            key, start, stop, None, out=np.full(stop - start, np.inf), scratch=out, steps=rng._counter_steps(stop - start)
        )
        assert uniforms.tobytes() == rng.uniform01(7, stop, stream)[start:].tobytes()

    def test_derive_seed_differs_by_tag(self):
        assert rng.derive_seed(1, 2) != rng.derive_seed(1, 3)
        assert rng.derive_seed(1, 2, 3) != rng.derive_seed(1, 3, 2)
