import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim import core, doubling
from metricdim.core import Dataset, InvalidInputError, MetricKind, distance, pair_distances
from metricdim.diststats import dataset_cnbym
from metricdim.doubling import CoverResult, DoublingEstimate, doubling_estimate, greedy_cover, probe_rows
from metricdim.generate import Family, GeneratorSpec, generate
from metricdim import rng

EUCLID = MetricKind.EUCLIDEAN


def line_dataset(xs, seed=None):
    return Dataset(np.asarray(xs, dtype=np.float64)[:, None], EUCLID, seed=seed)


def optimal_interval_cover(xs, r):
    """Exact minimum cover size for 1-d points with balls centered on points.

    Classic sweep: cover the leftmost uncovered point with the rightmost
    point within r of it.
    """
    xs = sorted(xs)
    count, i = 0, 0
    while i < len(xs):
        anchor = xs[i]
        center = max(x for x in xs if x <= anchor + r)
        count += 1
        i = next((j for j in range(i, len(xs)) if xs[j] > center + r), len(xs))
    return count


def reference_cover(ds, subset, radius):
    """The one-center-at-a-time greedy loop that the block cover must match.
    Each point's owner is the position of the center that first covers it."""
    subset = np.unique(np.asarray(subset, dtype=np.int64))
    pts = ds.points[subset]
    uncovered = np.ones(subset.size, dtype=bool)
    owners = np.full(subset.size, -1, dtype=np.int64)
    centers = []
    while uncovered.any():
        local = int(np.flatnonzero(uncovered)[0])
        within = pair_distances(ds.metric, pts[local], pts[uncovered]) <= radius
        idx = np.flatnonzero(uncovered)
        owners[idx[within]] = len(centers)
        centers.append(int(subset[local]))
        uncovered[idx[within]] = False
    return CoverResult(np.asarray(centers, dtype=np.int64), radius, int(subset.size), owners)


def assert_same_cover(got, want):
    assert got.centers.tolist() == want.centers.tolist()
    assert got.owners.tolist() == want.owners.tolist()
    assert (got.radius, got.covered_count) == (want.radius, want.covered_count)


# Point layouts for the exactness tests: "offset" and "scaled" move the
# data away from the unit box, "pool" repeats rows many times, and "grid"
# puts distances exactly on the radii 1, sqrt(2), sqrt(3) and 2.
COVER_LAYOUTS = {
    "random": lambda g, shape: g.random(shape),
    "offset": lambda g, shape: 1e8 + g.random(shape),
    "scaled": lambda g, shape: 1e-3 * g.standard_normal(shape),
    "pool": lambda g, shape: g.random((max(2, shape[0] // 8), shape[1]))[g.integers(0, max(2, shape[0] // 8), shape[0])],
    "grid": lambda g, shape: g.integers(0, 3, shape).astype(np.float64),
}
GRID_RADII = (1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0)


@st.composite
def cover_inputs(draw, kind):
    """A dataset, a subset (unsorted with repeats, or strictly ascending as
    the internal callers pass it) and a cover radius that is often exactly
    one of the data's distances."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, dim = draw(st.integers(1, 150)), draw(st.integers(1, 6))
    if kind is MetricKind.HAMMING:
        dim *= 4
        pool = g.integers(0, 2, (draw(st.sampled_from([4, n])), dim))
        points = pool[g.integers(0, pool.shape[0], n)].astype(np.uint8)
    else:
        layout = draw(st.sampled_from(sorted(COVER_LAYOUTS)))
        points = COVER_LAYOUTS[layout](g, (n, dim))
    ds = Dataset(points, kind)
    subset = g.integers(0, n, draw(st.integers(1, 2 * n)))
    if draw(st.booleans()):
        subset = np.unique(subset)
    row = pair_distances(ds.metric, ds.points[subset[0]], ds.points[subset])
    options = [float(v) for v in np.unique(row) if v > 0] + list(GRID_RADII) + [math.inf]
    return ds, subset, draw(st.sampled_from(options))


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_block_cover_picks_the_reference_centers(kind, data):
    ds, subset, radius = data.draw(cover_inputs(kind))
    assert_same_cover(greedy_cover(ds, subset, radius), reference_cover(ds, subset, radius))


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_cover_larger_than_one_block(family):
    # 1500 points allow at most 43 candidates per block; the small radius
    # needs hundreds of centers, so the cover runs through many blocks.
    ds = generate(GeneratorSpec(family, 3 if family is not Family.HAMMING_UNIFORM else 24, 1500, seed=31))
    radius = {Family.UNIFORM_CUBE: 0.08, Family.GAUSSIAN: 0.3, Family.HAMMING_UNIFORM: 0.25}[family]
    subset = np.arange(ds.n)
    got = greedy_cover(ds, subset, radius)
    assert len(got.centers) > 200
    assert_same_cover(got, reference_cover(ds, subset, radius))


# Grid covers whose blocks grow past 64 candidates, so the candidate bitsets
# span several 64-bit words, and whose distances land exactly on the radius.
GRID_COVERS = {
    MetricKind.EUCLIDEAN: (3, 6, 1.0),
    MetricKind.MANHATTAN: (3, 6, 1.0),
    MetricKind.CHEBYSHEV: (5, 6, 1.0),
    MetricKind.HAMMING: (2, 12, 1.0 / 12.0),
}


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
def test_grid_cover_with_wide_blocks_picks_the_reference_centers(kind, monkeypatch):
    values, dim, radius = GRID_COVERS[kind]
    points = np.random.default_rng(7).integers(0, values, (1200, dim))
    ds = Dataset(points.astype(np.uint8 if kind.uses_bits else np.float64), kind)
    blocks, kernel_pairs = [], []
    members, kernel = core._BallScreen.members, core._kernel

    def recorded_members(self, held, picks, *args):
        blocks.append(len(picks))
        return members(self, held, picks, *args)

    def recorded_kernel(metric, a, b, dim, *scratch):
        kernel_pairs.append(a.shape[0])
        return kernel(metric, a, b, dim, *scratch)

    monkeypatch.setattr(core._BallScreen, "members", recorded_members)
    monkeypatch.setattr(core, "_kernel", recorded_kernel)
    got = greedy_cover(ds, np.arange(ds.n), radius)
    monkeypatch.undo()
    assert max(blocks) > 64
    assert (pair_distances(ds.metric, ds.points[:50, None], ds.points[None]) == radius).any()
    if kind is MetricKind.EUCLIDEAN:
        assert kernel_pairs  # some pairs fell in the screen's band
    assert_same_cover(got, reference_cover(ds, np.arange(ds.n), radius))


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_probe_rows_equal_the_reference_cover_records(family, monkeypatch):
    ds = generate(GeneratorSpec(family, 8 if family is not Family.HAMMING_UNIFORM else 64, 600, seed=12))
    got = probe_rows(ds, probes=24, seed=5)
    monkeypatch.setattr(doubling, "greedy_cover", reference_cover)
    assert got == probe_rows(ds, probes=24, seed=5)


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
def test_probe_rows_read_distinct_rows_in_place(kind, monkeypatch):
    if kind.uses_bits:
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, 64, 600, seed=12))
    else:
        ds = Dataset(generate(GeneratorSpec(Family.GAUSSIAN, 8, 600, seed=12)).points, kind)
    # Copies of every seventh row after all the rows: the distinct rows are
    # the first 600, at their own indices, and the diameter is the same.
    doubled = Dataset(np.concatenate([ds.points, ds.points[::7]]), kind)
    with_duplicates = probe_rows(doubled, probes=24, seed=5)
    assert len(core._distinct_rows(ds)) == ds.n
    built, operands = [], []
    ball_operand = core._BallScreen.ball_operand

    def recorded_operand(self, ib):
        operands.append(ib)
        return ball_operand(self, ib)

    monkeypatch.setattr(doubling, "Dataset", lambda *args: built.append(args))
    monkeypatch.setattr(core._BallScreen, "ball_operand", recorded_operand)
    assert probe_rows(ds, probes=24, seed=5) == with_duplicates
    # No copy of the rows, and the probes' operand reads them in place.
    assert built == []
    assert operands[0] == slice(None)


def recorded_cover(monkeypatch, ds, subset, radius):
    """``greedy_cover(ds, subset, radius)`` with the reach of its operand
    (None where the blocks are the kernel's, with no band), the point
    count of each block and the number of pairs the kernel re-measured
    recorded."""
    log = {"bands": [], "widths": [], "kernel_pairs": 0}
    ball_operand, members, kernel = core._BallScreen.ball_operand, core._BallScreen.members, core._kernel

    def recorded_operand(self, ib):
        operand, reach = ball_operand(self, ib)
        log["bands"].append(reach)
        return operand, reach

    def recorded_members(self, held, *args):
        log["widths"].append(len(held))
        return members(self, held, *args)

    def recorded_kernel(metric, a, b, dim, *scratch):
        if not scratch:  # a re-measure; the kernel blocks write into buffers
            log["kernel_pairs"] += a.shape[0]
        return kernel(metric, a, b, dim, *scratch)

    monkeypatch.setattr(core._BallScreen, "ball_operand", recorded_operand)
    monkeypatch.setattr(core._BallScreen, "members", recorded_members)
    monkeypatch.setattr(core, "_kernel", recorded_kernel)
    got = greedy_cover(ds, subset, radius)
    monkeypatch.undo()
    return got, log


@pytest.mark.parametrize("radius", [1.0, 2.0, math.sqrt(2.0), 3.0, np.nextafter(1.0, 0.0), np.nextafter(2.0, 0.0)])
@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_lattice_pairs_at_the_radius_are_decided_by_the_kernel(radius, offset, monkeypatch):
    # Integer points of a 5 x 5 x 5 grid: many pairs lie exactly at each
    # radius, or one ulp beyond it, so their Gram gap is within the band
    # and only the kernel can place them.
    grid = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    ds = Dataset(offset + grid[np.random.default_rng(4).permutation(len(grid))], EUCLID)
    distances = pair_distances(EUCLID, ds.points[:, None], ds.points[None])
    assert ((distances == radius) | (distances == np.nextafter(radius, 3.0))).any()
    got, log = recorded_cover(monkeypatch, ds, np.arange(ds.n), radius)
    assert log["bands"] and log["bands"][0] is not None
    assert log["kernel_pairs"] > 0
    assert_same_cover(got, reference_cover(ds, np.arange(ds.n), radius))


def test_cover_compacts_its_columns_several_times(monkeypatch):
    ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 3000, seed=8))
    got, log = recorded_cover(monkeypatch, ds, np.arange(ds.n), 0.01)
    # Each compaction leaves a narrower copy of the columns.
    assert len(set(log["widths"])) >= 4
    assert_same_cover(got, reference_cover(ds, np.arange(ds.n), 0.01))


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_euclidean_rows_near_overflow_take_the_kernel_path(scale, monkeypatch):
    # Past the screen's range there is no band: the blocks are the
    # kernel's distances (at 1e200 most of them overflow to inf).
    g = np.random.default_rng(9)
    ds = Dataset(scale * g.random((12, 3))[g.integers(0, 12, 200)], EUCLID)
    row = pair_distances(EUCLID, ds.points[0], ds.points)
    for radius in sorted({float(v) for v in row if v > 0})[:3] + [scale, math.inf]:
        got, log = recorded_cover(monkeypatch, ds, np.arange(ds.n), radius)
        assert log["bands"] == [None]
        assert_same_cover(got, reference_cover(ds, np.arange(ds.n), radius))


@pytest.mark.parametrize("radius", [1e-4, 0.003, 0.05, 0.4])
def test_one_dimensional_rows(radius):
    ds = generate(GeneratorSpec(Family.GAUSSIAN, 1, 2000, seed=10))
    assert_same_cover(greedy_cover(ds, np.arange(ds.n), radius), reference_cover(ds, np.arange(ds.n), radius))


@pytest.mark.parametrize("dim", [37, 64, 520, 576])
def test_hamming_rows_of_one_and_nine_words(dim):
    ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, dim, 800, seed=dim))
    row = pair_distances(ds.metric, ds.points[0], ds.points)
    for radius in np.quantile(row, [0.01, 0.1, 0.5]).tolist():
        assert_same_cover(greedy_cover(ds, np.arange(ds.n), radius), reference_cover(ds, np.arange(ds.n), radius))


PROBE_BALL_CASES = [(kind, 0.0) for kind in MetricKind] + [(kind, 1e8) for kind in MetricKind if not kind.uses_bits]


@pytest.mark.parametrize("kind, offset", PROBE_BALL_CASES, ids=lambda c: getattr(c, "value", c))
def test_probe_balls_are_the_kernel_scan_balls(kind, offset, monkeypatch):
    if kind.uses_bits:
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, 96, 700, seed=13))
    else:
        ds = Dataset(offset + generate(GeneratorSpec(Family.GAUSSIAN, 6, 700, seed=13)).points, kind)
    balls = []

    def recorded_cover(ds, ball, radius):
        balls.append(np.asarray(ball).tolist())
        return reference_cover(ds, ball, radius)

    def kernel_members(self, held, picks, operand, reach, radius, out, start=0):
        a, b = self.rows[held[picks]], self.rows[held[start:]]
        return np.flatnonzero(core._kernel(self.metric, a[:, None], b[None], self.dim) <= radius)

    monkeypatch.setattr(doubling, "greedy_cover", recorded_cover)
    probe_rows(ds, probes=32, seed=3)
    got, balls = balls, []
    monkeypatch.setattr(core._BallScreen, "members", kernel_members)
    probe_rows(ds, probes=32, seed=3)
    assert got == balls



@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_cover_cut_short_is_none_exactly_below_its_need(kind, data):
    ds, subset, radius = data.draw(cover_inputs(kind))
    subset = np.unique(subset).astype(np.int64)
    full = greedy_cover(ds, subset, radius)
    need = data.draw(st.integers(0, subset.size + 1))
    got = doubling._cover(ds, subset, radius, need)
    if len(full.centers) < need:
        assert got is None
    else:
        assert_same_cover(got, full)


def reference_estimate(ds, probes, seed):
    """The estimate from every full cover: log2 of the largest
    ``probe_rows`` count, at the earliest probe that reaches it."""
    records = probe_rows(ds, probes, seed)
    top = max(r.cover_count for r in records)
    worst = next(r for r in records if r.cover_count == top)
    return DoublingEstimate(math.log2(top), probes, (worst.center, worst.radius))


# Layouts for the estimate: the cover layouts (duplicates in "pool", tied
# counts in "grid"), one distinct row and two points.
ESTIMATE_LAYOUTS = {
    **COVER_LAYOUTS,
    "one": lambda g, shape: np.broadcast_to(g.random(shape[1]), shape).copy(),
    "two": lambda g, shape: g.random((2, shape[1])),
}


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_estimate_equals_the_estimate_from_every_full_cover(kind, data):
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, dim = data.draw(st.integers(1, 120)), data.draw(st.integers(1, 5))
    layout = data.draw(st.sampled_from(sorted(ESTIMATE_LAYOUTS)))
    if kind is MetricKind.HAMMING:
        # Bits above the median value: equal rows stay equal.
        points = ESTIMATE_LAYOUTS[layout](g, (n, 4 * dim))
        points = (points > np.median(points)).astype(np.uint8)
    else:
        points = ESTIMATE_LAYOUTS[layout](g, (n, dim))
    ds = Dataset(points, kind)
    probes, seed = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 2**20))
    assert doubling_estimate(ds, probes, seed) == reference_estimate(ds, probes, seed)


@pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
def test_tied_counts_keep_the_earliest_probe(kind):
    # Rows of a 3 x 3 x 3 grid (a cube of 8 bits for Hamming), repeated:
    # several probes after the first share the largest count.
    g = np.random.default_rng(3)
    if kind.uses_bits:
        ds, seed = Dataset(g.integers(0, 2, (400, 8)).astype(np.uint8), kind), 17
    else:
        ds, seed = Dataset(g.integers(0, 3, (400, 3)).astype(np.float64), kind), 1
    records = probe_rows(ds, probes=48, seed=seed)
    top = max(r.cover_count for r in records)
    tied = [r for r in records if r.cover_count == top]
    assert len(tied) > 1 and tied[0] is not records[0]
    est = doubling_estimate(ds, probes=48, seed=seed)
    assert est.worst_ball == (tied[0].center, tied[0].radius)
    assert est.rho_hat == math.log2(top)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_estimate_screens_fewer_blocks_than_the_full_covers(family, monkeypatch):
    # Every ball and every cover block is one members call: the estimate
    # skips the balls too small to pass the best count and cuts the covers
    # that cannot pass it, so it makes fewer calls than covering every ball.
    ds = generate(GeneratorSpec(family, 8 if family is not Family.HAMMING_UNIFORM else 64, 600, seed=12))
    calls = []
    members = core._BallScreen.members

    def counted_members(self, *args, **kwargs):
        calls.append(1)
        return members(self, *args, **kwargs)

    monkeypatch.setattr(core._BallScreen, "members", counted_members)
    probe_rows(ds, probes=64, seed=5)
    full = len(calls)
    calls.clear()
    est = doubling_estimate(ds, probes=64, seed=5)
    monkeypatch.undo()
    assert len(calls) < full
    assert est == reference_estimate(ds, 64, 5)

class TestGreedyCover:
    def test_single_point(self):
        ds = line_dataset([0.7])
        cover = greedy_cover(ds, [0], radius=0.1)
        assert cover.centers.tolist() == [0]
        assert cover.covered_count == 1

    def test_two_points_small_and_large_radius(self):
        ds = line_dataset([0.0, 1.0])
        assert len(greedy_cover(ds, [0, 1], 0.4).centers) == 2
        assert len(greedy_cover(ds, [0, 1], 1.0).centers) == 1

    def test_hundred_uniform_points_vs_optimal(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 1, 100, seed=17))
        cover = greedy_cover(ds, np.arange(100), 0.25)
        optimal = optimal_interval_cover(ds.points[:, 0].tolist(), 0.25)
        assert len(cover.centers) <= 4 * optimal
        assert len(cover.centers) <= 4  # optimal is at most 2 intervals here

    def test_empty_subset_rejected(self):
        with pytest.raises(InvalidInputError):
            greedy_cover(line_dataset([0.0]), [], 0.5)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            greedy_cover(line_dataset([0.0]), [0], 0.0)

    @pytest.mark.parametrize("subset", [[-1, 0], [0.7, 1.2], [7], [0, 3], [True, False], [[0, 1]]])
    def test_invalid_indices_rejected(self, subset):
        with pytest.raises(InvalidInputError):
            greedy_cover(line_dataset([0.0, 1.0, 2.0]), subset, 0.5)

    def test_duplicate_indices_count_once(self):
        cover = greedy_cover(line_dataset([0.0, 1.0, 2.0]), [1, 1, 0], 0.5)
        assert cover.centers.tolist() == [0, 1]
        assert cover.covered_count == 2
        assert cover.owners.tolist() == [0, 1]

    def test_owner_is_the_first_center_in_reach(self):
        # point 1 is nearer to center 2 but was covered first by center 0
        cover = greedy_cover(line_dataset([0.0, 1.0, 1.5]), [0, 1, 2], 1.0)
        assert cover.centers.tolist() == [0, 2]
        assert cover.owners.tolist() == [0, 0, 1]

    def test_infinite_radius_takes_one_center(self):
        ds = generate(GeneratorSpec(Family.GAUSSIAN, 4, 300, seed=2))
        cover = greedy_cover(ds, np.arange(300)[::-1], math.inf)
        assert cover.centers.tolist() == [0]
        assert cover.covered_count == 300

    @given(
        xs=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40),
        r=st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cover_validity(self, xs, r):
        ds = line_dataset(xs)
        subset = np.arange(len(xs))
        cover = greedy_cover(ds, subset, r)
        for i in subset:
            assert any(distance(EUCLID, ds.points[i], ds.points[c]) <= r for c in cover.centers)
        # centers are pairwise more than r apart, so greedy is within the
        # packing bound of any optimal cover
        for a in cover.centers:
            for b in cover.centers:
                if a != b:
                    assert distance(EUCLID, ds.points[a], ds.points[b]) > r


class TestDoublingEstimate:
    def test_single_point(self):
        est = doubling_estimate(line_dataset([0.5]), probes=10, seed=0)
        assert est.rho_hat == 0.0
        assert est.balls_probed == 10

    def test_all_duplicates(self):
        est = doubling_estimate(line_dataset([1.0, 1.0, 1.0]), probes=5, seed=0)
        assert est.rho_hat == 0.0

    def test_dense_interval(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 1, 5000, seed=23))
        est = doubling_estimate(ds, probes=200, seed=5)
        assert 1.0 <= est.rho_hat <= 3.0

    def test_two_far_identical_clusters(self):
        pts = np.array([[0.0]] * 10 + [[1.0]] * 10)
        ds = Dataset(pts, EUCLID)
        est = doubling_estimate(ds, probes=8, seed=2)
        assert est.rho_hat >= 1.0

    def test_never_exceeds_log2_n(self):
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, 16, 200, seed=1))
        est = doubling_estimate(ds, probes=50, seed=1)
        assert est.rho_hat <= math.log2(200)

    def test_duplicates_do_not_change_estimate(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 300, seed=9))
        doubled = Dataset(np.vstack([ds.points, ds.points[:150]]), ds.metric)
        a = doubling_estimate(ds, probes=40, seed=4)
        b = doubling_estimate(doubled, probes=40, seed=4)
        assert a.rho_hat == b.rho_hat

    def test_probe_count_required(self):
        with pytest.raises(InvalidInputError):
            doubling_estimate(line_dataset([0.0, 1.0]), probes=0)

    @pytest.mark.parametrize("probe", [doubling_estimate, probe_rows])
    def test_an_underflowing_diameter_bound_is_refused(self, probe):
        # Every squared difference of coordinates near 1e-300 underflows: 50
        # distinct rows with a Euclidean diameter bound of 0, which every
        # probe radius would make one ball of one center.
        pts = np.random.default_rng(0).uniform(-1e-300, 1e-300, (50, 3))
        ds = Dataset(pts, EUCLID)
        assert core.diameter_upper_bound(ds) == 0.0
        with pytest.raises(InvalidInputError, match="^the diameter bound of distinct rows underflows to 0"):
            probe(ds, probes=8)
        # Their Manhattan distances do not underflow.
        assert doubling_estimate(Dataset(pts, MetricKind.MANHATTAN), probes=8).rho_hat > 0

    def test_probe_rows_back_the_estimate(self):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, 2, 200, seed=6))
        records = probe_rows(ds, probes=30, seed=3)
        est = doubling_estimate(ds, probes=30, seed=3)
        assert len(records) == 30
        assert math.log2(max(r.cover_count for r in records)) == est.rho_hat
        assert records[0].radius == max(r.radius for r in records)  # first probe pinned at the top scale
        for r in records:
            assert r.cover_count >= 1 and r.radius > 0

    def test_rank_agreement_with_dispersion_dimension(self):
        rhos, dims = [], []
        for d in (8, 32, 128):
            ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, d, 1500, seed=rng.derive_seed(3, d)))
            rhos.append(doubling_estimate(ds, probes=48, seed=rng.derive_seed(4, d)).rho_hat)
            dims.append(dataset_cnbym(ds))
        assert sorted(range(3), key=lambda i: rhos[i]) == sorted(range(3), key=lambda i: dims[i])
