import hashlib
import math

import numpy as np
import pytest

from metricdim import cli, core, diststats, rng
from metricdim.core import EXACT_DIAMETER_LIMIT, InvariantViolation, MetricKind, load_dataset
from metricdim.doubling import probe_rows


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def header_lines(text):
    return dict(
        line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# ") and "=" in line
    )


class TestDeterminism:
    COMMANDS = [
        ["generate", "--family", "uniform-cube", "--d", "3", "--n", "20"],
        ["fig-a", "--d", "2,20", "--n", "40", "--seeds", "1,2"],
        ["fig-b", "--d", "1,2,5", "--n", "150", "--seeds", "3"],
        ["fig-c", "--d", "8,16", "--n", "300", "--k", "4", "--grid", "21"],
        ["fig-d", "--n", "300", "--k", "4", "--target", "3", "--queries", "5"],
        ["pivot-sweep", "--family", "hamming", "--d", "8,32", "--n", "200", "--k", "4", "--target", "3", "--queries", "5"],
        ["pivot-sweep", "--family", "uniform-cube", "--d", "2,6", "--n", "200", "--k", "4", "--policy", "farthest-first", "--target", "3", "--queries", "5"],
        ["nettree-stats", "--workloads", "uniform-cube:2,hamming:16", "--n", "150", "--queries", "5", "--probes", "8"],
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_repeat_runs_byte_identical(self, args, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_estimate_deterministic(self, tmp_path, capsys):
        data = tmp_path / "pts.txt"
        assert cli.main(["generate", "--family", "gaussian", "--d", "2", "--n", "60", "--out", str(data)]) == 0
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        base = ["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "8"]
        assert cli.main(base + ["--out", str(out1)]) == 0
        assert cli.main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestHeaders:
    def test_default_seed_echoed(self, capsys):
        code, out, _ = run_cli(["fig-c", "--d", "8", "--n", "100", "--k", "2", "--grid", "11"], capsys)
        assert code == 0
        config = header_lines(out)
        assert config["seed"] == "42"
        assert config["quartiles"] == "linear-order-statistics-type-7"
        assert config["variance"] == "unbiased-count-minus-1"
        assert "version" in config

    def test_fig_a_echoes_n(self, capsys):
        code, out, _ = run_cli(["fig-a", "--d", "2", "--n", "30", "--seeds", "5"], capsys)
        assert code == 0
        assert header_lines(out)["n"] == "30"


class TestFigA:
    def test_relative_iqr_shrinks_with_dimension(self, capsys):
        code, out, _ = run_cli(["fig-a", "--d", "2,2000", "--n", "100", "--seeds", "42"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        by_d = {int(r["d"]): r for r in rows}
        rel = {
            d: (float(r["q3"]) - float(r["q1"])) / float(r["median"]) for d, r in by_d.items()
        }
        assert rel[2000] < rel[2]


class TestFigB:
    def test_rows_and_growth(self, capsys):
        code, out, _ = run_cli(["fig-b", "--d", "1,8", "--n", "400", "--seeds", "0"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        dims = {int(r["d"]): float(r["dim_cnbym"]) for r in rows}
        assert dims[1] < dims[8]

    def test_doubling_n_shrinks_seed_spread(self, capsys):
        # Monte-Carlo check, ~20s: the estimator's seed-to-seed variance
        # should roughly halve when n doubles. Measured ratio 0.663 with
        # these seeds; the [0.3, 0.8] band is deterministic once frozen.
        seeds = ",".join(str(s) for s in range(20))

        def dims(n):
            code, out, _ = run_cli(["fig-b", "--d", "5", "--n", str(n), "--seeds", seeds], capsys)
            assert code == 0
            _, rows = parse_csv(out)
            return np.array([float(r["dim_cnbym"]) for r in rows])

        ratio = dims(6000).var(ddof=1) / dims(3000).var(ddof=1)
        assert 0.3 < ratio < 0.8


class TestFigC:
    def test_dimension_increases_with_d(self, capsys):
        code, out, _ = run_cli(["fig-c", "--d", "16,64,256", "--n", "5000", "--k", "16", "--grid", "101"], capsys)
        assert code == 0
        config = header_lines(out)
        dims = [float(config[f"dim_alpha[{d}]"]) for d in (16, 64, 256)]
        assert dims[0] < dims[1] < dims[2]

    def test_bound_column_dominates(self, capsys):
        code, out, _ = run_cli(["fig-c", "--d", "64", "--n", "2000", "--k", "8", "--grid", "41"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            if float(r["eps"]) >= 0.1:
                assert float(r["alpha_hat"]) <= float(r["chernoff_bound"]) + 0.1
        config = header_lines(out)
        assert "dim_alpha[64]" in config


class TestEstimate:
    def test_collinear_triple(self, tmp_path, capsys):
        data = tmp_path / "three.txt"
        data.write_text("0\n1\n3\n")
        code, out, _ = run_cli(["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "4"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        stats = {r["statistic"]: r["value"] for r in rows}
        assert float(stats["characteristic_size"]) == 2.0
        assert float(stats["dim_cnbym"]) == 2.0
        assert float(stats["diameter_bound"]) == 3.0
        assert stats["diameter_method"] == "exact-scan"
        assert "dim_alpha" in stats and "rho_hat" in stats

    def test_large_dataset_reports_triangle_bound(self, tmp_path, capsys):
        data = tmp_path / "big.txt"
        assert cli.main(["generate", "--family", "uniform-cube", "--d", "2", "--n", "2100", "--out", str(data)]) == 0
        code, out, _ = run_cli(
            ["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "4", "--k", "8"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        stats = {r["statistic"]: r["value"] for r in rows}
        assert stats["diameter_method"] == "triangle-bound"
        assert float(stats["diameter_bound"]) >= math.sqrt(2) * 0.9

    def test_sampled_pair_statistics_are_pinned(self, tmp_path, capsys):
        # 3200 points is past the pair budget (3162), so the pair statistics
        # come from a sample; these strings pin its draws and its order.
        data = tmp_path / "g.txt"
        generate = ["generate", "--family", "gaussian", "--d", "8", "--n", "3200", "--seed", "5"]
        assert cli.main(generate + ["--out", str(data)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        stats = {r["statistic"]: r["value"] for r in rows}
        assert stats["characteristic_size"] == "3.889879016478002"
        assert stats["dim_cnbym"] == "7.893601633174461"
        assert stats["mean_eps_nn"] == "1.2068901301984096"
        assert stats["nn_ratio"] == "0.3102641817614059"

    def test_duplicate_rows_probe_the_printed_bound(self, tmp_path, capsys):
        # More rows than EXACT_DIAMETER_LIMIT but fewer distinct ones: the
        # probes read the file's triangle bound, not an exact scan of the
        # distinct rows.
        pts = np.random.default_rng(4).standard_normal((2000, 8))
        pts = np.vstack([pts, pts[:100]])
        assert pts.shape[0] > EXACT_DIAMETER_LIMIT >= np.unique(pts, axis=0).shape[0]
        data = tmp_path / "dup.txt"
        data.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in pts))
        code, out, _ = run_cli(["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        stats = {r["statistic"]: r["value"] for r in rows}
        assert stats["diameter_method"] == "triangle-bound"
        ds = load_dataset(data, MetricKind.EUCLIDEAN)
        first = probe_rows(ds, 2, seed=rng.derive_seed(cli.DEFAULT_SEED, 13))[0]
        assert first.radius == float(stats["diameter_bound"])

    def test_empty_file_fails_with_exit_one(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("")
        code, _, err = run_cli(["estimate", "--in", str(data), "--metric", "euclidean"], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_diameter_fails_cleanly(self, tmp_path, capsys):
        # Distances between coordinates near 1e300 overflow the doubles; the
        # refusal names that, before any statistic warns.
        pts = np.random.default_rng(0).uniform(-1e300, 1e300, (50, 3))
        data = tmp_path / "huge.txt"
        data.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in pts))
        code, out, err = run_cli(["estimate", "--in", str(data), "--metric", "euclidean"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: the diameter bound overflows to inf; the coordinates are too large\n"

    def test_parse_error_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("1.0\nnope\n")
        code, _, err = run_cli(["estimate", "--in", str(data), "--metric", "euclidean"], capsys)
        assert code == 1
        assert "line 2" in err

    def test_single_point_dataset_still_reports(self, tmp_path, capsys):
        data = tmp_path / "one.txt"
        data.write_text("1.5 2.5\n")
        code, out, _ = run_cli(["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        stats = {r["statistic"]: r["value"] for r in rows}
        assert float(stats["rho_hat"]) == 0.0
        assert "characteristic_size" not in stats  # pairwise stats undefined at n=1

    def test_two_point_dataset_reports(self, tmp_path, capsys):
        data = tmp_path / "two.txt"
        data.write_text("0.5 1.0\n2.0 -1.0\n")
        code, out, _ = run_cli(["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        stats = {r["statistic"]: r["value"] for r in rows}
        assert float(stats["characteristic_size"]) == 2.5
        assert stats["dim_cnbym"] == "degenerate"  # one pair distance has no variance
        assert float(stats["mean_eps_nn"]) == 2.5 and float(stats["nn_ratio"]) == 1.0
        assert [r["value"] for r in rows if r["statistic"] == "note"] == [
            "two-point dataset; one pair distance has no variance"
        ]

    def test_all_identical_dataset_reports(self, tmp_path, capsys):
        data = tmp_path / "same.txt"
        data.write_text("1 2 3\n" * 4)
        code, out, _ = run_cli(["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        stats = {r["statistic"]: r["value"] for r in rows}
        assert float(stats["characteristic_size"]) == 0.0
        for name in ("dim_cnbym", "mean_eps_nn", "nn_ratio", "dim_alpha"):
            assert stats[name] == "degenerate"
        assert float(stats["rho_hat"]) == 0.0
        assert [r["value"] for r in rows if r["statistic"] == "note"] == [
            "all points identical; leave-one-out leaves no nearest neighbor"
        ]


class TestDiameterScans:
    """Every command scans the row bands of each dataset at most once: the
    one scan yields both the exact diameter and the nearest distances."""

    @pytest.fixture
    def scans(self, monkeypatch):
        sizes = []
        scan = core._BallScreen.extremes

        def counted(screen):
            sizes.append(screen.rows.shape[0])
            return scan(screen)

        monkeypatch.setattr(core._BallScreen, "extremes", counted)
        return sizes

    @pytest.mark.parametrize("n, expected", [(300, [300]), (EXACT_DIAMETER_LIMIT + 52, [])], ids=["exact", "triangle"])
    def test_estimate(self, n, expected, scans, tmp_path, capsys):
        # Above the limit the diameter is the triangle bound, and nothing
        # else in estimate reads the scan.
        data = tmp_path / "g.txt"
        assert cli.main(["generate", "--family", "gaussian", "--d", "3", "--n", str(n), "--out", str(data)]) == 0
        args = ["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "2", "--k", "4", "--grid", "11"]
        assert run_cli(args, capsys)[0] == 0
        assert scans == expected

    def test_nettree_stats(self, scans, capsys):
        # The probes scan each dataset for its diameter; the tree reads its
        # nearest distances (and, on real workloads, its top radius) from
        # that same scan.
        args = ["nettree-stats", "--n", "300", "--queries", "3", "--probes", "4"]
        assert run_cli(args, capsys)[0] == 0
        assert scans == [300, 300, 300]

    def test_fig_a(self, scans, capsys):
        assert run_cli(["fig-a", "--d", "2,20,200", "--n", "40"], capsys)[0] == 0
        assert scans == [40, 40, 40]


class TestHammingOutputDigests:
    """SHA-256 of small Hamming outputs, recorded with the uint8 kernel
    ``(a != b).sum``; the packed popcount kernel must give the same bytes.
    The 2,000-row file takes the exact diameter scan and every pair, the
    4,000-row file the triangle bound and the sampled pairs. The sampled
    digest was recorded again when the sample's variance came to be merged
    leaf by leaf (``diststats.pair_moments``): its ``dim_cnbym`` moved from
    35.047439784892134 to 35.04743978489213, and no other row changed."""

    DIGESTS = {
        "fig-c": (["fig-c", "--d", "16,64", "--n", "2000"], "adc2397f451a3f02c919c05faf42e30f3b68edaa4a1dcc401ecfffc815a016b9"),
        "pivot-sweep": (
            ["pivot-sweep", "--family", "hamming", "--d", "8,32,128", "--n", "2000"],
            "f6c40ef4543e493f8082ed6ee0549003dcf65e281adccb282a93f3bf42db3902",
        ),
        "nettree-stats": (
            ["nettree-stats", "--workloads", "hamming:16,hamming:64", "--n", "500"],
            "93a192c5d9e6a898b27290c22694f50c7c7890794381e8c1e2d789e6dec426b7",
        ),
        "estimate-exact": (
            ["estimate", "--metric", "hamming", "--in", "bits2000.txt"],
            "9c5f693318ed570797d4cc8b4a0ecc27b6e362b59f5ff6ea9c9b5c5914e1e9e7",
        ),
        "estimate-sampled": (
            ["estimate", "--metric", "hamming", "--in", "bits4000.txt"],
            "2146a85ed6c7a093ad1b1ec8dd24e246dcfc4d365359750d4164131bd11a3d84",
        ),
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_output_matches_its_digest(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # estimate echoes its relative --in path
        for n in (2000, 4000):
            assert cli.main(["generate", "--family", "hamming", "--d", "70", "--n", str(n), "--out", f"bits{n}.txt"]) == 0
        args, digest = self.DIGESTS[name]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sampled_output_is_independent_of_the_worker_count(self, workers, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(diststats, "_usable_cpus", lambda: workers)
        self.test_output_matches_its_digest("estimate-sampled", tmp_path, monkeypatch, capsys)


class TestCoverOutputDigests:
    """SHA-256 of small real-metric outputs whose doubling probes and net
    trees run greedy covers, recorded with the one-center-at-a-time settle
    loop and a screen prepared per block; the prepared screen and the bitset
    picks must give the same bytes. The 2,000-row file takes the exact
    diameter scan and every pair, the 4,000-row file the triangle bound and
    the sampled pairs (3,000 rows would still enumerate every pair)."""

    DIGESTS = {
        "nettree-stats": (
            ["nettree-stats", "--workloads", "uniform-cube:1,uniform-cube:8,gaussian:4", "--n", "500"],
            "3822313e9069caa6d6b70801780a97eecca4d2ee52c4a4ef8be7ee79da2e86e9",
        ),
        "estimate-exact": (
            ["estimate", "--metric", "euclidean", "--in", "gauss2000.txt"],
            "c469ab0ed0e574abf2ae9d31445ca05b2837d214852d761a37aa4b2006603187",
        ),
        "estimate-sampled": (
            ["estimate", "--metric", "euclidean", "--in", "gauss4000.txt"],
            "ab6da3a9ed7977ccf63287f9d27d2753cc3d1e53817d5a48fe8cb9e3f64db24b",
        ),
        "estimate-manhattan": (
            ["estimate", "--metric", "manhattan", "--in", "gauss2000.txt"],
            "4d0462c050f663721fb7779ddec00ab427d758bbc3d3b02ce4ee511c5581bd10",
        ),
        "estimate-chebyshev": (
            ["estimate", "--metric", "chebyshev", "--in", "gauss2000.txt"],
            "a54ab6ca6dca1f200015fed3c10d2de3d138fd57395750987215716ebb067b17",
        ),
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_output_matches_its_digest(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # estimate echoes its relative --in path
        for n in (2000, 4000):
            assert cli.main(["generate", "--family", "gaussian", "--d", "8", "--n", str(n), "--out", f"gauss{n}.txt"]) == 0
        args, digest = self.DIGESTS[name]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sampled_output_is_independent_of_the_worker_count(self, workers, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(diststats, "_usable_cpus", lambda: workers)
        self.test_output_matches_its_digest("estimate-sampled", tmp_path, monkeypatch, capsys)


class TestGenerateCommand:
    def test_round_trips_through_estimate(self, tmp_path, capsys):
        data = tmp_path / "bits.txt"
        assert cli.main(["generate", "--family", "hamming", "--d", "16", "--n", "50", "--out", str(data)]) == 0
        body = [l for l in data.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 50
        assert set(body[0]) <= {"0", "1"}
        code, out, _ = run_cli(["estimate", "--in", str(data), "--metric", "hamming", "--probes", "4"], capsys)
        assert code == 0

    def test_real_output_full_precision(self, tmp_path):
        assert cli.main(["generate", "--family", "gaussian", "--d", "1", "--n", "3", "--out", str(tmp_path / "g.txt")]) == 0
        from metricdim.core import MetricKind, load_dataset
        from metricdim.generate import Family, GeneratorSpec, generate

        loaded = load_dataset(tmp_path / "g.txt", MetricKind.EUCLIDEAN)
        direct = generate(GeneratorSpec(Family.GAUSSIAN, 1, 3, 42))
        np.testing.assert_array_equal(loaded.points, direct.points)


class TestExitCodes:
    def test_unknown_flag_is_invalid_input(self, capsys):
        assert run_cli(["fig-a", "--bogus", "1"], capsys)[0] == 1

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(["estimate", "--in", "/nonexistent/pts.txt", "--metric", "euclidean"], capsys)
        assert code == 1
        assert "error" in err

    def test_unwritable_output_path(self, capsys):
        code, _, err = run_cli(["fig-a", "--d", "2", "--n", "20", "--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 1

    def test_bad_workload_spec(self, capsys):
        assert run_cli(["nettree-stats", "--workloads", "nope:zz"], capsys)[0] == 1

    # Each of these once printed a header and no rows (or, for fig-b --d,
    # the whole --d-max range) and exited 0.
    @pytest.mark.parametrize(
        "args, message",
        [
            (["fig-a", "--d", ""], "non-empty"),
            (["fig-a", "--seeds", ","], "non-empty"),
            (["fig-b", "--d", ""], "non-empty"),
            (["fig-b", "--seeds", ""], "non-empty"),
            (["fig-b", "--d-max", "0"], "--d-max must be >= 1"),
            (["fig-b", "--d-max", "-3"], "--d-max must be >= 1"),
            (["fig-c", "--d", ""], "non-empty"),
            (["pivot-sweep", "--family", "uniform-cube", "--d", ""], "non-empty"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_empty_integer_lists_are_refused(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err

    def test_invariant_violation_maps_to_two(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InvariantViolation("forced")

        monkeypatch.setattr(cli, "run_fig_a", boom)
        assert run_cli(["fig-a", "--d", "2"], capsys)[0] == 2

    def test_self_test_flag_accepted(self, capsys):
        code, _, _ = run_cli(["fig-a", "--d", "2,8", "--n", "30", "--seeds", "1", "--self-test"], capsys)
        assert code == 0


class TestSelfTestChecks:
    """estimate's and fig-c's --self-test checks: each exits 2 when made to
    fail, and passing they leave stdout as it is without the flag."""

    FIG_C = ["fig-c", "--d", "16,64", "--n", "2000", "--k", "8", "--grid", "41"]
    FILES = {
        "gaussian": ("euclidean", ["generate", "--family", "gaussian", "--d", "5", "--n", "300"]),
        "bits": ("hamming", ["generate", "--family", "hamming", "--d", "70", "--n", "300"]),
        "two-points": ("manhattan", "0 1\n3 5\n"),
        "identical": ("chebyshev", "1 2\n1 2\n1 2\n"),
    }

    def estimate_args(self, name, tmp_path, capsys):
        metric, source = self.FILES[name]
        path = tmp_path / f"{name}.txt"
        if isinstance(source, str):
            path.write_text(source)
        else:
            assert run_cli(source + ["--out", str(path)], capsys)[0] == 0
        return ["estimate", "--in", str(path), "--metric", metric, "--probes", "8"]

    @pytest.mark.parametrize("name", ["fig-c", *FILES])
    def test_passing_checks_leave_stdout_unchanged(self, name, tmp_path, capsys):
        args = self.FIG_C if name == "fig-c" else self.estimate_args(name, tmp_path, capsys)
        plain = run_cli(args, capsys)
        checked = run_cli(args + ["--self-test"], capsys)
        assert plain[0] == checked[0] == 0
        assert checked[1] == plain[1]

    def test_fig_c_alpha_above_the_bound_plus_slack_exits_two(self, capsys, monkeypatch):
        # alpha_hat is 1 at eps = 0, where the bound is 1 too.
        monkeypatch.setattr(cli, "union_bound_slack", lambda n, k, grid: -0.5)
        code, out, err = run_cli(self.FIG_C + ["--self-test"], capsys)
        assert (code, out) == (2, "")
        assert "exceeds the Chernoff bound plus slack" in err

    @pytest.mark.parametrize(
        "name, patch, message",
        [
            ("_PAIR_TOLERANCE", -0.5, "exceeds the diameter bound"),
            ("_distinct_rows", lambda ds: np.arange(1), "rho_hat exceeds log2"),
        ],
        ids=["pair-distance-above-the-bound", "rho-above-log2-distinct-rows"],
    )
    def test_estimate_check_made_to_fail_exits_two(self, name, patch, message, tmp_path, capsys, monkeypatch):
        args = self.estimate_args("gaussian", tmp_path, capsys)
        monkeypatch.setattr(cli, name, patch)
        assert run_cli(args, capsys)[0] == 0
        code, out, err = run_cli(args + ["--self-test"], capsys)
        assert (code, out) == (2, "")
        assert message in err


def test_nettree_stats_columns(capsys):
    code, out, _ = run_cli(
        ["nettree-stats", "--workloads", "uniform-cube:1,hamming:16", "--n", "120", "--queries", "4", "--probes", "6", "--self-test"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["family", "d", "rho_hat", "max_degree", "depth", "mean_distance_computations"]
    assert len(rows) == 2


def test_fig_d_columns(capsys):
    code, out, _ = run_cli(["fig-d", "--n", "200", "--k", "4", "--target", "3", "--queries", "4"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 5  # canonical ladder
    assert "mean_discarded_fraction" in header
