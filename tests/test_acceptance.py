"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values (run with -s to see them inline).

Regression constants marked FROZEN were measured once on the default
seeds and then pinned; everything else is an analytic oracle or an
ordering check computed at run time.
"""

import math

import numpy as np
import pytest

from metricdim import cli, rng
from metricdim.concentration import (
    chernoff_alpha,
    chernoff_curve,
    concentration_dimension,
    empirical_concentration,
    union_bound_slack,
)
from metricdim.core import Dataset, MetricKind
from metricdim.diststats import (
    SampledPairs,
    cnbym_dimension,
    dataset_cnbym,
    moments,
    nn_statistics,
    pairwise_distances,
)
from metricdim.doubling import doubling_estimate
from metricdim.generate import Family, GeneratorSpec, generate
from metricdim.nettree import build_net_tree, net_range_query, verify_net_invariants
from metricdim.pivot import (
    DEFAULT_LADDER,
    RandomPivots,
    build_pivot_index,
    calibrate_eps,
    degradation_sweep,
    range_query,
    sequential_scan,
)

EUCLID = MetricKind.EUCLIDEAN


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_uniform_segment_dimension():
    """1-d uniform workload has dispersion dimension 1 (E=1/3, var=1/18)."""
    pts = rng.matrix_uniform01(42, 20_000, 1)
    ds = Dataset(pts, EUCLID, seed=42)
    sample = pairwise_distances(ds, SampledPairs(5_000_000, seed=7))
    dim = cnbym_dimension(moments(sample))
    report(1, 0.95 <= dim <= 1.05, f"uniform segment dim_cnbym={dim:.4f}, analytic 1.0, band [0.95, 1.05]")


def test_c02_bit_cube_dimension():
    """Bit-cube dispersion dimension matches the binomial-moment value d/2."""
    errors = {}
    for d in (8, 32, 128):
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, d, 4000, rng.derive_seed(42, d)))
        dim = dataset_cnbym(ds)
        errors[d] = abs(dim - d / 2) / (d / 2)
    worst = max(errors.values())
    report(2, worst < 0.10, f"bit cube dim_cnbym rel errors {errors} (tolerance 10%)")


def test_c03_gaussian_dimension_growth():
    """Gaussian dimension estimates grow strictly in d for all ten seeds."""
    d_values = (1, 2, 5, 10, 20, 50)
    monotone_seeds = 0
    d1_values = []
    for seed in range(10):
        dims = []
        for d in d_values:
            ds = generate(GeneratorSpec(Family.GAUSSIAN, d, 3000, rng.derive_seed(seed, d)))
            dims.append(dataset_cnbym(ds))
        monotone_seeds += all(a < b for a, b in zip(dims, dims[1:]))
        d1_values.append(dims[0])
    d1_ok = all(0.8 <= v <= 1.2 for v in d1_values)
    report(
        3,
        monotone_seeds == 10 and d1_ok,
        f"strictly increasing for {monotone_seeds}/10 seeds; d=1 estimates "
        f"[{min(d1_values):.3f}, {max(d1_values):.3f}] in [0.8, 1.2] (analytic 0.873)",
    )


def test_c04_normalized_dispersion_shrinks():
    """Relative interquartile range of normalized distances shrinks with d."""
    from metricdim.cli import run_fig_a

    text = run_fig_a([2, 20, 200, 2000], n=100, seeds=tuple(range(10)))
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith(("#", "seed"))]
    per_seed = {}
    for seed, d, median, q1, q3, *_ in rows:
        per_seed.setdefault(int(seed), {})[int(d)] = (float(q3) - float(q1)) / float(median)
    good = sum(
        all(rel[a] > rel[b] for a, b in zip((2, 20, 200), (20, 200, 2000))) for rel in per_seed.values()
    )
    report(4, good >= 9, f"relative IQR strictly decreasing for {good}/10 seeds (need >= 9)")


def test_c05_concentration_bound_and_ordering():
    """Empirical bit-cube concentration sits below exp(-2 eps^2 d) + slack."""
    n, k, grid = 20_000, 32, 201
    ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, 128, n, rng.derive_seed(42, 128)))
    curve = empirical_concentration(ds, k, grid, seed=rng.derive_seed(42, 128, 1))
    slack = union_bound_slack(n, k, grid)
    margins = [
        chernoff_alpha(128, eps) + slack - alpha
        for eps, alpha in zip(curve.grid, curve.alpha)
        if eps >= 0.05
    ]
    curves = {}
    for d in (16, 256):
        dsd = generate(GeneratorSpec(Family.HAMMING_UNIFORM, d, n, rng.derive_seed(42, d)))
        curves[d] = empirical_concentration(dsd, k, grid, seed=rng.derive_seed(42, d, 1))
    idx02 = 40  # eps = 0.2 on the 201-point grid
    ordered = curves[16].alpha[idx02] > curves[256].alpha[idx02]
    report(
        5,
        min(margins) >= 0 and ordered,
        f"d=128 curve below bound at all eps >= 0.05 (min margin {min(margins):.4f}, slack {slack:.4f}); "
        f"alpha(0.2): d16={curves[16].alpha[idx02]:.4f} > d256={curves[256].alpha[idx02]:.6f}",
    )


def test_c06_dimension_quadrature():
    """Trapezoid dimension of the d=50 bound curve matches fine quadrature."""
    dim = concentration_dimension(chernoff_curve(50, 2001))
    n_fine = 200_001
    h = 1.0 / (n_fine - 1)
    total, prev = 0.0, 1.0
    for i in range(1, n_fine):
        x = i * h
        f = min(1.0, math.exp(-100.0 * x * x))
        total += 0.5 * (prev + f) * h
        prev = f
    oracle = 1.0 / (2.0 * total) ** 2
    rel = abs(dim - oracle) / oracle
    report(6, rel < 0.005, f"dim_alpha(d=50) = {dim:.6f} vs fine quadrature {oracle:.6f}, rel err {rel:.2e}")


def test_c07_empty_space_ratio_growth():
    """Mean NN distance approaches the characteristic size as d grows."""
    ratios = []
    for d in (2, 20, 200):
        ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, d, 1000, rng.derive_seed(42, 1, d)))
        qs = generate(GeneratorSpec(Family.UNIFORM_CUBE, d, 200, rng.derive_seed(42, 2, d)))
        ratios.append(nn_statistics(ds, qs).ratio)
    ok = ratios[0] < ratios[1] < ratios[2]
    report(7, ok, "nn/characteristic ratios " + " < ".join(f"{r:.4f}" for r in ratios))


def test_c08_index_exactness():
    """500 queries per family: pivot table and net tree equal the scan."""
    workloads = [(Family.UNIFORM_CUBE, 4), (Family.GAUSSIAN, 8), (Family.HAMMING_UNIFORM, 32)]
    n, k, queries = 2000, 8, 500
    mismatches = 0
    checked = 0
    for w_idx, (family, d) in enumerate(workloads):
        ds = generate(GeneratorSpec(family, d, n, rng.derive_seed(42, 81, w_idx)))
        qs = generate(GeneratorSpec(family, d, queries, rng.derive_seed(42, 82, w_idx)))
        index = build_pivot_index(ds, k, RandomPivots(rng.derive_seed(42, 83, w_idx)))
        tree, _ = build_net_tree(ds)
        for q_idx, q in enumerate(qs.points):
            eps = calibrate_eps(ds, q, 1 + q_idx % 40)
            truth = sequential_scan(ds, q, eps)
            pivot_result, _ = range_query(index, ds, q, eps)
            net_result, _ = net_range_query(tree, ds, q, eps)
            mismatches += (pivot_result != truth) + (net_result != truth)
            checked += 1
    report(8, mismatches == 0, f"{checked} queries x 2 indexes across 3 families, {mismatches} discrepancies")


def test_c09_pruning_degradation():
    """Discarded fraction decays along the canonical ladder; runtime desk-scale.

    FROZEN after first measurement (seed 42): fractions
    0.9990, 0.9619, 0.7064, 0.0032, 0.0032. In the saturated regime only
    the k pivots can be discarded, so neighboring fractions may tie;
    ranks are compared at the one-point resolution 1/n.
    """
    n = 10_000
    rows = degradation_sweep(DEFAULT_LADDER, n=n, k=32, target_result_size=10, queries=50, seed=42)
    fr = [row.mean_discarded_fraction for row in rows]
    antitone = all(a >= b - 1.0 / n for a, b in zip(fr, fr[1:]))
    frozen_ok = (
        fr[0] > 0.99
        and 0.90 < fr[1] < 0.99
        and 0.60 < fr[2] < 0.80
        and fr[3] < 0.01
        and fr[4] < 0.01
    )
    ok = antitone and fr[0] > 0.9 and fr[-1] < 0.2 and frozen_ok
    detail = ", ".join(f"{row.family.value}:{row.dim}={f:.4f}" for row, f in zip(rows, fr))
    report(9, ok, f"discarded fractions {detail}; antitone at 1/n resolution={antitone}")


def test_c10_doubling_and_net_tree_consistency():
    """rho_hat ranks match log2(max_degree) ranks; net invariants verified."""
    workloads = [(Family.UNIFORM_CUBE, 1), (Family.UNIFORM_CUBE, 8), (Family.HAMMING_UNIFORM, 64)]
    rhos, degrees = [], []
    for w_idx, (family, d) in enumerate(workloads):
        ds = generate(GeneratorSpec(family, d, 2000, rng.derive_seed(42, 1, w_idx)))
        tree, stats = build_net_tree(ds)
        verify_net_invariants(tree, ds)  # exact brute-force covering/separation
        rhos.append(doubling_estimate(ds, probes=64, seed=rng.derive_seed(42, 3, w_idx)).rho_hat)
        degrees.append(stats.max_degree)
    rho_rank = sorted(range(3), key=lambda i: rhos[i])
    deg_rank = sorted(range(3), key=lambda i: degrees[i])
    ok = rho_rank == deg_rank
    report(
        10,
        ok,
        f"rho_hat={[f'{r:.2f}' for r in rhos]} vs log2(degree)={[f'{math.log2(g):.2f}' for g in degrees]}; "
        f"ranks {'agree' if ok else 'disagree'}; covering/separation verified exactly",
    )


CLI_COMMANDS = [
    ["generate", "--family", "uniform-cube", "--d", "3", "--n", "50"],
    ["fig-a", "--d", "2,20", "--n", "50", "--seeds", "1,2"],
    ["fig-b", "--d", "1,2,5", "--n", "200", "--seeds", "3"],
    ["fig-c", "--d", "8,16", "--n", "400", "--k", "4", "--grid", "21"],
    ["fig-d", "--n", "400", "--k", "4", "--target", "3", "--queries", "5"],
    ["pivot-sweep", "--family", "hamming", "--d", "8,32", "--n", "300", "--k", "4", "--target", "3", "--queries", "5"],
    ["nettree-stats", "--workloads", "uniform-cube:2,hamming:16", "--n", "200", "--queries", "5", "--probes", "8"],
]


def test_c11_cli_determinism(tmp_path):
    """Every CLI command run twice with identical flags is byte-identical."""
    data = tmp_path / "data.txt"
    assert cli.main(["generate", "--family", "gaussian", "--d", "2", "--n", "80", "--out", str(data)]) == 0
    commands = CLI_COMMANDS + [["estimate", "--in", str(data), "--metric", "euclidean", "--probes", "8"]]
    identical = 0
    for idx, args in enumerate(commands):
        a, b = tmp_path / f"{idx}a.csv", tmp_path / f"{idx}b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        identical += a.read_bytes() == b.read_bytes()
    report(11, identical == len(commands), f"{identical}/{len(commands)} commands byte-identical on rerun")
