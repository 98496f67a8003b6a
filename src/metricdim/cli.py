"""Command-line front end.

Every command is a pure function of its flags: rerunning with identical
flags yields byte-identical output, and each output begins with comment
lines echoing the full effective configuration (seeds included; the
default seed is 42). All output is CSV; plotting is left to external
tools.

A command's defaults are those of its ``run_*`` function: the parser
sets no default, so an omitted flag leaves the function's own. A list flag
that does not parse is refused with a message that names the flag.

Exit status: 0 on success, and when the reader closes stdout early (as
``| head`` does; nothing is printed); 1 on invalid input, 2 when a
--self-test invariant check fails.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import __version__, rng
from .concentration import (
    chernoff_alpha,
    concentration_dimension,
    empirical_concentration,
    two_sided_alpha,
    union_bound_slack,
)
from .core import (
    DEGENERATE,
    _PAIR_TOLERANCE,
    Dataset,
    InvalidInputError,
    InvariantViolation,
    MetricKind,
    _distinct_rows,
    diameter_is_exact,
    diameter_upper_bound,
    format_point_blocks,
    load_dataset,
)
from .diststats import (
    boxplot_summary,
    cnbym_dimension,
    dataset_cnbym,
    default_mode,
    nn_statistics,
    pair_moments,
    pairwise_distances,
)
from .doubling import doubling_estimate
from .generate import Family, GeneratorSpec, generate
from .nettree import build_net_tree, net_range_query, verify_net_invariants
from .pivot import (
    DEFAULT_LADDER,
    FarthestFirst,
    RandomPivots,
    build_pivot_index,
    degradation_sweep,
    range_query,
    search_workloads,
    sequential_scan,
)

DEFAULT_SEED = 42
_CONVENTIONS = (
    ("quartiles", "linear-order-statistics-type-7"),
    ("variance", "unbiased-count-minus-1"),
    ("normalization", "diameter-upper-bound"),
    ("rng", "splitmix64-counter"),
    ("normals", "box-muller"),
    ("version", __version__),
)


def _fmt(value) -> str:
    if value is DEGENERATE:
        return "degenerate"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Family):
        return value.value
    return str(value)


def _render(command: str, config: list[tuple[str, object]], columns: list[str], rows: list[list]) -> str:
    lines = [f"# command={command}"]
    for key, value in config:
        lines.append(f"# {key}={_fmt(value)}")
    for key, value in _CONVENTIONS:
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Figure commands
# ---------------------------------------------------------------------------


def run_fig_a(d_list=(2, 20, 200, 2000), n=100, seeds=(DEFAULT_SEED,), self_test=False) -> str:
    """Boxplot statistics of diameter-normalized pairwise distances per d."""
    if not d_list:
        raise InvalidInputError("need at least one dimension")
    rows = []
    for seed in seeds:
        for d in d_list:
            ds = generate(GeneratorSpec(Family.UNIFORM_CUBE, d, n, rng.derive_seed(seed, d)))
            bound = diameter_upper_bound(ds)
            values = pairwise_distances(ds) / (bound or 1.0)
            box = boxplot_summary(values)
            if self_test:
                _check_boxplot(box, values)
            rows.append(
                [seed, d, box.median, box.q1, box.q3, box.whisker_low, box.whisker_high, len(box.outliers)]
            )
    config = [("seeds", ",".join(map(str, seeds))), ("n", n), ("d", ",".join(map(str, d_list)))]
    columns = ["seed", "d", "median", "q1", "q3", "whisker_low", "whisker_high", "outlier_count"]
    return _render("fig-a", config, columns, rows)


def run_fig_b(d_values=None, d_max=50, n=3000, seeds=(DEFAULT_SEED,), self_test=False) -> str:
    """Dispersion dimension of Gaussian samples per d, for d in ``d_values``
    or, when that is None, for d = 1..``d_max``."""
    if d_values is None:
        if d_max < 1:
            raise InvalidInputError(f"--d-max must be >= 1, got {d_max}")
        d_values = range(1, d_max + 1)
    rows = []
    for seed in seeds:
        for d in d_values:
            ds = generate(GeneratorSpec(Family.GAUSSIAN, d, n, rng.derive_seed(seed, d)))
            dim = dataset_cnbym(ds)
            if self_test and dim is not DEGENERATE and not dim > 0:
                raise InvariantViolation(f"nonpositive dimension estimate at d={d}")
            rows.append([seed, d, dim])
    config = [("seeds", ",".join(map(str, seeds))), ("n", n), ("d", ",".join(map(str, d_values)))]
    return _render("fig-b", config, ["seed", "d", "dim_cnbym"], rows)


def run_fig_c(d_list=(16, 128, 256), n=20000, k=32, grid_size=201, seed=DEFAULT_SEED, self_test=False) -> str:
    """Empirical concentration curves on bit-cube workloads, with the
    exp(-2 eps^2 d) reference and the dimension integral of each curve.
    That reference bounds the one-sided concentration function, not the
    two-sided curve, so the self-test holds every alpha_hat to the
    two-sided, median-shifted ``two_sided_alpha`` plus the sampling slack
    ``union_bound_slack``."""
    rows = []
    dim_lines: list[tuple[str, object]] = []
    slack = union_bound_slack(n, k, grid_size)
    for d in d_list:
        ds = generate(GeneratorSpec(Family.HAMMING_UNIFORM, d, n, rng.derive_seed(seed, d)))
        curve = empirical_concentration(ds, k, grid_size, seed=rng.derive_seed(seed, d, 1))
        dim_lines.append((f"dim_alpha[{d}]", concentration_dimension(curve)))
        for eps, alpha in zip(curve.grid.tolist(), curve.alpha.tolist()):
            bound = chernoff_alpha(d, eps)
            if self_test and alpha > two_sided_alpha(d, eps) + slack:
                raise InvariantViolation(f"alpha_hat {alpha!r} at d={d}, eps={eps!r} exceeds the Chernoff bound plus slack")
            rows.append([d, eps, alpha, bound])
    config = [
        ("seed", seed),
        ("n", n),
        ("k", k),
        ("grid", grid_size),
        ("d", ",".join(map(str, d_list))),
    ] + dim_lines
    return _render("fig-c", config, ["d", "eps", "alpha_hat", "chernoff_bound"], rows)


def run_pivot_sweep(
    family, d_list, n=10000, k=32, target=10, queries=50, seed=DEFAULT_SEED, policy="random", self_test=False
) -> str:
    workloads = [(Family(family), d) for d in d_list]
    return _sweep("pivot-sweep", workloads, n, k, target, queries, seed, policy, self_test)


def run_fig_d(n=10000, k=32, target=10, queries=50, seed=DEFAULT_SEED, self_test=False) -> str:
    return _sweep("fig-d", DEFAULT_LADDER, n, k, target, queries, seed, "random", self_test)


def _sweep(command, workloads, n, k, target, queries, seed, policy, self_test) -> str:
    policy_kind = FarthestFirst if policy == "farthest-first" else RandomPivots
    rows_out = []
    for row in degradation_sweep(workloads, n, k, target, queries, seed, policy_kind):
        if self_test and not 0.0 <= row.mean_discarded_fraction <= 1.0:
            raise InvariantViolation("discarded fraction outside [0, 1]")
        rows_out.append(
            [
                row.family,
                row.dim,
                row.k,
                row.mean_discarded_fraction,
                row.mean_distance_computations,
                row.mean_result_size,
                row.scan_cost,
            ]
        )
    if self_test:
        # One query of every workload, at most 500 points and 8 pivots,
        # against the scan under the sweep's own policy.
        check_n = min(n, 500)
        for _, _, ds, ranges, build_seed in search_workloads(workloads, check_n, 1, min(target, check_n), seed):
            q, eps = ranges[0]
            index = build_pivot_index(ds, min(k, 8), policy_kind(build_seed))
            _check_exact(range_query(index, ds, q, eps)[0], ds, q, eps, "pivot")
    config = [
        ("seed", seed),
        ("n", n),
        ("k", k),
        ("target", target),
        ("queries", queries),
        ("policy", policy),
        ("workloads", ",".join(f"{f.value}:{d}" for f, d in workloads)),
    ]
    columns = [
        "family",
        "d",
        "k",
        "mean_discarded_fraction",
        "mean_distance_computations",
        "mean_result_size",
        "scan_cost",
    ]
    return _render(command, config, columns, rows_out)


def run_nettree_stats(
    workloads=((Family.UNIFORM_CUBE, 1), (Family.UNIFORM_CUBE, 8), (Family.HAMMING_UNIFORM, 64)),
    n=2000, queries=50, probes=64, target=10, seed=DEFAULT_SEED, self_test=False
) -> str:
    rows = []
    for family, d, ds, ranges, build_seed in search_workloads(workloads, n, queries, target, seed):
        rho = doubling_estimate(ds, probes, seed=build_seed)
        tree, stats = build_net_tree(ds)
        if self_test and n <= 5000:
            verify_net_invariants(tree, ds)
        cost = []
        for q_idx, (q, eps) in enumerate(ranges):
            result, qstats = net_range_query(tree, ds, q, eps)
            cost.append(qstats.distance_computations)
            if self_test and q_idx == 0:
                _check_exact(result, ds, q, eps, "net tree")
        rows.append([family, d, rho.rho_hat, stats.max_degree, stats.depth, float(np.mean(cost))])
    config = [
        ("seed", seed),
        ("n", n),
        ("queries", queries),
        ("probes", probes),
        ("target", target),
        ("workloads", ",".join(f"{f.value}:{d}" for f, d in workloads)),
    ]
    columns = ["family", "d", "rho_hat", "max_degree", "depth", "mean_distance_computations"]
    return _render("nettree-stats", config, columns, rows)


def run_generate(family, d, n, seed=DEFAULT_SEED, self_test=False):
    """The dataset of ``GeneratorSpec(family, d, n, seed)`` in the ingestion
    format, after a header of comment lines, as an iterator of text blocks
    (``format_point_blocks``), so the whole text is never held.

    The dataset is made before this returns, and with ``self_test`` it is
    made again and the two renders are compared block by block, so a
    refusal or a failed check comes before any output."""
    spec = GeneratorSpec(Family(family), d, n, seed)
    ds = generate(spec)
    if self_test:
        for block, again in itertools.zip_longest(format_point_blocks(ds), format_point_blocks(generate(spec))):
            if block != again:
                raise InvariantViolation("generation is not deterministic")
    header = [
        "# command=generate",
        f"# family={spec.family.value}",
        f"# d={d}",
        f"# n={n}",
        f"# seed={seed}",
        f"# metric={ds.metric.value}",
        "# rng=splitmix64-counter",
        f"# version={__version__}",
    ]
    return itertools.chain(["\n".join(header) + "\n"], format_point_blocks(ds))


NN_QUERY_CAP = 200


def run_estimate(path, metric, seed=DEFAULT_SEED, k=32, grid_size=201, probes=64, self_test=False) -> str:
    """One report with every estimator applied to a dataset file.

    Distances are in the file's units. The concentration curve divides
    them by the diameter bound (by nothing when the bound is 0, all rows
    equal). The ``scale`` row is always 1.0: the units are never changed.
    It stays because the benchmark checks every ``estimate`` row it names
    (``ESTIMATE_ROWS`` in ``perfbench/child.py``), ``scale`` among them.
    The self-test holds the largest sampled pair distance to the diameter
    bound and ``rho_hat`` to log2 of the number of distinct rows, the most
    centers a cover can need.
    """
    metric = MetricKind(metric)
    ds = load_dataset(path, metric)
    rows: list[list] = [["n", ds.n], ["dim", ds.dim], ["metric", metric.value], ["scale", 1.0]]

    if ds.n >= 2:
        bound = diameter_upper_bound(ds)
        rows.append(["diameter_bound", bound])
        rows.append(["diameter_method", "exact-scan" if diameter_is_exact(ds.n) else "triangle-bound"])
        mode = default_mode(ds.n, seed=rng.derive_seed(seed, 10))
        if ds.n > 2:
            summary, largest = pair_moments(ds, mode)
            characteristic = summary.mean
        else:
            characteristic = largest = float(pairwise_distances(ds)[0])
        if self_test and largest > bound * (1.0 + _PAIR_TOLERANCE):
            raise InvariantViolation("a sampled pair distance exceeds the diameter bound")
        rows.append(["characteristic_size", characteristic])
        if ds.n > 2:
            rows.append(["dim_cnbym", cnbym_dimension(summary)])
        else:
            rows.append(["dim_cnbym", DEGENERATE])
            rows.append(["note", "two-point dataset; one pair distance has no variance"])

        if ds.n <= NN_QUERY_CAP:
            query_idx = np.arange(ds.n)
        else:
            query_idx = rng.distinct_indices(rng.derive_seed(seed, 11), NN_QUERY_CAP, ds.n)
        queries = Dataset(ds.points[query_idx], ds.metric)
        rows.append(["nn_queries", queries.n])
        if _distinct_rows(ds).size == 1:
            rows.append(["mean_eps_nn", DEGENERATE])
            rows.append(["nn_ratio", DEGENERATE])
            rows.append(["note", "all points identical; leave-one-out leaves no nearest neighbor"])
        else:
            nn = nn_statistics(ds, queries, leave_one_out=True, characteristic=characteristic)
            rows.append(["mean_eps_nn", nn.mean_eps_nn])
            rows.append(["nn_ratio", nn.ratio])

        witness_count = min(k, ds.n)
        curve = empirical_concentration(
            ds, witness_count, grid_size, seed=rng.derive_seed(seed, 12), length=bound or 1.0
        )
        rows.append(["witnesses", witness_count])
        rows.append(["dim_alpha", concentration_dimension(curve)])
    else:
        rows.append(["note", "single-point dataset; pairwise statistics undefined"])

    rho = doubling_estimate(ds, probes, seed=rng.derive_seed(seed, 13))
    if self_test and rho.rho_hat > math.log2(_distinct_rows(ds).size):
        raise InvariantViolation("rho_hat exceeds log2 of the number of distinct rows")
    rows.append(["rho_hat", rho.rho_hat])
    rows.append(["doubling_probes", probes])

    config = [
        ("in", str(path)),
        ("seed", seed),
        ("k", k),
        ("grid", grid_size),
        ("probes", probes),
        ("nn_query_cap", NN_QUERY_CAP),
        ("nn_leave_one_out", "true"),
    ]
    return _render("estimate", config, ["statistic", "value"], rows)


def _check_boxplot(box, values) -> None:
    lo = box.q1 - 1.5 * box.iqr
    hi = box.q3 + 1.5 * box.iqr
    inside = values[(values >= lo) & (values <= hi)]
    if inside.size and (box.whisker_low < lo or box.whisker_high > hi):
        raise InvariantViolation("whiskers extend beyond the fences")
    if len(box.outliers) and ((box.outliers >= lo) & (box.outliers <= hi)).any():
        raise InvariantViolation("an outlier lies inside the fences")
    if inside.size + len(box.outliers) != values.size:
        raise InvariantViolation("fence partition does not cover the sample")


def _check_exact(result, ds, q, eps, index_name) -> None:
    if result != sequential_scan(ds, q, eps):
        raise InvariantViolation(f"{index_name} result differs from sequential scan")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInputError(message)


def _int_list(text: str) -> list[int]:
    try:
        out = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from None
    if not out:
        raise argparse.ArgumentTypeError(f"expected a non-empty comma-separated integer list, got {text!r}")
    return out


def _workload_list(text: str):
    out = []
    for part in text.split(","):
        if not part:
            continue
        try:
            name, d = part.split(":")
            out.append((Family(name), int(d)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected family:dim entries, got {part!r}") from None
    if not out:
        raise argparse.ArgumentTypeError("workload list is empty")
    return out


def build_parser() -> argparse.ArgumentParser:
    """The ``metricdim`` parser. Each command's parse holds ``run``, its
    ``run_*`` function, and only the flags given: no flag has a default
    here, so an omitted flag keeps the function's own."""
    parser = _Parser(prog="metricdim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    families = sorted(f.value for f in Family)

    def add(name, run, help_text):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run)
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--self-test", action="store_true", help="run invariant checks; exit 2 on violation")
        return p

    p = add("generate", run_generate, "write a synthetic dataset in the ingestion format (one point per row)")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)

    p = add("estimate", run_estimate, "all dimension estimators applied to a dataset file; rows statistic,value")
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--metric", choices=sorted(m.value for m in MetricKind), required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int, help="witness anchors for the concentration curve")
    p.add_argument("--grid", dest="grid_size", metavar="GRID", type=int)
    p.add_argument("--probes", type=int, help="doubling-estimate probe balls")

    p = add(
        "fig-a",
        run_fig_a,
        "boxplots of normalized cube distances; columns "
        "seed,d,median,q1,q3,whisker_low,whisker_high,outlier_count",
    )
    p.add_argument("--d", dest="d_list", metavar="D", type=_int_list)
    p.add_argument("--n", type=int)
    p.add_argument("--seeds", type=_int_list)

    p = add("fig-b", run_fig_b, "Gaussian dispersion dimension; columns seed,d,dim_cnbym")
    p.add_argument("--d", dest="d_values", metavar="D", type=_int_list, help="explicit d list; overrides --d-max")
    p.add_argument("--d-max", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seeds", type=_int_list)

    p = add(
        "fig-c",
        run_fig_c,
        "bit-cube concentration curves; columns d,eps,alpha_hat,chernoff_bound; "
        "per-d dim_alpha in the header",
    )
    p.add_argument("--d", dest="d_list", metavar="D", type=_int_list)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--grid", dest="grid_size", metavar="GRID", type=int)
    p.add_argument("--seed", type=int)

    sweep_columns = (
        "columns family,d,k,mean_discarded_fraction,mean_distance_computations,"
        "mean_result_size,scan_cost"
    )
    p = add("fig-d", run_fig_d, f"pruning degradation across the canonical dimension ladder; {sweep_columns}")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--queries", type=int)
    p.add_argument("--seed", type=int)

    p = add("pivot-sweep", run_pivot_sweep, f"pruning statistics for a chosen family and d list; {sweep_columns}")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--d", dest="d_list", metavar="D", type=_int_list, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--policy", choices=["random", "farthest-first"])
    p.add_argument("--target", type=int)
    p.add_argument("--queries", type=int)
    p.add_argument("--seed", type=int)

    p = add(
        "nettree-stats",
        run_nettree_stats,
        "net-tree shape and query cost per workload; columns "
        "family,d,rho_hat,max_degree,depth,mean_distance_computations",
    )
    p.add_argument("--workloads", type=_workload_list)
    p.add_argument("--n", type=int)
    p.add_argument("--queries", type=int)
    p.add_argument("--probes", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        params = vars(parser.parse_args(argv))
        del params["command"]
        out, run = params.pop("out", None), params.pop("run")
        text = run(**params)
        # generate's output comes as an iterator of text blocks, every
        # other command's as one string.
        blocks = [text] if isinstance(text, str) else text
        if out:
            # Opened only now: a refusal leaves no file.
            with open(out, "w", encoding="utf-8") as stream:
                stream.writelines(blocks)
        else:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        return 0
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``| head``), which is no input error.
        # Stdout now writes to devnull, so the final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
