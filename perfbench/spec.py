"""Workload names and metric definitions, shared by the runner, the workload
process and the self-test. BENCHMARK.json at the repository root mirrors
these tables; the self-test checks that the two agree.

Every metric here is emitted on every workload. End-to-end metrics are
defined for all four workloads and are never 0. A per-layer metric whose
layer a workload does not reach reads 0 there (no calls, no time).

Per-layer values cover one set-up plus one job: the spans of the traced
set-up, plus the mean over traced jobs of the spans under each job. A job is
one CLI call on the CLI workloads and one range query (answered by the pivot
index and by the scan) on the range workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

WORKLOADS = {
    "estimate-gauss16": "estimate at default flags on 10k x 16 Gaussian files, one per job; doubling covers dominate, no index is built",
    "range-cube8": "pivot range queries where pruning works (uniform-cube:8, n=10k, k=32); the pivot table sweep dominates",
    "range-hamming512": "pivot range queries where pruning collapses (hamming:512, n=5k, k=32); the Hamming verify kernel dominates",
    "nettree-stats": "nettree-stats at default flags; net-tree builds dominate, the build-heavy use of the index layer",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    value: Callable  # (Totals, run facts) -> float
    span: str | None = None  # the traced function the value depends on


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _calls(span):
    return PerLayer(f"{span}.calls", "count", "lower", lambda t, r: t.calls[span], span)


def _self_s(span):
    return PerLayer(f"{span}.self_s", "s", "lower", lambda t, r: t.self_s[span], span)


def _per_call(name, unit, better, span, key):
    return PerLayer(name, unit, better, lambda t, r: _ratio(t.count(span, key), t.calls[span]), span)


def _yield(name, span):
    return PerLayer(
        name, "ratio", "higher", lambda t, r: _ratio(t.count(span, "results"), t.count(span, "candidates")), span
    )


PER_LAYER = (
    _calls("core.distances_to"),
    _self_s("core.distances_to"),
    PerLayer("core.distances_to.rows", "count", "lower", lambda t, r: t.count("core.distances_to", "rows"), "core.distances_to"),
    _per_call("core.rows_per_call", "rows/call", "higher", "core.distances_to", "rows"),
    _calls("core.distance"),
    _calls("core.diameter_upper_bound"),
    _self_s("core.diameter_upper_bound"),
    _self_s("core.load_dataset"),
    _self_s("generate.generate"),
    _calls("diststats.pairwise_distances"),
    _self_s("diststats.pairwise_distances"),
    _self_s("diststats.nn_statistics"),
    _self_s("concentration.witness_curve"),
    _self_s("doubling.probe_rows"),
    _calls("doubling.greedy_cover"),
    _self_s("doubling.greedy_cover"),
    PerLayer("doubling.cover_centers", "count", "lower", lambda t, r: t.count("doubling.greedy_cover", "centers"), "doubling.greedy_cover"),
    PerLayer("doubling.ball_points", "count", "lower", lambda t, r: t.count("doubling.greedy_cover", "points"), "doubling.greedy_cover"),
    PerLayer(
        "doubling.centers_per_point",
        "ratio",
        "lower",
        lambda t, r: _ratio(t.count("doubling.greedy_cover", "centers"), t.count("doubling.greedy_cover", "points")),
        "doubling.greedy_cover",
    ),
    _self_s("pivot.build_pivot_index"),
    _calls("pivot.calibrate_eps"),
    _self_s("pivot.calibrate_eps"),
    _self_s("pivot.range_query"),
    _per_call("pivot.candidates_per_query", "count", "lower", "pivot.range_query", "candidates"),
    _per_call("pivot.discarded_fraction", "ratio", "higher", "pivot.range_query", "discarded"),
    _yield("pivot.verify_yield", "pivot.range_query"),
    PerLayer("pivot.evals_per_query", "count", "lower", lambda t, r: r["pivot_evals_per_query"]),
    _self_s("pivot.sequential_scan"),
    _calls("nettree.build_net_tree"),
    _self_s("nettree.build_net_tree"),
    _per_call("nettree.node_count", "count", "lower", "nettree.build_net_tree", "nodes"),
    _per_call("nettree.depth", "count", "lower", "nettree.build_net_tree", "depth"),
    _per_call("nettree.max_degree", "count", "lower", "nettree.build_net_tree", "max_degree"),
    _self_s("nettree.net_range_query"),
    _per_call("nettree.candidates_per_query", "count", "lower", "nettree.net_range_query", "candidates"),
    _yield("nettree.verify_yield", "nettree.net_range_query"),
    _per_call("nettree.evals_per_query", "count", "lower", "nettree.net_range_query", "evals"),
    PerLayer("cli.self_s", "s", "lower", lambda t, r: sum(v for k, v in t.self_s.items() if k.startswith("cli.run_"))),
    PerLayer("trace_overhead_frac", "ratio", "lower", lambda t, r: r["trace_overhead_frac"]),
)
