"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload for one second, untraced and traced, and checks that
every end-to-end and per-layer metric is emitted with its unit, that the
correctness gates pass, that no self time is negative, and that
BENCHMARK.json matches the tables in spec.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402


def run_tiny(trace: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--tiny", "--seconds", "1", "--trace", str(trace), "--seed", "3"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    lines = run_tiny(trace)
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= len(spec.WORKLOADS)
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    for workload in spec.WORKLOADS:
        for metric in declared:
            emitted = summary["metrics"][f"{workload}/{metric.name}"]
            assert emitted["unit"] == metric.unit
            assert isinstance(emitted["value"], float)
            if trace == 0:
                assert emitted["value"] > 0, (workload, metric.name)
            if metric.name.endswith(".self_s"):
                assert emitted["value"] >= 0, (workload, metric.name)
            assert any(line.startswith(f"{workload} {metric.name} ") for line in lines)
    assert not any("absent:" in line or "unreadable:" in line for line in lines)


def test_self_times_are_never_negative_and_add_up():
    workload = child.make_workload("range-cube8", tiny=True)
    tracer = tracing.Tracer()
    with tracer.root("setup") as setup_root:
        state = workload.setup(5)
    with tracer.root("job") as job_root:
        assert workload.job(state, 0).error is None
    self_ns = tracer.self_times()
    assert min(self_ns) >= 0
    for root in (setup_root, job_root):
        _, start, end, *_ = tracer.spans[root]
        under = sum(ns for span, ns in zip(tracer.spans, self_ns) if span[4] == root)
        assert under == end - start
    totals = tracer.totals({job_root: 1.0})
    assert totals.calls["pivot.range_query"] == 1
    assert totals.count("pivot.range_query", "candidates") > 0


def test_wrappers_are_removed_after_a_traced_job():
    modules = tracing.package_modules()
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = tracing.Tracer()
    with tracer.root("job"):
        assert modules["pivot"].range_query is not before["pivot"]["range_query"]
    after = {name: dict(vars(module)) for name, module in modules.items()}
    assert after == before


def test_benchmark_json_matches_spec():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]
