"""The metricdim benchmark: one command for every workload.

    python3 perfbench/run.py                         # all workloads, untraced
    python3 perfbench/run.py --trace 1               # all workloads, traced
    python3 perfbench/run.py --workload range-cube8 --seed 7 --seconds 20 --trace 0

Each workload runs in its own child process (perfbench/child.py): one
Python process, one client, closed loop. This script prints every metric by
name with its unit, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics, with --trace 1 the per-layer metrics. It exits 1 when a
correctness check fails or a workload cannot run; a workload that cannot run
prints no JSON line at all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
DEFAULT_SECONDS = 25


def run_child(args, workload: str) -> dict | None:
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])  # fmt: skip
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload}: exited {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    expected = [m.name for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    if sorted(result["metrics"]) != sorted(expected):
        print(f"{workload}: emitted {sorted(result['metrics'])}, expected {sorted(expected)}", file=sys.stderr)
        return None
    return result


def report(workload: str, result: dict) -> None:
    prov = result["provenance"]
    samples = prov["samples"]
    print(
        f"# {workload} seed={prov['seed']} commit={prov['git_commit']} dirty={prov['git_dirty']} "
        f"python={prov['python']} numpy={prov['numpy']} blas={prov['blas']} nproc={prov['nproc']} "
        f"cpu={prov['cpu_model']!r} samples={json.dumps(samples)}"
    )
    for name, metric in {**result["metrics"], **result.get("info", {})}.items():
        extra = f" (n={metric['samples']}, {metric['beyond']} beyond)" if "samples" in metric else ""
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}{extra}")
    for key in ("absent", "unreadable"):
        if result.get(key):
            print(f"{workload} {key}: {', '.join(result[key])}")
    for failure in result["failures"]:
        print(f"{workload} FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result = run_child(args, workload)
        if result is None:
            return 1
        report(workload, result)
        results[workload] = result

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
