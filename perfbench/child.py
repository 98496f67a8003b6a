"""Run one benchmark workload in this process and print its result as JSON.

Started by run.py, one process per workload:

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

The workload's inputs are made from the seed, in a set-up phase or, untimed,
before the first job that needs them. The timed phase is a closed loop with
one client, which starts the next job only after the previous one has
finished, for about the given number of seconds (at least two jobs). Every job's output is checked; a mismatch or an exception
counts as a failed job and is never skipped.

With --trace 0 the set-up runs five times (the median is setup_s) and no
wrapper is installed. With --trace 1 the set-up runs once, traced, and jobs
alternate untraced and traced, so trace_overhead_frac compares the two in
the same process. The last line printed is one JSON object; the full result,
and the spans of a traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spec  # noqa: E402
import tracing  # noqa: E402

cli = importlib.import_module("metricdim.cli")
core = importlib.import_module("metricdim.core")
gen = importlib.import_module("metricdim.generate")
pivot = importlib.import_module("metricdim.pivot")
rng = importlib.import_module("metricdim.rng")


@dataclass
class Job:
    """One finished job: its wall time and workload-specific facts."""

    wall_s: float
    error: str | None = None
    facts: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[str, float]:
    """Run one metricdim command in this process; its stdout and wall time."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"metricdim {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue(), wall


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# estimate-gauss16
# ---------------------------------------------------------------------------

ESTIMATE_ROWS = (
    "n", "dim", "metric", "scale", "diameter_bound", "diameter_method", "characteristic_size", "dim_cnbym",
    "nn_queries", "mean_eps_nn", "nn_ratio", "witnesses", "dim_alpha", "rho_hat", "doubling_probes",
)  # fmt: skip


class Estimate:
    """``metricdim estimate`` at default flags on seeded Gaussian files.

    Input k is the file ``metricdim generate`` writes for seed k derived from
    the workload seed; set-up writes input 0 and later inputs are written,
    untimed, before their first job. ``estimate`` keeps its default --seed,
    so its probe radii and pair samples are fixed fractions and indices while
    the data changes.
    """

    dim = 16

    def __init__(self, tiny: bool):
        self.n = 400 if tiny else 10000

    def setup(self, seed: int):
        state = {"seed": seed, "paths": {}, "outputs": {}}
        self.input(state, 0)
        return state

    def input(self, state, k: int) -> Path:
        if k not in state["paths"]:
            seed = rng.derive_seed(state["seed"], k)
            path = OUT / f"gauss{self.dim}-n{self.n}-seed{seed}.txt"
            argv = ["generate", "--family", "gaussian", "--d", str(self.dim), "--n", str(self.n)]
            run_cli(argv + ["--seed", str(seed), "--out", str(path)])
            state["paths"][k] = path
        return state["paths"][k]

    def job(self, state, k: int) -> Job:
        path = self.input(state, k)
        text, wall = run_cli(["estimate", "--in", str(path), "--metric", "euclidean"])
        return Job(wall, self.check(text, state["outputs"].setdefault(k, text)))

    def check(self, text: str, reference: str) -> str | None:
        if text != reference:
            return "output differs from the previous run on the same input"
        header, rows = csv_rows(text)
        if header != ["statistic", "value"]:
            return f"unexpected header {header}"
        values = dict(row for row in rows if len(row) == 2)
        missing = [name for name in ESTIMATE_ROWS if name not in values]
        if missing:
            return f"missing statistics {missing}"
        if int(values["n"]) != self.n or int(values["dim"]) != self.dim:
            return "n or dim does not match the input file"
        # Loose analytic sanity: the dispersion dimension of a d-dimensional
        # Gaussian is close to d, and a nearest neighbour is closer than the
        # mean pair distance.
        if not 0.75 * self.dim <= float(values["dim_cnbym"]) <= 1.25 * self.dim:
            return f"dim_cnbym {values['dim_cnbym']} is far from {self.dim}"
        if not 0.0 < float(values["nn_ratio"]) < 1.0:
            return f"nn_ratio {values['nn_ratio']} outside (0, 1)"
        return None

    def cleanup(self, state) -> None:
        for path in state["paths"].values():
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# nettree-stats
# ---------------------------------------------------------------------------

NETTREE_COLUMNS = ["family", "d", "rho_hat", "max_degree", "depth", "mean_distance_computations"]
NETTREE_WORKLOADS = [("uniform-cube", "1"), ("uniform-cube", "8"), ("hamming", "64")]


class NettreeStats:
    """``metricdim nettree-stats`` at default flags; input k is the run with
    --seed k derived from the workload seed."""

    def __init__(self, tiny: bool):
        self.flags = ["--n", "150", "--queries", "4", "--probes", "8"] if tiny else []

    def setup(self, seed: int):
        return {"seed": seed, "outputs": {}}

    def job(self, state, k: int) -> Job:
        text, wall = run_cli(["nettree-stats", "--seed", str(rng.derive_seed(state["seed"], k))] + self.flags)
        if text != state["outputs"].setdefault(k, text):
            return Job(wall, "output differs from the previous run on the same input")
        header, rows = csv_rows(text)
        if header != NETTREE_COLUMNS or len(rows) != len(NETTREE_WORKLOADS):
            return Job(wall, f"expected {len(NETTREE_WORKLOADS)} rows under {NETTREE_COLUMNS}")
        evals = []
        for row, expected in zip(rows, NETTREE_WORKLOADS):
            if len(row) != len(NETTREE_COLUMNS) or tuple(row[:2]) != expected:
                return Job(wall, f"malformed row {row}")
            rho_hat, max_degree, depth, cost = float(row[2]), int(row[3]), int(row[4]), float(row[5])
            if not (math.isfinite(rho_hat) and rho_hat >= 0 and max_degree >= 1 and depth >= 1 and cost > 0):
                return Job(wall, f"implausible row {row}")
            evals.append(cost)
        return Job(wall, None, {"nettree_evals": statistics.fmean(evals)})

    def cleanup(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# range-cube8 and range-hamming512
# ---------------------------------------------------------------------------


class RangeQueries:
    """Pivot range queries at a target result size, checked against the scan.

    Input k is query k of a pool of fresh family points, cycled; eps for
    each comes from ``calibrate_eps`` in set-up. Only the pivot query is
    in wall_s; the scan that checks it is timed separately.
    """

    def __init__(self, family: str, dim: int, n: int, tiny: bool, k: int = 32, target: int = 10, pool: int = 128):
        self.family, self.dim = gen.Family(family), dim
        self.n, self.k, self.target, self.pool = (400, 8, 5, 16) if tiny else (n, k, target, pool)

    def setup(self, seed: int):
        ds = gen.generate(gen.GeneratorSpec(self.family, self.dim, self.n, rng.derive_seed(seed, 1)))
        queries = gen.generate(gen.GeneratorSpec(self.family, self.dim, self.pool, rng.derive_seed(seed, 2)))
        index = pivot.build_pivot_index(ds, self.k, pivot.RandomPivots(rng.derive_seed(seed, 3)))
        eps = [pivot.calibrate_eps(ds, q, self.target) for q in queries.points]
        return {"ds": ds, "queries": queries.points, "index": index, "eps": eps}

    def job(self, state, k: int) -> Job:
        ds, slot = state["ds"], k % len(state["eps"])
        q, eps = state["queries"][slot], state["eps"][slot]
        oracle = core.CountingOracle(ds.metric)
        start = time.perf_counter()
        result, _ = pivot.range_query(state["index"], ds, q, eps, oracle)
        mid = time.perf_counter()
        expected = pivot.sequential_scan(ds, q, eps)
        end = time.perf_counter()
        error = None if sorted(map(int, result)) == sorted(map(int, expected)) else "pivot result differs from the scan"
        return Job(mid - start, error, {"scan_s": end - mid, "pivot_evals": oracle.count})

    def cleanup(self, state) -> None:
        pass


def make_workload(name: str, tiny: bool):
    if name == "estimate-gauss16":
        return Estimate(tiny)
    if name == "nettree-stats":
        return NettreeStats(tiny)
    if name == "range-cube8":
        return RangeQueries("uniform-cube", 8, 10000, tiny)
    if name == "range-hamming512":
        return RangeQueries("hamming", 512, 5000, tiny)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def import_probe() -> float:
    """Seconds for a fresh interpreter to import the package's CLI."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import metricdim.cli"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def input_for(i: int, traced_run: bool) -> tuple[bool, int]:
    """Whether job i is traced, and the input it runs on.

    An untraced run gives every job a fresh input, so wall_s averages
    over inputs whose cost differs. A traced run alternates untraced and
    traced jobs on inputs 0, 0, 1, 1, ..., so each traced job has an
    untraced twin: trace_overhead_frac compares the two, and the output
    check finds any output that differs between repeats of one input.
    """
    if traced_run:
        return i % 2 == 1, i // 2
    return False, i


def attempt(workload, state, k: int) -> Job:
    start = time.perf_counter()
    try:
        return workload.job(state, k)
    except Exception:  # any crash is a failed job, recorded with its traceback
        return Job(time.perf_counter() - start, traceback.format_exc(limit=3))


def tail_percentile(samples: list[float]) -> tuple[str, float, int]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it:
    its label, its value and the number of samples beyond it."""
    ordered, best = sorted(samples), ("p50", statistics.median(samples), len(samples) // 2)
    for label, permille in (("p90", 900), ("p99", 990), ("p99.9", 999)):
        beyond = len(ordered) - (len(ordered) * permille + 999) // 1000
        if beyond >= 10:
            best = (label, ordered[len(ordered) - beyond - 1], beyond)
    return best


def git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args) -> dict:
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "git_commit": commit or "unknown",
        "git_dirty": bool(status) if commit else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name, "unset") for name in threads},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def measure(args) -> dict:
    workload = make_workload(args.workload, args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    if tracer is None:
        for _ in range(SETUP_REPEATS):
            probe = import_probe()
            start = time.perf_counter()
            state = workload.setup(args.seed)
            setup_times.append(probe + time.perf_counter() - start)
        roots = {}
    else:
        with tracer.root("setup") as setup_root:
            state = workload.setup(args.seed)
        roots = {setup_root: 1.0}

    jobs, traced_roots = [], []  # jobs: (traced, Job)
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            traced, k = input_for(len(jobs), tracer is not None)
            if traced:
                with tracer.root("job") as job_root:
                    job = attempt(workload, state, k)
                traced_roots.append(job_root)
            else:
                job = attempt(workload, state, k)
            jobs.append((traced, job))
            # Run at least two jobs (a repeat to compare outputs, and in a
            # traced run one job of each kind); after that, start another job
            # only if, taking as long as this one, it would be half done by
            # the deadline, so that runs of long jobs last about --seconds.
            now = time.perf_counter()
            if len(jobs) >= 2 and now + 0.5 * (now - started) >= deadline:
                break
    finally:
        workload.cleanup(state)

    all_jobs = [job for _, job in jobs]
    failures = [job.error for job in all_jobs if job.error]
    untraced = [job.wall_s for traced, job in jobs if not traced]
    result = {
        "correct": not failures,
        "attempted": len(all_jobs),
        "failed": len(failures),
        "failures": failures[:5],
        "job_walls_s": [job.wall_s for job in all_jobs],
        "samples": {
            "setups": len(setup_times) or 1,
            "jobs": len(all_jobs),
            "untraced_jobs": len(untraced),
            "traced_jobs": len(traced_roots),
        },
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.fmean(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        result["info"] = info_metrics(all_jobs)
    else:
        for root in traced_roots:
            roots[root] = 1.0 / len(traced_roots)
        # Job 2j (untraced) and job 2j+1 (traced) share input j; compare
        # complete pairs only.
        traced_walls = [job.wall_s for traced, job in jobs if traced]
        twins = untraced[: len(traced_walls)]
        pivot_evals = [job.facts["pivot_evals"] for job in all_jobs if "pivot_evals" in job.facts]
        facts = {
            "pivot_evals_per_query": statistics.fmean(pivot_evals) if pivot_evals else 0.0,
            "trace_overhead_frac": sum(traced_walls) / sum(twins) - 1.0,
        }
        totals = tracer.totals(roots)
        result["metrics"] = {m.name: {"value": float(m.value(totals, facts)), "unit": m.unit} for m in spec.PER_LAYER}
        needed = {m.span for m in spec.PER_LAYER if m.span}
        result["absent"] = sorted(needed - tracer.traced_names)
        result["unreadable"] = sorted(tracer.unreadable)
        write_spans(args, tracer)
    return result


def info_metrics(jobs: list[Job]) -> dict:
    """Workload-specific figures printed beside the gated metrics."""
    info = {"failed_frac": {"value": sum(1 for job in jobs if job.error) / len(jobs), "unit": "ratio"}}
    scans = [job.facts["scan_s"] for job in jobs if "scan_s" in job.facts]
    if scans:
        walls = [job.wall_s for job in jobs]
        label, tail, beyond = tail_percentile(walls)
        info["pivot_p50_ms"] = {"value": statistics.median(walls) * 1e3, "unit": "ms"}
        info[f"pivot_{label}_ms"] = {"value": tail * 1e3, "unit": "ms", "samples": len(walls), "beyond": beyond}
        info["pivot_qps"] = {"value": len(walls) / sum(walls), "unit": "1/s"}
        info["scan_qps"] = {"value": len(scans) / sum(scans), "unit": "1/s"}
    for key in ("pivot_evals", "nettree_evals"):
        evals = [job.facts[key] for job in jobs if key in job.facts]
        if evals:
            info[f"{key}_per_query"] = {"value": statistics.fmean(evals), "unit": "count"}
    return info


def write_spans(args, tracer: tracing.Tracer) -> None:
    names = sorted({span[0] for span in tracer.spans})
    code = {name: i for i, name in enumerate(names)}
    spans = [[code[n], start, end, parent, root, counts] for n, start, end, parent, root, counts in tracer.spans]
    path = OUT / f"spans-{args.workload}.json"
    path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "root", "counts"], "names": names, "spans": spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    loaded = Path(cli.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"metricdim was imported from {loaded}, not from {SRC}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    result = measure(args)
    result["provenance"] = {**provenance(args), "samples": result.pop("samples")}
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
