#!/usr/bin/env python3
"""Check the peak memory of `estimate` and `generate` above a bare import.

Each command runs in a child process, and its peak RSS (``ru_maxrss`` from
``os.wait4``) is compared with that of a child that only imports
``metricdim.cli``. `estimate` runs on a Gaussian 16-column file of
``ESTIMATE_N`` rows, written first with `generate` to
``gauss-estimate.txt`` in the current directory; `generate` then writes
``GENERATE_N`` rows to ``gauss-generate.txt``. The script fails (exit 1)
when either command peaks more than its bound above the import:

- `estimate` reads its file as one stream of lines parsed in C, folds the
  moments of its sampled pairs leaf by leaf in 1 MiB tiles and probes the
  rows in place, so on 10k x 16 rows it holds neither the 40 MB sample
  vector, the file's text nor a copy of the rows: 12 MB (about 11 MB
  measured).
- `generate` writes its rows as they are rendered, so at 100k x 16 it
  holds the points (12.8 MB) and the Dataset's copy, not the 29 MB text:
  35 MB (about 27 MB measured).

Usage:
    python scripts/peak_memory.py
"""

import os
import subprocess
import sys

ESTIMATE_N, ESTIMATE_MB = 10_000, 12
GENERATE_N, GENERATE_MB = 100_000, 35


def peak_mb(*args) -> float:
    """The peak RSS in MB of ``python args``, which must exit 0."""
    child = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if status:
        raise RuntimeError(f"python {' '.join(args)} exited with status {status}")
    return usage.ru_maxrss / 1024


def main() -> int:
    gauss = ["generate", "--family", "gaussian", "--d", "16"]
    peak_mb("-m", "metricdim", *gauss, "--n", str(ESTIMATE_N), "--out", "gauss-estimate.txt")
    base = peak_mb("-c", "import metricdim.cli")
    runs = [
        ("estimate", ESTIMATE_MB, ["estimate", "--metric", "euclidean", "--in", "gauss-estimate.txt"]),
        ("generate", GENERATE_MB, [*gauss, "--n", str(GENERATE_N), "--out", "gauss-generate.txt"]),
    ]
    failed = False
    for name, bound, command in runs:
        over = peak_mb("-m", "metricdim", *command) - base
        print(f"{name}: {over:.1f} MB above import ({base:.1f} MB), bound {bound} MB")
        if over > bound:
            print(f"{name} peaks more than {bound} MB above import", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
