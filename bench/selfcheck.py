"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

For every workload, with seed SEED and BENCHMARK.json's run_seconds, it
confirms two things and exits non-zero when either fails:

1. two traced runs with the same seed report identical counts (every
   per-layer metric whose unit is ``count``);
2. the untraced run and the traced run agree on ``failed_frac``.

Each run is a separate process, exactly as the benchmark is invoked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError("run.py exited %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, seconds: float) -> list:
    first = bench(workload, seed, seconds, 1)
    second = bench(workload, seed, seconds, 1)
    untraced = bench(workload, seed, seconds, 0)
    problems = []
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    for name in sorted(counts):
        if counts[name] != again.get(name):
            problems.append("%s: %s then %s" % (name, counts[name], again.get(name)))
    traced_frac = first["failed"] / first["attempted"]
    untraced_frac = untraced["failed"] / untraced["attempted"]
    if traced_frac != untraced_frac:
        problems.append("failed_frac traced %g, untraced %g" % (traced_frac, untraced_frac))
    print("%s %s: %d counts repeat, failed_frac %g traced / %g untraced"
          % ("FAIL" if problems else "PASS", workload, len(counts), traced_frac, untraced_frac))
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    problems = []
    for workload in workloads.WORKLOADS:
        problems += check(workload, SEED, seconds)
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
