"""qhc benchmark: one workload, one seed, one process, one sequential client.

Usage (from the root of a checkout):

    python3 bench/run.py --workload catalog_sweep --seed 1 --seconds 10 --trace 0

The program under test is the ``qhc`` package in ``src/`` of the checkout
this script sits in; nothing is installed.  Inputs are generated from
``--seed`` (see workloads.py), every case's output is checked, and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics: set-up (import ``qhc`` and
build the workload's curves, catalog entries and modules) is repeated
SETUP_REPEATS times and its median reported; then whole passes over the
seeded cases, cycling through the workload's pass plans, run in a closed
loop until their cases have taken ``--seconds``.
Every pass is set up afresh, outside the timed phase, so no pass reuses
objects or module state warmed by an earlier one.  Every reported time is
scaled by the host speed measured during it (see ``HostSpeed``); the
unscaled figures are printed above the last line.

``--trace 1`` runs exactly one pass untraced and one pass under the
wrappers of tracing.py, and reports the per-layer metrics and the tracing
overhead.  A traced run does fixed work, so its counts repeat exactly for a
seed.  Spans and the full result go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

import tracing  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

SETUP_REPEATS = 15


def fresh_qhc() -> SimpleNamespace:
    """Import qhc from scratch, dropping any copy already imported."""
    for name in [n for n in sys.modules if n == "qhc" or n.startswith("qhc.")]:
        del sys.modules[name]
    q = SimpleNamespace(package=importlib.import_module("qhc"))
    if not Path(q.package.__file__).is_relative_to(SRC):
        raise ImportError("qhc was imported from %s, not from %s" % (q.package.__file__, SRC))
    for layer in tracing.LAYERS:
        setattr(q, layer, importlib.import_module("qhc." + layer))
    return q


def run_case(case: workloads.Case) -> List[str]:
    """Run one case; return its failures (empty when the output checks out)."""
    try:
        observed = case.run()
    except Exception:  # a case that raises is counted as failed, never fatal
        return ["%s raised:\n%s" % (case.label, traceback.format_exc())]
    if observed != case.expected:
        return ["%s: expected %s, got %s" % (case.label, case.expected, observed)]
    return []


# The tail is read from groups of whole passes holding at least this many
# cases, so that a percentile with 10 cases above it lies past the 90th.
TAIL_GROUP_CASES = 100


def tail_latency(passes: List[List[float]]) -> Dict[str, Any]:
    """Tail case latency: per group of passes, then the median over groups.

    A group is ceil(TAIL_GROUP_CASES / pass size) consecutive passes;
    passes left over after the last full group are not used, unless no
    group is full, when the whole run is one group.  Within a group the
    tail is the latency at the highest percentile with 10 cases above it.
    That percentile depends on the pass size only, so a run that completes
    more passes reports the same statistic.
    """
    per_group = -(-TAIL_GROUP_CASES // len(passes[0]))
    groups = [
        [t for p in passes[i:i + per_group] for t in p]
        for i in range(0, len(passes) - per_group + 1, per_group)
    ] or [[t for p in passes for t in p]]
    index = len(groups[0]) - 11
    return {"value": statistics.median(sorted(g)[index] for g in groups),
            "percentile": round(100 * index / (len(groups[0]) - 1), 2),
            "samples_per_group": len(groups[0]), "samples_above": 10, "groups": len(groups)}


def build(workload, plan, golden) -> List[workloads.Case]:
    """Import qhc afresh and build one pass of cases."""
    return workload.build(fresh_qhc(), plan, golden)


# This host's speed drifts by up to 45% in phases that last from seconds to
# minutes (NOTES.md), more than any bound allows, and no clock a process can
# read removes it: the slowdown is slower execution, not lost CPU.  So a
# timer signal runs a probe every PROBE_EVERY_S throughout the measured
# phase: a fixed pure-Python computation of the kind the program does
# (Fraction arithmetic, dicts keyed by tuples).  A reported time is the
# measured time, less the probes that ran inside it, scaled by PROBE_REF_S
# over the median of the probes during it and the one on either side: the
# time it would have taken at the host speed of the baseline.
PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.25
PROBE_FRACTIONS = [Fraction(i + 1, 2 * i + 3) for i in range(24)]


def probe() -> float:
    start = time.perf_counter()
    product = [Fraction(0)] * (2 * len(PROBE_FRACTIONS) - 1)
    for i, x in enumerate(PROBE_FRACTIONS):
        for j, y in enumerate(PROBE_FRACTIONS):
            product[i + j] += x * y
    counts: Dict[Tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


Span = Tuple[float, float]


class HostSpeed:
    """Probes of the host speed on a timer while in use as a context manager."""

    def __init__(self) -> None:
        self.began: List[float] = []
        self.ended: List[float] = []
        self.took: List[float] = []
        self.probing = False

    def __enter__(self) -> "HostSpeed":
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def probe(self, *_signal) -> None:
        if self.probing:  # a timer signal that arrives during a probe is dropped
            return
        self.probing = True
        began = time.perf_counter()
        took = probe()
        self.took.append(took)
        self.began.append(began)
        self.ended.append(time.perf_counter())
        self.probing = False

    def seconds(self, span: Span) -> float:
        """Time spent in `span`, less the probes that ran inside it."""
        start, end = span
        first = bisect.bisect_left(self.began, start)
        last = bisect.bisect_right(self.ended, end)
        return end - start - sum(self.ended[i] - self.began[i] for i in range(first, last))

    def scaled(self, span: Span) -> float:
        """`seconds(span)` at the baseline host speed; valid once the probes have stopped."""
        start, end = span
        first = bisect.bisect_left(self.ended, start)
        last = bisect.bisect_right(self.began, end)
        around = statistics.median(self.took[max(first - 1, 0):last + 1])
        return self.seconds(span) * PROBE_REF_S / around


def timed(fn) -> Tuple[Any, Span]:
    start = time.perf_counter()
    result = fn()
    return result, (start, time.perf_counter())


def timed_run(workload, plans, golden, seconds: float) -> Dict[str, Any]:
    passes: List[List[Span]] = []
    failures: List[str] = []
    measured = 0.0
    with HostSpeed() as host:
        setups = [timed(lambda: build(workload, plans[0], golden))[1] for _ in range(SETUP_REPEATS)]
        while measured < seconds:
            # Each pass runs on its own fresh import, curves and modules, built
            # outside the timed phase: no object and no module-level state of an
            # earlier pass is reused, as in a user's single run of the cases.
            cases = build(workload, plans[len(passes) % len(plans)], golden)
            gc.collect()
            spans = []
            for case in cases:
                case_failures, span = timed(lambda: run_case(case))
                failures += case_failures
                spans.append(span)
                measured += host.seconds(span)
            passes.append(spans)

    raw = [host.seconds(s) for p in passes for s in p]
    scaled_passes = [[host.scaled(s) for s in p] for p in passes]
    latencies = [t for p in scaled_passes for t in p]
    attempted = len(latencies)
    tail = tail_latency(scaled_passes)
    tail_s = tail.pop("value")
    metrics = {
        "cases_per_s": (attempted - len(failures)) / sum(latencies),
        "case_p50_ms": 1000 * statistics.median(latencies),
        "case_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(host.scaled(s) for s in setups),
    }
    details = {
        "passes": len(passes),
        "cases_per_pass": len(cases),
        "timed_s": measured,
        "failed_frac": len(failures) / attempted,
        "case_tail": tail,
        "unscaled": {
            "cases_per_s": (attempted - len(failures)) / sum(raw),
            "case_p50_ms": 1000 * statistics.median(raw),
            "setup_s": statistics.median(host.seconds(s) for s in setups),
        },
        "probe_s": {"n": len(host.took), "min": min(host.took),
                    "median": statistics.median(host.took), "max": max(host.took)},
    }
    return {"attempted": attempted, "failures": failures, "metrics": metrics, "details": details}


def traced_run(workload, plan, golden, spans_path: Path) -> Dict[str, Any]:
    cases = build(workload, plan, golden)
    start = time.perf_counter()
    for case in cases:
        run_case(case)
    untraced = time.perf_counter() - start

    q = fresh_qhc()
    tracer = tracing.Tracer()
    tracer.install(q)
    with tracer.case("setup"):
        cases = workload.build(q, plan, golden)
    failures = []
    start = time.perf_counter()
    for case in cases:
        with tracer.case(case.label):
            failures += run_case(case)
    traced = time.perf_counter() - start
    tracer.write_spans(spans_path)

    measured = tracer.metrics()
    measured.update({
        "trace.cases": len(cases),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
    })
    # Every declared metric must have been produced: a missing one raises.
    metrics = {m["name"]: measured[m["name"]] for m in load_benchmark()["per_layer"]}
    details = {
        "failed_frac": len(failures) / len(cases),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "all_counters": measured,
    }
    return {"attempted": len(cases), "failures": failures, "metrics": metrics, "details": details}


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qhc" / "__init__.py").is_file():
        print("bench: no qhc sources at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    tag = "%s_seed%d_trace%d" % (workload.name, args.seed, args.trace)
    work_dir = OUT_DIR / ("work_" + tag)
    work_dir.mkdir(parents=True, exist_ok=True)
    plans = workload.plan(random.Random("%s:%d" % (workload.name, args.seed)), work_dir)
    golden = workloads.load_golden(workload.name)

    if args.trace:
        result = traced_run(workload, plans[0], golden, OUT_DIR / ("spans_%s.jsonl" % tag))
    else:
        result = timed_run(workload, plans, golden, args.seconds)
    declared = load_benchmark()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        raise RuntimeError("measured metrics differ from BENCHMARK.json")
    failures = result.pop("failures")
    for failure in failures[:5]:
        print("FAILED " + failure, file=sys.stderr)
    with open(OUT_DIR / ("result_%s.json" % tag), "w") as fh:
        json.dump(dict(result, workload=workload.name, seed=args.seed), fh, indent=1)
    for name, value in result["details"].items():
        if name != "all_counters":
            print("%s: %s" % (name, value))
    for name, value in result["metrics"].items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
