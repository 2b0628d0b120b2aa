"""Capture the expected outputs that run.py checks cases against.

    python3 bench/capture_golden.py

Runs every input shape the workloads can draw (every catalog entry in the
pools, every semigroup class) once and writes
bench/golden.json.  Goldens are keyed by shape, never by seeded values, so
they hold for every seed; run.py confirms that on each run.  Re-capture
only when a change to the program is meant to change its output, and
record why in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys

import run
import workloads


def observe(workload_name: str, plan) -> dict:
    cases = workloads.WORKLOADS[workload_name].build(run.fresh_qhc(), plan, None)
    out = {}
    for case in cases:
        obs = case.run()
        if isinstance(obs, dict):
            obs.pop("invariant_failures", None)
        out[case.label] = obs
        print(workload_name, case.label, file=sys.stderr)
    return dict(sorted(out.items()))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work_dir = run.OUT_DIR / "work_capture"
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random("capture")
    all_labels = workloads.ADE_LABELS + [y for s in workloads.Y_STRATA for y in s]
    golden = {
        "catalog_sweep": observe("catalog_sweep", {"labels": all_labels, "rng_state": 0}),
        # Keyed by class: every draw of a class prints the same report.
        "semigroup_oracle": {
            label.split("#")[0]: obs["sha256"]
            for label, obs in observe(
                "semigroup_oracle", workloads.plan_semigroup_oracle(rng, work_dir)[0]
            ).items()
        },
    }
    # One line per input shape, so a changed expectation shows as one line.
    with open(workloads.GOLDEN_PATH, "w") as fh:
        fh.write("{\n")
        for w, (name, entries) in enumerate(sorted(golden.items())):
            fh.write(" %s: {\n" % json.dumps(name))
            lines = ["  %s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                     for k, v in entries.items()]
            fh.write(",\n".join(lines))
            fh.write("\n }%s\n" % ("," if w < len(golden) - 1 else ""))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
