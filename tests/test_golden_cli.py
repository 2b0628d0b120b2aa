"""Golden digests of CLI reports on the catalog curves and fixtures.

golden_cli.json keeps, per run, the exit code and the sha256 of stdout
of `qhc catalog list`, of `qhc catalog --label L info` (json and text)
and `… fixtures` (json) on each label below, of
`qhc curve … branches|derivations` on each curve below and of
`qhc module … check` and `… connect --samples 3` (json) on each of its
fixture modules.  Any change to those bytes fails the test, so a
refactor that is meant to keep the output can be checked against it.
Re-capture only when a change is meant to change the output, and record
why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io as stdio
import json
import os
import tempfile

from qhc import io
from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
LABELS = list(ADE_LABELS) + ["Y_3_2", "Y_4_3", "Y_5_2", "Y_5_3", "Y_7_4"]


def _run(argv):
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def digests(work_dir):
    """{run name: [exit code, sha256 of stdout]} over LABELS."""
    out = {"catalog/list": _run(["catalog", "list"])}
    for label in LABELS:
        catalog = ["catalog", "--label", label]
        for fmt in ("json", "text"):
            out["%s/info/%s" % (label, fmt)] = _run(catalog + ["info", "--format", fmt])
        out["%s/fixtures" % label] = _run(catalog + ["fixtures"])
        entry = catalog_get(label)
        curve = entry.curve()
        cpath = _write(os.path.join(work_dir, label + ".json"), io.curve_to_json(curve))
        for action in ("branches", "derivations"):
            out["%s/%s" % (label, action)] = _run(["curve", "--in", cpath, action])
        for fx in fixture_modules(entry):
            mpath = _write(
                os.path.join(work_dir, "%s_%s.json" % (label, fx.name)),
                io.module_to_json(fx.module(curve)),
            )
            argv = ["module", "--curve", cpath, "--module", mpath]
            out["%s/%s/check" % (label, fx.name)] = _run(argv + ["check"])
            out["%s/%s/connect" % (label, fx.name)] = _run(argv + ["connect", "--samples", "3"])
    return out


def test_cli_reports_match_golden_digests(tmp_path):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    got = digests(str(tmp_path))
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert changed == []


# Runs at the edge of io.DEGREE_BUDGET on Y_3_2, whose pieces the golden runs
# above never reach: `curve … semigroups --max-degree 2000`, and `module …
# connect --samples 1` on the first fixture module with the exponent of its
# second generator raised to 1990 (generator degree 1990).
EDGE_DIGESTS = {
    "semigroups": [0, "06ddfca1588d764acee86fa2b1c695ee0dfbeac5b1f6a4c3f154ae8ace121ce9"],
    "connect": [0, "331ebc0437e4f51d85d3faae2381042ab703f4c1ec378578ae4a50fd5bf72cf3"],
}


def test_cli_reports_at_the_degree_budget_edge(tmp_path):
    entry = catalog_get("Y_3_2")
    curve = entry.curve()
    cpath = _write(str(tmp_path / "curve.json"), io.curve_to_json(curve))
    spec = io.module_to_json(fixture_modules(entry)[0].module(curve))
    spec["generators"][1][0]["exp"] = 1990
    mpath = _write(str(tmp_path / "module.json"), spec)
    got = {
        "semigroups": _run(["curve", "--in", cpath, "semigroups", "--max-degree", "2000"]),
        "connect": _run(["module", "--curve", cpath, "--module", mpath, "connect", "--samples", "1"]),
    }
    assert got == EDGE_DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work_dir:
        captured = digests(work_dir)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            "  %s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(captured.items())
        ))
        fh.write("\n}\n")
