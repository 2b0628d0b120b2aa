"""JSON round-trips and the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qhc import io
from qhc.catalog import catalog_get, fixture_modules
from qhc.cli import main
from qhc.errors import InputError

from conftest import y_family_curve
from test_module import case1_module, unstable_cusp_module
from conftest import cusp_curve


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _y_curve_file(tmp_path):
    curve = y_family_curve(3, 2)
    return curve, _write(tmp_path, "curve.json", io.curve_to_json(curve))


def test_curve_spec_round_trip():
    curve = y_family_curve(3, 2)
    again = io.curve_from_json(io.curve_to_json(curve))
    assert again.f == curve.f
    assert (again.wx, again.wy, again.unit) == (curve.wx, curve.wy, curve.unit)
    assert again.branches == curve.branches


def test_extension_curve_spec_round_trip():
    curve = catalog_get("D_4").curve()
    again = io.curve_from_json(io.curve_to_json(curve))
    assert again.branches == curve.branches
    assert again.field == curve.field


def test_repeated_module_spec_terms_add_up():
    curve = y_family_curve(3, 2)
    one, two = curve.field.one(), curve.field.from_rational(2)
    spec = io.module_to_json(case1_module(curve, 3))
    spec["generators"][1] *= 2  # t_2^3 e_21 listed twice
    spec["generators"][0].append({"branch": 1, "index": 1, "coeff": ["-1/1"], "exp": 0})
    M = io.module_from_json(curve, spec)
    assert [g.coeffs for g in M.generators] == [{(1, 0, 0): one}, {(1, 0, 3): two}]
    # Terms that cancel leave a zero generator, which is rejected.
    spec["generators"][0].append({"branch": 2, "index": 1, "coeff": ["-1/1"], "exp": 0})
    with pytest.raises(InputError, match="zero generator is not allowed"):
        io.module_from_json(curve, spec)


def test_negative_exponent_in_a_module_spec_rejected():
    curve = y_family_curve(3, 2)
    spec = io.module_to_json(case1_module(curve, 3))
    spec["generators"][1].append({"branch": 1, "index": 1, "coeff": ["0/1"], "exp": -1})
    with pytest.raises(InputError, match="negative exponent in k\\[t\\]"):
        io.module_from_json(curve, spec)


def test_cover_row_given_twice_rejected():
    curve = y_family_curve(3, 2)
    spec = io.module_to_json(case1_module(curve, 3))
    spec["cover"].append({"branch": 1, "shifts": [0, 1]})
    with pytest.raises(InputError, match="cover row for branch 1 given twice"):
        io.module_from_json(curve, spec)


def test_module_spec_round_trip():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 3)
    again = io.module_from_json(curve, io.module_to_json(M))
    assert again.cover.shifts == M.cover.shifts
    assert again.generators == M.generators


def test_malformed_specs_rejected():
    with pytest.raises(InputError, match="malformed CurveSpec"):
        io.curve_from_json({"weights": [3, 2]})
    curve = y_family_curve(3, 2)
    with pytest.raises(InputError, match="malformed ModuleSpec"):
        io.module_from_json(curve, {"cover": []})


def test_cli_curve_actions(tmp_path, capsys):
    _, path = _y_curve_file(tmp_path)
    for action in ("info", "branches", "semigroups", "derivations"):
        assert main(["curve", "--in", path, action]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out
    assert main(["curve", "--in", path, "semigroups", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "oracle_agrees: True" in text


def test_cli_semigroup_report_content(tmp_path, capsys):
    _, path = _y_curve_file(tmp_path)
    assert main(["curve", "--in", path, "semigroups"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["w_f"] == 8
    by_branch = {b["branch"]: b for b in report["branches"]}
    assert by_branch[1]["frobenius"] == 1
    assert by_branch[2]["frobenius"] == 3
    assert all(b["oracle_agrees"] for b in report["branches"])


def test_cli_module_check_and_connect(tmp_path, capsys):
    curve, cpath = _y_curve_file(tmp_path)
    M = case1_module(curve, 3)
    mpath = _write(tmp_path, "module.json", io.module_to_json(M))
    assert main(["module", "--curve", cpath, "--module", mpath, "check"]) == 0
    check = json.loads(capsys.readouterr().out)
    assert all(item["holds"] for item in check["c1"] + check["c2"])
    assert check["c3"]["holds"] is True
    code = main(
        ["module", "--curve", cpath, "--module", mpath, "connect", "--samples", "10"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["path"] == "C2-path"
    assert report["verified"]["leibniz"] > 0


def test_cli_connect_failure_exit_code(tmp_path, capsys):
    curve = cusp_curve()
    cpath = _write(tmp_path, "cusp.json", io.curve_to_json(curve))
    M = unstable_cusp_module(curve)
    mpath = _write(tmp_path, "unstable.json", io.module_to_json(M))
    code = main(["module", "--curve", cpath, "--module", mpath, "connect"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["path"] == "none"
    assert "verified" not in report


def test_cli_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["curve", "--in", missing, "info"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["curve", "--in", str(bad), "info"]) == 1
    err = capsys.readouterr().err
    assert "input error" in err


def test_cli_catalog_actions(capsys):
    assert main(["catalog", "list"]) == 0
    labels = json.loads(capsys.readouterr().out)["labels"]
    assert "A_2" in labels
    assert main(["catalog", "--label", "D", "--index", "5", "info"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["label"] == "D_5"
    assert info["curve"]["weights"] == [3, 2]
    assert main(["catalog", "--label", "Y", "--index", "3,2", "fixtures"]) == 0
    fixtures = json.loads(capsys.readouterr().out)["fixtures"]
    assert [fx["name"] for fx in fixtures] == ["case1_h1", "case1_h3", "case2_h1"]
    assert main(["catalog", "info"]) == 1  # --label required


def test_cli_selftest(capsys):
    assert main(["selftest", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


def test_cli_output_is_byte_identical_across_runs(tmp_path, capsys):
    curve, cpath = _y_curve_file(tmp_path)
    M = case1_module(curve, 1)
    mpath = _write(tmp_path, "module.json", io.module_to_json(M))
    outputs = []
    for _ in range(2):
        assert (
            main(
                [
                    "module",
                    "--curve",
                    cpath,
                    "--module",
                    mpath,
                    "connect",
                    "--samples",
                    "10",
                ]
            )
            == 0
        )
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_fixture_specs_load_back(tmp_path, capsys):
    entry = catalog_get("Y", (3, 2))
    curve = entry.curve()
    assert main(["catalog", "--label", "Y", "--index", "3,2", "fixtures"]) == 0
    fixtures = json.loads(capsys.readouterr().out)["fixtures"]
    bundled = fixture_modules(entry)
    for payload, fx in zip(fixtures, bundled):
        M = io.module_from_json(curve, payload["module"])
        assert M.cover.shifts == fx.module(curve).cover.shifts
        assert M.generators == fx.module(curve).generators


def _assert_clean_input_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 1
    assert "input error" in err
    assert "Traceback" not in err


def test_cli_rejects_one_weight(tmp_path, capsys):
    spec = io.curve_to_json(y_family_curve(3, 2))
    spec["weights"] = [3]
    path = _write(tmp_path, "curve.json", spec)
    _assert_clean_input_error(main(["curve", "--in", path, "info"]), capsys)


def test_cli_rejects_a_truncated_y_label(capsys):
    _assert_clean_input_error(main(["catalog", "--label", "Y_3", "info"]), capsys)


def test_cli_rejects_a_non_integer_index(capsys):
    code = main(["catalog", "--label", "D", "--index", "abc", "info"])
    _assert_clean_input_error(code, capsys)


@pytest.mark.parametrize("branch, index", [(3, 1), (1, 2), (0, 1), (2, 0)])
def test_module_terms_outside_the_cover_rejected(branch, index):
    curve = y_family_curve(3, 2)
    spec = io.module_to_json(case1_module(curve, 3))
    spec["generators"][0].append(
        {"branch": branch, "index": index, "coeff": ["1/1"], "exp": 0}
    )
    with pytest.raises(InputError, match="not a cover slot"):
        io.module_from_json(curve, spec)


def test_cli_rejects_negative_bounds(tmp_path, capsys):
    entry = catalog_get("Y_3_2")
    curve = entry.curve()
    cpath = _write(tmp_path, "curve.json", io.curve_to_json(curve))
    module = fixture_modules(entry)[0].module(curve)
    mpath = _write(tmp_path, "module.json", io.module_to_json(module))
    connect = ["module", "--curve", cpath, "--module", mpath, "connect"]
    for argv in (
        ["curve", "--in", cpath, "semigroups", "--max-degree", "-5"],
        connect + ["--max-degree", "-5"],
        connect + ["--samples", "-3"],
        ["selftest", "--samples", "-3"],
    ):
        _assert_clean_input_error(main(argv), capsys)


def test_cli_rejects_a_min_poly_with_a_repeated_root(tmp_path, capsys):
    # D_4 lives over Q(i); (a + 1)^2 keeps the coordinate count but is not
    # square-free, so the spec fails before any branch is read.
    spec = io.curve_to_json(catalog_get("D_4").curve())
    spec["field"]["min_poly"] = ["1/1", "2/1", "1/1"]
    path = _write(tmp_path, "curve.json", spec)
    assert main(["curve", "--in", path, "info"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: min_poly must be square-free\n"


_HUGE = "HUGE"  # written to the file as the JSON number 1e400


def _with(spec, path, value):
    """spec with the entry at path (keys and indices) set to value."""
    if not path:
        return value
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return spec


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("curve", ("f", 1, "x"), 2.7),
        ("curve", ("f", 0, "y"), _HUGE),
        ("curve", ("f", 0, "coeff"), ["1/0"]),
        ("curve", ("f", 1, "y"), -1),
        ("curve", (), []),
        ("module", ("generators", 1, 0, "exp"), 1.5),
        ("module", ("generators", 0, 0, "exp"), _HUGE),
        ("module", ("cover", 0, "shifts", 0), _HUGE),
        ("module", ("generators", 0, 0, "branch"), True),
        ("module", (), []),
        ("module", ("cover",), [{"branch": 1, "shifts": [0]}, {"branch": 2, "shifts": [0]},
                                {"branch": 1, "shifts": [0, 1]}]),
    ],
    ids=["x-float", "y-1e400", "coeff-1/0", "y-negative", "curve-list", "exp-float", "exp-1e400",
         "shift-1e400", "branch-bool", "module-list", "cover-row-twice"],
)
def test_cli_rejects_inexact_integers_and_malformed_specs(tmp_path, capsys, kind, path, value):
    # Truncated, 2.7 and 1.5 would read as the spec's own 2 and 1.
    entry = catalog_get("Y_3_2")
    curve = entry.curve()
    specs = {
        "curve": io.curve_to_json(curve),
        "module": io.module_to_json(fixture_modules(entry)[0].module(curve)),
    }
    specs[kind] = _with(specs[kind], path, value)
    paths = {}
    for name, spec in specs.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(spec).replace('"%s"' % _HUGE, "1e400"))
    argv = ["module", "--curve", str(paths["curve"]), "--module", str(paths["module"])]
    for action in (["check"], ["connect", "--samples", "1"]):
        _assert_clean_input_error(main(argv + action), capsys)


def test_cli_connects_the_zero_module(tmp_path, capsys):
    curve = y_family_curve(3, 2)
    cpath = _write(tmp_path, "curve.json", io.curve_to_json(curve))
    mpath = _write(tmp_path, "module.json", {"cover": [{"branch": 1, "shifts": [0]}], "generators": []})
    argv = ["module", "--curve", cpath, "--module", mpath]
    assert main(argv + ["check"]) == 0
    capsys.readouterr()
    assert main(argv + ["connect", "--samples", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["path"] == "direct-stability"
    assert report["verified"] == {"leibniz": 0, "graded": 0, "integrable": 0}


def test_cli_rejects_degrees_above_the_budget(tmp_path, capsys):
    # Before the budget the first took minutes and the second 5.7 s and 268 MB.
    entry = catalog_get("Y_3_2")
    curve = entry.curve()
    cpath = _write(tmp_path, "curve.json", io.curve_to_json(curve))
    module = io.module_to_json(fixture_modules(entry)[0].module(curve))
    high = json.loads(json.dumps(module))
    high["generators"][1][0]["exp"] = 100000
    low = {"cover": [{"branch": 1, "shifts": [-20000]}, {"branch": 2, "shifts": [0]}],
           "generators": [[{"branch": 1, "index": 1, "coeff": ["1/1"], "exp": 0}]]}
    big = {"f": [{"coeff": ["1/1"], "x": 2, "y": 0}, {"coeff": ["1/1"], "x": 0, "y": 2000001}]}
    negative = {"f": [{"coeff": ["1/1"], "x": 2, "y": -1}, {"coeff": ["1/1"], "x": 0, "y": 1}]}
    connect = ["module", "--curve", cpath, "--module"]
    cases = [
        (connect + [_write(tmp_path, "high.json", high), "connect", "--samples", "1"],
         "a generator has degree 100000, outside the budget [-2000, 2000]"),
        (connect + [_write(tmp_path, "low.json", low), "check"],
         "a generator has degree -20000, outside the budget [-2000, 2000]"),
        (["curve", "--in", _write(tmp_path, "big.json", big), "branches"],
         "f has weighted degree 4000002, above the budget 2000"),
        (["curve", "--in", cpath, "semigroups", "--max-degree", "2001"],
         "--max-degree 2001 is above the budget 2000"),
        (["curve", "--in", _write(tmp_path, "negative.json", negative), "branches"],
         "negative exponent in k[x,y]"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 1
        assert capsys.readouterr().err == "input error: %s\n" % message
    # The budget itself is allowed.
    at_budget = {"f": [{"coeff": ["1/1"], "x": 1, "y": 0}, {"coeff": ["-1/1"], "x": 0, "y": io.DEGREE_BUDGET}]}
    assert io.curve_from_json(at_budget).wf == io.DEGREE_BUDGET
    high["generators"][1][0]["exp"] = io.DEGREE_BUDGET
    assert io.module_from_json(curve, high).weights == [0, io.DEGREE_BUDGET]


_TIMED_CLI = """
import sys, time
from qhc.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print("elapsed %.6f" % (time.perf_counter() - start), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "c, code, message",
    [
        (12345678901 ** 3, 0, None),  # a 31-digit cube
        (10 ** 24 + 7, 1, "b_i not in field"),  # 25 digits, not a cube
    ],
)
def test_cli_branches_of_a_cusp_with_a_large_coefficient(tmp_path, c, code, message):
    # x^2 + c*y^3 has a linear mixed factor 1 + c*u, whose root is read
    # directly; a divisor scan of c would not finish. A subprocess turns a
    # hang into a timeout instead of a stalled suite.
    spec = {"f": [{"coeff": ["1/1"], "x": 2, "y": 0}, {"coeff": ["%d/1" % c], "x": 0, "y": 3}]}
    path = _write(tmp_path, "cusp.json", spec)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_CLI, "curve", "--in", path, "branches"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == code, done.stderr
    *err, elapsed = done.stderr.splitlines()
    assert float(elapsed.split()[1]) < 1.0
    if message is None:
        branch, = json.loads(done.stdout)["branches"]
        assert branch["a"] == ["%d/1" % c] and branch["b"] == ["-1/12345678901"]
    else:
        assert message in "\n".join(err) and not done.stdout
