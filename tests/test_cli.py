"""JSON round-trips and the command-line interface."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qhc import connection, io
from qhc import curve as curve_module
from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.cli import build_parser, main
from qhc.errors import InputError

from conftest import y_family_curve
from test_connection import mixed_nabla_D
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


def test_cli_connect_below_the_module_degrees_reports(tmp_path, capsys):
    cpath = _write(tmp_path, "cusp.json", io.curve_to_json(cusp_curve()))
    spec = {
        "cover": [{"branch": 1, "shifts": [10]}],
        "generators": [
            [{"branch": 1, "index": 1, "coeff": "1", "exp": 0}],
            [{"branch": 1, "index": 1, "coeff": "1", "exp": 1}],
        ],
    }
    mpath = _write(tmp_path, "module.json", spec)
    argv = ["module", "--curve", cpath, "--module", mpath, "connect"]
    assert main(argv + ["--max-degree", "5", "--samples", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert report["path"] == "C2-path"
    assert report["verified"] == {"leibniz": 0, "graded": 0, "integrable": 0}


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


def test_cli_mixed_nabla_D_image_exit_code(tmp_path, capsys, monkeypatch):
    # A nabla_D that returns an image of two degrees is a fault of the
    # program, not of the input: exit 2, not the input error's 1.
    entry = catalog_get("A_2")
    curve = entry.curve()
    (fx,) = [fx for fx in fixture_modules(entry) if fx.name == "normalization"]
    cpath = _write(tmp_path, "a2.json", io.curve_to_json(curve))
    mpath = _write(tmp_path, "normalization.json", io.module_to_json(fx.module(curve)))
    monkeypatch.setattr(connection, "apply_nabla_D", mixed_nabla_D(connection.apply_nabla_D))
    code = main(["module", "--curve", cpath, "--module", mpath, "connect", "--samples", "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("internal consistency failure: nabla_D image is not homogeneous")


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


def _term(c, x, y):
    return {"coeff": ["%s/1" % c], "x": x, "y": y}


_CUSP = [_term(1, 2, 0), _term(2, 0, 3)]  # x^2 + 2y^3


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"f": []}, "f must be nonzero"),
        ({"weights": [2, 4], "f": _CUSP}, "weights must be positive and coprime"),
        ({"weights": [1, 1], "f": [_term(1, 0, 0)]}, "f must have positive weight"),
        # The unit 2 is read off the lead term, then the scaled product misses.
        ({"f": _CUSP, "branches": [{"kind": "binomial", "a": ["1/1"], "b": ["-1/1"]}]},
         "branch product does not match f"),
        # Two term pairs of x^4 + x^2*y^3 + y^5 ask for different weights.
        ({"f": [_term(1, 4, 0), _term(1, 2, 3), _term(1, 0, 5)]}, "not quasi-homogeneous"),
    ],
    ids=["f-empty", "weights-not-coprime", "f-constant", "branch-product", "third-term"],
)
def test_cli_curve_spec_errors(tmp_path, capsys, spec, message):
    path = _write(tmp_path, "curve.json", spec)
    assert main(["curve", "--in", path, "info"]) == 1
    assert capsys.readouterr().err == "input error: %s\n" % message


@pytest.mark.parametrize("branch", [0, 3])
def test_cli_rejects_a_cover_row_outside_the_branches(tmp_path, capsys, branch):
    _, cpath = _y_curve_file(tmp_path)  # two branches
    module = {"cover": [{"branch": branch, "shifts": [0]}], "generators": []}
    argv = ["module", "--curve", cpath, "--module", _write(tmp_path, "module.json", module), "check"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "input error: cover branch index %d out of range\n" % branch


def test_cli_single_monomial_needs_weights(tmp_path, capsys):
    # x*y has no weight ratio to infer; given weights it is the two axes,
    # with the constant mixed factor 1 as its unit.
    spec = {"f": [_term(1, 1, 1)]}
    assert main(["curve", "--in", _write(tmp_path, "curve.json", spec), "branches"]) == 1
    assert capsys.readouterr().err == (
        'input error: weights are ambiguous for a single monomial; '
        'give them explicitly ("weights" in a CurveSpec)\n'
    )
    spec["weights"] = [1, 1]
    assert main(["curve", "--in", _write(tmp_path, "weighted.json", spec), "branches"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [br["kind"] for br in out["branches"]] == ["axis_x", "axis_y"]
    assert out["unit"] == ["1/1"]


def test_curve_from_json_infers_weights_once(monkeypatch):
    # The weights inferred for the degree budget are the ones the curve is
    # built with, so QuasiCurve.create infers none again.
    calls = []
    real = io.infer_weights

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(io, "infer_weights", counting)
    monkeypatch.setattr(curve_module, "infer_weights", counting)
    curve = io.curve_from_json({"f": [_term(1, 4, 0), _term(9, 2, 3), _term(8, 0, 6)]})
    assert (curve.wx, curve.wy) == (3, 2)
    assert len(calls) == 1

def test_cli_infers_weights_from_three_terms_and_factors_two_binomials(tmp_path, capsys):
    # x^4 + 9x^2*y^3 + 8y^6 = (x^2 + y^3)(x^2 + 8y^3)
    path = _write(tmp_path, "curve.json", {"f": [_term(1, 4, 0), _term(9, 2, 3), _term(8, 0, 6)]})
    assert main(["curve", "--in", path, "info"]) == 0
    assert json.loads(capsys.readouterr().out)["weights"] == [3, 2]
    assert main(["curve", "--in", path, "branches"]) == 0
    branches = json.loads(capsys.readouterr().out)["branches"]
    assert [(br["kind"], br["a"], br["b"]) for br in branches] == [
        ("binomial", ["1/1"], ["-1/1"]),
        ("binomial", ["8/1"], ["-1/2"]),
    ]


def test_cli_rejects_a_truncated_y_label(capsys):
    _assert_clean_input_error(main(["catalog", "--label", "Y_3", "info"]), capsys)


def test_cli_rejects_a_non_integer_index(capsys):
    code = main(["catalog", "--label", "D", "--index", "abc", "info"])
    _assert_clean_input_error(code, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["--label", "A_\u00b2"],
        ["--label", "Y_3_\u00b9"],
        ["--label", "A", "--index", "\u00b2"],
    ],
)
def test_cli_rejects_superscript_digits(capsys, argv):
    # str.isdigit accepts superscript digits, which int() then rejects.
    code = main(["catalog"] + argv + ["info"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error") and "Traceback" not in err, err


@pytest.mark.parametrize(
    "label, index, message",
    [
        ("A", "9", "A-series catalog covers A_1..A_6"),
        ("D", "7", "D-series catalog covers D_4..D_6"),
        ("E", "5", "E-series catalog covers E_6, E_7, E_8"),
        ("Z", "1", "unknown catalog label 'Z'"),
        ("Y", None, "YFamily needs index (m, n)"),
        ("Y_3", None, "malformed catalog label 'Y_3'"),
        ("Y", "4,2", "YFamily needs coprime (m, n)"),
        ("Y", "11,2", "YFamily supports 1 <= m, n <= 10"),
        ("A_0", None, "A-series catalog covers A_1..A_6"),
        ("D", "1,2", "D-series catalog covers D_4..D_6"),
        ("A_1", "2", "full catalog label 'A_1' cannot be combined with --index"),
        ("Y_3_2", "3,2", "full catalog label 'Y_3_2' cannot be combined with --index"),
    ],
)
def test_cli_catalog_label_errors(capsys, label, index, message):
    argv = ["catalog", "--label", label] + (["--index", index] if index else []) + ["info"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "input error: %s\n" % message)


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


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    # Exit code 2 is kept for internal-consistency failures, so a usage
    # error is an input error; nothing is printed on stdout.
    cpath = _write(tmp_path, "curve.json", io.curve_to_json(cusp_curve()))
    for argv, message in (
        ([], "the following arguments are required: command"),
        (["--bogus"], "the following arguments are required: command"),
        (["catalog", "list", "--bogus"], "unrecognized arguments: --bogus"),
        (["selftest", "--samples", "abc"], "argument --samples: invalid int value: 'abc'"),
        (["curve", "--in", cpath, "semigroups", "--max-degree", "x"],
         "argument --max-degree: invalid int value: 'x'"),
        (["curve", "--in", cpath, "nope"], "argument action: invalid choice: 'nope'"),
        (["catalog", "list", "--format", "yaml"], "argument --format: invalid choice: 'yaml'"),
        (["module", "--curve", cpath, "check"], "the following arguments are required: --module"),
    ):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: qhc") and message in err, err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_options_are_only_those_a_subcommand_reads(tmp_path, capsys):
    cpath = _write(tmp_path, "curve.json", io.curve_to_json(cusp_curve()))
    for argv in (
        ["catalog", "list", "--max-degree", "5"],
        ["catalog", "list", "--samples", "5"],
        ["catalog", "list", "--seed", "5"],
        ["curve", "--in", cpath, "info", "--samples", "5"],
        ["curve", "--in", cpath, "info", "--seed", "5"],
        ["selftest", "--format", "text"],
        ["selftest", "--max-degree", "5"],
    ):
        assert main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["curve", "--in", cpath, "semigroups", "--max-degree", "5", "--format", "text"]) == 0
    capsys.readouterr()


def test_cli_help_exits_0(capsys):
    for argv in (["--help"], ["module", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qhc")


def test_the_shared_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # build_parser is cached, so every main() call after the first parses
    # with the same parser object; each call must print and exit exactly as
    # one made right after a fresh build.
    monkeypatch.setenv("COLUMNS", "80")
    entry = catalog_get("Y_3_2")
    curve = entry.curve()
    cpath = _write(tmp_path, "curve.json", io.curve_to_json(curve))
    module = io.module_to_json(fixture_modules(entry)[0].module(curve))
    connect = ["module", "--curve", cpath, "--module", _write(tmp_path, "module.json", module), "connect"]
    sequence = [
        connect + ["--samples", "3", "--seed", "5"],
        connect + ["--samples", "10001"],
        ["curve", "--in", cpath, "semigroups", "--max-degree", "30"],
        ["curve", "--in", cpath, "semigroups", "--bogus"],
        ["curve", "--in", cpath, "semigroups", "--max-degree", "-1"],
        ["catalog", "list"],
        ["--help"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        return (code,) + tuple(capsys.readouterr())

    build_parser.cache_clear()
    shared = [run(argv) for argv in sequence]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 1, 1, 0, ("SystemExit", 0)]
    # --help is formatted when printed, so the kept parser follows COLUMNS.
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run(["--help"])
    build_parser.cache_clear()
    assert narrow == run(["--help"]) != shared[-1]


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


def test_cli_rejects_a_min_poly_with_a_rational_root(tmp_path, capsys):
    # x^2 - 1 = (a - 1)(a + 1) makes Q[a]/(min_poly) a ring with zero
    # divisors, not a field; the curve and its branches are otherwise valid.
    spec = {
        "field": {"min_poly": ["-1", "0", "1"]},
        "weights": [1, 1],
        "f": [{"coeff": ["1", "0"], "x": 2, "y": 0}, {"coeff": ["-1", "0"], "x": 0, "y": 2}],
        "branches": [
            {"kind": "binomial", "a": ["0", "1"], "b": ["0", "-1"]},
            {"kind": "binomial", "a": ["0", "-1"], "b": ["0", "1"]},
        ],
    }
    path = _write(tmp_path, "curve.json", spec)
    assert main(["curve", "--in", path, "info"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: min_poly has the rational root 1/1, so it is reducible\n"


@pytest.mark.parametrize(
    "min_poly, root",
    [
        (["-1", "0", "1"], "1/1"),  # (x - 1)(x + 1)
        (["-2", "1", "-2", "1"], "2/1"),  # (x - 2)(x^2 + 1)
        (["1", "0", "1"], None),  # x^2 + 1
        (["1", "0", "0", "0", "1"], None),  # x^4 + 1
        (["1", "0", "-1", "0", "1"], None),  # x^4 - x^2 + 1
        (["-2", "0", "1"], None),  # x^2 - 2
        (["-1/2", "0", "1"], None),  # x^2 - 1/2
    ],
)
def test_min_poly_with_a_rational_root_is_rejected(min_poly, root):
    d = len(min_poly) - 1
    one = ["1"] + ["0"] * (d - 1)
    spec = {"field": {"min_poly": min_poly}, "weights": [1, 1],
            "f": [{"coeff": one, "x": 1, "y": 1}]}
    if root is None:
        assert io.curve_from_json(spec).field.degree == d
    else:
        with pytest.raises(InputError, match="min_poly has the rational root %s," % root):
            io.curve_from_json(spec)


def test_the_rational_root_check_is_fast_on_coprime_denominators():
    # Coprime 4-digit denominators make the common denominator D about
    # 10^20 at degree 5 and 10^24 at degree 6, inside every budget.  Listing
    # the divisors of D and c_0*D by trial division, as the search for every
    # p/q with p | c_0 and q | c_s does, ran for more than 30 s on the first.
    cases = [
        (["9999/9973", "1/9967", "1/9949", "1/9941", "1/9931", "1"], None),
        (["9999/9973", "-9998/9967", "9997/9949", "-1/9941", "7/9931", "9/9929", "1"], None),
        # (x - 9999/9973)(x^2 + 1)
        (["-9999/9973", "1", "-9999/9973", "1"], "9999/9973"),
    ]
    for min_poly, root in cases:
        d = len(min_poly) - 1
        spec = {"field": {"min_poly": min_poly}, "weights": [1, 1],
                "f": [{"coeff": ["1"] + ["0"] * (d - 1), "x": 1, "y": 1}]}
        start = time.perf_counter()
        if root is None:
            assert io.curve_from_json(spec).field.degree == d
        else:
            with pytest.raises(InputError, match="min_poly has the rational root %s," % root):
                io.curve_from_json(spec)
        assert time.perf_counter() - start < 0.5, min_poly


def test_cli_derivations_reject_a_smooth_curve(tmp_path, capsys):
    # x^2 + y passes every consistency check on q, whose exponent is -1,
    # and is then an input error.
    spec = {"f": [{"coeff": ["1/1"], "x": 2, "y": 0}, {"coeff": ["1/1"], "x": 0, "y": 1}]}
    path = _write(tmp_path, "smooth.json", spec)
    assert main(["curve", "--in", path, "derivations"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: q is not defined for a smooth branch (negative Frobenius number)\n"


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
    mpath = _write(tmp_path, "module.json", module)
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
        # Without the samples budget, connect --samples 1000000000 runs for days.
        (connect + [mpath, "connect", "--samples", "10001"],
         "--samples 10001 is above the budget 10000"),
        (["selftest", "--samples", "1000000000"],
         "--samples 1000000000 is above the budget 10000"),
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
    # check draws no sample, so it runs at the samples budget at once.
    assert main(connect + [mpath, "check", "--samples", str(io.SAMPLES_BUDGET)]) == 0


_TIMED_CLI = """
import sys, time
from qhc.cli import build_parser, main
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


def test_cli_rejects_a_mixed_factor_with_a_40_digit_end_coefficient(tmp_path):
    # x^4 - (10^39 + 1) x^2 y^3 + 10^39 y^6 = (x^2 - y^3)(x^2 - 10^39 y^3): a
    # mixed factor of degree two, whose root search listed the divisors of
    # 10^39 by trial division and did not finish.  The budget on the end
    # coefficients turns that into an input error; a subprocess turns a
    # hang into a timeout instead of a stalled suite.
    c = 10 ** 39
    spec = {"weights": [3, 2], "f": [
        {"coeff": ["1/1"], "x": 4, "y": 0},
        {"coeff": ["%d/1" % -(c + 1)], "x": 2, "y": 3},
        {"coeff": ["%d/1" % c], "x": 0, "y": 6},
    ]}
    path = _write(tmp_path, "curve.json", spec)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_CLI, "curve", "--in", path, "branches"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 1 and not done.stdout
    err, elapsed = done.stderr.splitlines()
    assert err.startswith("input error: root search") and "Traceback" not in done.stderr, err
    assert float(elapsed.split()[1]) < 1.0


def test_cli_rejects_a_min_poly_above_the_degree_budget(tmp_path):
    # The square-free check on this dense degree-160 min_poly ran past
    # 120 s; the budget rejects it before the field is built.
    rng = random.Random(160)
    min_poly = ["%d/1" % rng.randint(-9, 9) for _ in range(160)] + ["1/1"]
    spec = {"field": {"min_poly": min_poly},
            "f": [{"coeff": ["1/1"], "x": 2, "y": 0}, {"coeff": ["1/1"], "x": 0, "y": 3}]}
    path = _write(tmp_path, "curve.json", spec)
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_CLI, "curve", "--in", path, "info"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert done.returncode == 1 and not done.stdout
    err, elapsed = done.stderr.splitlines()
    assert err == "input error: min_poly has degree 160, above the budget %d" % io.MIN_POLY_DEGREE_BUDGET
    assert float(elapsed.split()[1]) < 1.0
    # The budget itself is allowed.
    spec["field"]["min_poly"] = ["1/1"] + ["0/1"] * (io.MIN_POLY_DEGREE_BUDGET - 1) + ["1/1"]
    one = ["1/1"] + ["0/1"] * (io.MIN_POLY_DEGREE_BUDGET - 1)
    spec.update(weights=[1, 1], f=[{"coeff": one, "x": 1, "y": 1}])
    assert io.curve_from_json(spec).field.degree == io.MIN_POLY_DEGREE_BUDGET


def test_cli_rejects_min_poly_coefficients_above_the_digit_budget(tmp_path, capsys):
    # The square-free check on a dense degree-32 min_poly with 20-digit
    # numerators and denominators took about 9 s; the budget rejects it
    # before the field is built.
    rng = random.Random(32)
    digits = 20
    min_poly = [
        "%d/%d" % (rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10 ** digits),
                   rng.randrange(10 ** (digits - 1), 10 ** digits))
        for _ in range(32)
    ] + ["1/1"]
    spec = {"field": {"min_poly": min_poly},
            "f": [{"coeff": ["1/1"] + ["0/1"] * 31, "x": 2, "y": 0},
                  {"coeff": ["1/1"] + ["0/1"] * 31, "x": 0, "y": 3}]}
    path = _write(tmp_path, "curve.json", spec)
    start = time.perf_counter()
    code = main(["curve", "--in", path, "info"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and not out
    assert err.strip() == (
        "input error: a min_poly coefficient has more than %d digits" % io.MIN_POLY_DIGIT_BUDGET
    )
    assert elapsed < 0.5
    # A numerator or a denominator one digit past the budget is rejected;
    # at the budget both are allowed.
    big = 10 ** io.MIN_POLY_DIGIT_BUDGET
    for coeff in ("%d/1" % big, "1/%d" % big, "%d/1" % -big):
        with pytest.raises(InputError, match="more than %d digits" % io.MIN_POLY_DIGIT_BUDGET):
            io.curve_from_json({"field": {"min_poly": [coeff, "0/1", "1/1"]}, "f": []})
    edge = "%d/%d" % (big - 1, big - 2)
    spec = {"field": {"min_poly": [edge, "0/1", "1/1"]}, "weights": [1, 1],
            "f": [{"coeff": ["1/1", "0/1"], "x": 1, "y": 1}]}
    assert io.curve_from_json(spec).field.min_poly[0] == Fraction(big - 1, big - 2)


def test_cli_rejects_a_min_poly_whose_denominator_scale_is_above_the_budget(tmp_path, capsys):
    # Field products scale by D^(d-1), D the common denominator: a^6 and
    # its inverse took about 7 s on this dense degree-32 min_poly with
    # 2-digit numerators and denominators, inside the digit budget.
    rng = random.Random(32)
    min_poly = [
        "%d/%d" % (rng.choice((1, -1)) * rng.randrange(10, 100), rng.randrange(10, 100))
        for _ in range(32)
    ] + ["1/1"]
    one = ["1/1"] + ["0/1"] * 31
    spec = {"field": {"min_poly": min_poly},
            "f": [{"coeff": one, "x": 2, "y": 0}, {"coeff": one, "x": 0, "y": 3}]}
    path = _write(tmp_path, "curve.json", spec)
    start = time.perf_counter()
    code = main(["curve", "--in", path, "info"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and not out
    assert err.strip() == (
        "input error: the common denominator D of min_poly makes D^31 more than %d digits long"
        % io.MIN_POLY_SCALE_DIGIT_BUDGET
    )
    assert elapsed < 0.5
    # D = 9973 * 9967 has 8 digits: D^16 has 128 and is allowed, D^17 is not.
    for d, allowed in ((17, True), (18, False)):
        coeffs = ["%d/%d" % (k + 1, (9973, 9967)[k % 2]) for k in range(d)] + ["1/1"]
        spec = {"field": {"min_poly": coeffs}, "weights": [1, 1],
                "f": [{"coeff": ["1/1"] + ["0/1"] * (d - 1), "x": 1, "y": 1}]}
        assert (len(str((9973 * 9967) ** (d - 1))) <= io.MIN_POLY_SCALE_DIGIT_BUDGET) == allowed
        if allowed:
            assert io.curve_from_json(spec).field.degree == d
        else:
            with pytest.raises(InputError, match="makes D\\^17 more than"):
                io.curve_from_json(spec)


@pytest.mark.parametrize("label", list(ADE_LABELS) + ["Y_3_2"])
def test_every_catalog_field_loads_within_the_budgets(label):
    curve = catalog_get(label).curve()
    again = io.curve_from_json(io.curve_to_json(curve))
    assert again.field == curve.field and again.branches == curve.branches


@pytest.mark.parametrize(
    "argv", [["catalog", "list"], ["catalog", "--label", "A_2", "fixtures"]], ids=["list", "fixtures"]
)
def test_cli_exits_1_without_a_traceback_when_stdout_is_closed(argv):
    # The read end is closed before the child starts, so its first write to
    # stdout fails, as under `qhc ... | head` once head has exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qhc.cli"] + argv,
            env={**os.environ, "PYTHONPATH": src},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


@pytest.mark.parametrize(
    "label, kind, path, argv",
    [
        ("Y_3_2", "curve", ("f", 1, "coeff", 0), ["branches"]),
        ("Y_3_2", "curve", ("f", 1, "coeff"), ["branches"]),
        ("D_4", "curve", ("field", "min_poly", 2), ["info"]),
        ("Y_3_2", "module", ("generators", 0, 0, "coeff", 0), ["check"]),
        ("Y_3_2", "module", ("generators", 0, 0, "coeff"), ["check"]),
    ],
    ids=["f-coeff", "f-bare-coeff", "min-poly", "generator-coeff", "generator-bare-coeff"],
)
def test_cli_rejects_a_boolean_coefficient(tmp_path, capsys, label, kind, path, argv):
    # JSON true is a bool, which Python counts as the int 1: it must not
    # load as the coefficient 1.  Each spec loads with the value it replaces.
    entry = catalog_get(label)
    curve = entry.curve()
    curve_spec = io.curve_to_json(curve)
    module_spec = io.module_to_json(fixture_modules(entry)[0].module(curve))
    cpath = _write(tmp_path, "curve.json", curve_spec)
    mpath = _write(tmp_path, "module.json", module_spec)
    if kind == "curve":
        command = ["curve", "--in", cpath]
    else:
        command = ["module", "--curve", cpath, "--module", mpath]
    assert main(command + argv) == 0
    capsys.readouterr()
    spec = _with(curve_spec if kind == "curve" else module_spec, path, True)
    _write(tmp_path, kind + ".json", spec)
    assert main(command + argv) == 1
    assert capsys.readouterr().err == "input error: not a rational value: True\n"
