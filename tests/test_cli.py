"""JSON round-trips and the command-line interface."""

import json

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
