"""Command-line interface.

Subcommands:
  qhc curve --in c.json {info|branches|semigroups|derivations}
  qhc module --curve c.json --module m.json {check|connect}
  qhc catalog --label A --index 2 {list|info|fixtures}
  qhc selftest

Exit codes: 0 success, 1 input error, 2 internal-consistency failure,
3 no natural connection found (the report is still emitted).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional

from . import io
from .catalog import catalog_get, catalog_labels, fixture_modules
from .connection import natural_connection, verify_properties
from .curve import QuasiCurve
from .derivation import extend, euler, koszul, koszul_data, q_element
from .errors import ConsistencyError, InputError, QhcError
from .field import fraction_str
from .module import GradedSubmodule
from .semigroup import gamma_formula, gamma_oracle, is_symmetric


def _emit(report: Dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        _emit_text(report, indent=0)


def _emit_text(value: Any, indent: int, key: Optional[str] = None) -> None:
    pad = "  " * indent
    label = "%s: " % key if key is not None else ""
    if isinstance(value, dict):
        print("%s%s" % (pad, label.rstrip() or ""))
        for k, v in value.items():
            _emit_text(v, indent + 1, k)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        print("%s%s" % (pad, label.rstrip()))
        for v in value:
            _emit_text(v, indent + 1)
    else:
        print("%s%s%s" % (pad, label, value))


def _load_curve(path: str) -> QuasiCurve:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("bad JSON in %s: line %d: %s" % (path, exc.lineno, exc.msg)) from exc
    return io.curve_from_json(data)


def _load_module(path: str, curve: QuasiCurve) -> GradedSubmodule:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("bad JSON in %s: line %d: %s" % (path, exc.lineno, exc.msg)) from exc
    return io.module_from_json(curve, data)


def _semigroup_report(curve: QuasiCurve, max_degree: Optional[int]) -> Dict[str, Any]:
    branches = []
    for i in range(curve.r):
        gamma = gamma_formula(curve, i)
        bound = max_degree if max_degree is not None else gamma.conductor + 10
        oracle = gamma_oracle(curve, i, bound)
        formula = gamma.members_upto(bound)
        branches.append(
            {
                "branch": i + 1,
                "shift": gamma.shift,
                "base_generators": list(gamma.base.generators),
                "gaps": sorted(gamma.base.gaps),
                "conductor": gamma.conductor,
                "frobenius": gamma.frobenius,
                "symmetric_base": is_symmetric(gamma.base),
                "members_upto_bound": sorted(formula),
                "oracle_agrees": oracle == formula,
            }
        )
    return {"weights": [curve.wx, curve.wy], "w_f": curve.wf, "branches": branches}


def _derivation_report(curve: QuasiCurve) -> Dict[str, Any]:
    ext = extend(curve, koszul(curve))
    data = koszul_data(curve, ext)
    q = q_element(curve)
    branches = []
    for i in range(curve.r):
        branches.append(
            {
                "branch": i + 1,
                "beta": data.betas[i].to_json(),
                "c": data.conductors[i],
                "g": q.exps[i],
                "delta": str(ext.deltas[i]),
            }
        )
    return {
        "koszul_weight": curve.wf - curve.wx - curve.wy,
        "branches": branches,
        "q": [
            {"coeff": c.to_json(), "exp": e} for c, e in zip(q.coeffs, q.exps)
        ],
        "q_in_A_colon_m": True,  # q_element raises otherwise
    }


def _connect_report(curve: QuasiCurve, M: GradedSubmodule, args) -> Dict[str, Any]:
    report = natural_connection(curve, M)
    out: Dict[str, Any] = {
        "path": report.path,
        "lambda": report.lam,
        "c1": [{"branch": i + 1, "index": j + 1, "holds": v} for (i, j), v in sorted(report.c1.items())],
        "c2": [{"branch": i + 1, "index": j + 1, "holds": v} for (i, j), v in sorted(report.c2.items())],
        "c3": {"holds": report.c3[0], "lambda": report.c3[1]},
        "module": io.module_to_json(report.module),
        "nablaD_images": [io.element_to_json(img) for img in report.images],
        "witnesses": [io.witness_to_json(w) for w in report.witnesses],
    }
    if report.succeeded:
        counts = verify_properties(
            curve,
            report,
            degree_bound=args.max_degree,
            samples=args.samples,
            seed=args.seed,
        )
        out["verified"] = counts
    return out


def cmd_curve(args) -> int:
    curve = _load_curve(args.infile)
    if args.action == "info":
        _emit(io.curve_to_json(curve), args.format)
    elif args.action == "branches":
        report = {
            "unit": curve.unit.to_json(),
            "branches": [
                {
                    "branch": i + 1,
                    "kind": br.kind.value,
                    "a": br.a.to_json() if br.a is not None else None,
                    "b": br.b.to_json() if br.b is not None else None,
                    "weight": br.weight,
                    "t_degree": br.t_degree,
                    "branch_conductor": br.conductor,
                    "n_x": str(br.nx),
                    "n_y": str(br.ny),
                }
                for i, br in enumerate(curve.branches)
            ],
        }
        _emit(report, args.format)
    elif args.action == "semigroups":
        _emit(_semigroup_report(curve, args.max_degree), args.format)
    elif args.action == "derivations":
        _emit(_derivation_report(curve), args.format)
    return 0


def cmd_module(args) -> int:
    curve = _load_curve(args.curve)
    M = _load_module(args.module, curve)
    if args.action == "check":
        Mc = M.canonical_embedding()
        report = {
            "canonical": io.module_to_json(Mc),
            "c1": [{"branch": i + 1, "index": j + 1, "holds": v} for (i, j), v in sorted(Mc.check_C1().items())],
            "c2": [{"branch": i + 1, "index": j + 1, "holds": v} for (i, j), v in sorted(Mc.check_C2().items())],
            "c3": {"holds": Mc.check_C3()[0], "lambda": Mc.check_C3()[1]},
        }
        _emit(report, args.format)
        return 0
    report = _connect_report(curve, M, args)
    _emit(report, args.format)
    return 0 if report["path"] != "none" else 3


def cmd_catalog(args) -> int:
    if args.action == "list":
        _emit({"labels": catalog_labels()}, args.format)
        return 0
    if args.label is None:
        raise InputError("catalog info/fixtures needs --label")
    index = None
    if args.index is not None:
        parts = args.index.split(",")
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise InputError("--index must be an integer or m,n") from None
        if len(values) > 2:
            raise InputError("--index must be an integer or m,n")
        index = tuple(values) if len(values) == 2 else values[0]
    entry = catalog_get(args.label, index)
    if args.action == "info":
        report = {
            "label": entry.label,
            "description": entry.description,
            "min_poly": [fraction_str(c) for c in entry.field.min_poly],
            "curve": io.curve_to_json(entry.curve()),
        }
        _emit(report, args.format)
        return 0
    curve = entry.curve()
    fixtures = [
        {"name": fx.name, "module": io.module_to_json(fx.module(curve))}
        for fx in fixture_modules(entry)
    ]
    _emit({"label": entry.label, "fixtures": fixtures}, args.format)
    return 0


def cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            print("PASS %s" % name)
        except Exception as exc:  # pragma: no cover - failure path
            failures += 1
            print("FAIL %s: %s" % (name, exc))

    def catalog_ok():
        for label in ("A_2", "A_3", "D_4", "D_5", "E_7"):
            catalog_get(label)

    def oracle_ok():
        curve = catalog_get("Y", (3, 2)).curve()
        for i in range(curve.r):
            gamma = gamma_formula(curve, i)
            bound = gamma.conductor + 10
            assert gamma_oracle(curve, i, bound) == gamma.members_upto(bound)

    def connect_ok():
        entry = catalog_get("Y", (3, 2))
        curve = entry.curve()
        for fx in fixture_modules(entry):
            report = natural_connection(curve, fx.module(curve))
            assert report.path == "C2-path", fx.name
            verify_properties(curve, report, samples=args.samples, seed=args.seed)

    check("catalog entries validate", catalog_ok)
    check("semigroup oracle agrees with formula", oracle_ok)
    check("fixture connections construct and verify", connect_ok)
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhc",
        description="Graded connections on modules over quasi-homogeneous plane curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)

    p_curve = sub.add_parser("curve", help="analyze a curve spec")
    p_curve.add_argument("--in", dest="infile", required=True)
    p_curve.add_argument(
        "action", choices=("info", "branches", "semigroups", "derivations")
    )
    common(p_curve)
    p_curve.set_defaults(func=cmd_curve)

    p_mod = sub.add_parser("module", help="check or connect a module spec")
    p_mod.add_argument("--curve", required=True)
    p_mod.add_argument("--module", required=True)
    p_mod.add_argument("action", choices=("check", "connect"))
    common(p_mod)
    p_mod.set_defaults(func=cmd_module)

    p_cat = sub.add_parser("catalog", help="preset singularities and fixtures")
    p_cat.add_argument("--label", default=None)
    p_cat.add_argument("--index", default=None, help="integer, or m,n for the Y family")
    p_cat.add_argument("action", choices=("list", "info", "fixtures"))
    common(p_cat)
    p_cat.set_defaults(func=cmd_catalog)

    p_self = sub.add_parser("selftest", help="run built-in consistency checks")
    common(p_self)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_degree is not None and args.max_degree < 0:
            raise InputError("--max-degree must be nonnegative")
        if args.samples < 0:
            raise InputError("--samples must be nonnegative")
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 2
    except QhcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
