"""JSON encodings: CurveSpec, ModuleSpec and the report payloads.

Rationals are encoded as reduced "num/den" strings and field elements as
arrays of d such strings; branch/slot indices are 1-based on the wire.
Report dictionaries are built in a fixed key order so serialized output
is byte-identical across runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .curve import Branch, BranchKind, QuasiCurve
from .errors import InputError
from .field import FieldElement, NumberField, as_fraction, element_from_json, fraction_str
from .module import FreeCover, GradedSubmodule, ModuleElement, Witness
from .poly import BiPoly, UniPoly


# -- curve specs -------------------------------------------------------------

def curve_from_json(data: Dict[str, Any]) -> QuasiCurve:
    try:
        field_data = data.get("field", {"min_poly": ["0/1", "1/1"]})
        field = NumberField(tuple(as_fraction(c) for c in field_data["min_poly"]))
        terms = {}
        for term in data["f"]:
            coeff = element_from_json(field, term["coeff"])
            terms[(int(term["x"]), int(term["y"]))] = coeff
        f = BiPoly.make(field, terms)
        weights = None
        if "weights" in data:
            weights = tuple(data["weights"])
            if len(weights) != 2 or not all(
                isinstance(w, int) and not isinstance(w, bool) for w in weights
            ):
                raise InputError("weights must be a list of two integers")
        branches = None
        if "branches" in data:
            branches = []
            for br in data["branches"]:
                kind = BranchKind(br["kind"])
                a = element_from_json(field, br["a"]) if "a" in br else None
                b = element_from_json(field, br["b"]) if "b" in br else None
                branches.append((kind, a, b))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed CurveSpec: %s" % exc) from exc
    return QuasiCurve.create(field, f, weights, branches)


def curve_to_json(curve: QuasiCurve) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "field": {"min_poly": [fraction_str(c) for c in curve.field.min_poly]},
        "weights": [curve.wx, curve.wy],
        "f": [
            {"coeff": c.to_json(), "x": a, "y": b}
            for (a, b), c in curve.f.terms
        ],
        "branches": [],
    }
    for br in curve.branches:
        item: Dict[str, Any] = {"kind": br.kind.value}
        if br.a is not None:
            item["a"] = br.a.to_json()
            item["b"] = br.b.to_json()
        out["branches"].append(item)
    return out


# -- module specs ------------------------------------------------------------

def module_from_json(curve: QuasiCurve, data: Dict[str, Any]) -> GradedSubmodule:
    try:
        shifts: List[tuple] = [() for _ in range(curve.r)]
        for row in data["cover"]:
            i = int(row["branch"]) - 1
            if not 0 <= i < curve.r:
                raise InputError("cover branch index %d out of range" % (i + 1))
            shifts[i] = tuple(int(s) for s in row["shifts"])
        cover = FreeCover(tuple(shifts))
        generators = []
        for gen in data["generators"]:
            entries: Dict[tuple, UniPoly] = {}
            for term in gen:
                i = int(term["branch"]) - 1
                j = int(term["index"]) - 1
                if not (0 <= i < curve.r and 0 <= j < len(shifts[i])):
                    raise InputError(
                        "generator term (branch %d, index %d) is not a cover slot"
                        % (i + 1, j + 1)
                    )
                coeff = element_from_json(curve.field, term["coeff"])
                exp = int(term["exp"])
                mono = UniPoly.monomial(curve.field, coeff, exp)
                key = (i, j)
                entries[key] = entries.get(key, UniPoly.zero(curve.field)) + mono
            generators.append(ModuleElement(curve.field, entries))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed ModuleSpec: %s" % exc) from exc
    return GradedSubmodule(curve, cover, generators)


def module_to_json(M: GradedSubmodule) -> Dict[str, Any]:
    return {
        "cover": [
            {"branch": i + 1, "shifts": list(row)}
            for i, row in enumerate(M.cover.shifts)
        ],
        "generators": [element_to_json(g) for g in M.generators],
    }


def element_to_json(v: ModuleElement) -> List[Dict[str, Any]]:
    out = []
    for (i, j, e), c in sorted(v.coeffs.items()):
        out.append({"branch": i + 1, "index": j + 1, "coeff": c.to_json(), "exp": e})
    return out


def witness_to_json(witness: Optional[Witness]) -> Optional[List[Dict[str, Any]]]:
    if witness is None:
        return None
    return [
        {"generator": l + 1, "x": a, "y": b, "coeff": c.to_json()}
        for l, (a, b), c in witness
    ]
