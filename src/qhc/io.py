"""JSON encodings: CurveSpec, ModuleSpec and the report payloads.

Rationals are encoded as reduced "num/den" strings and field elements as
arrays of d such strings; branch/slot indices are 1-based on the wire.
Report dictionaries are built in a fixed key order so serialized output
is byte-identical across runs.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from .curve import BranchKind, QuasiCurve, find_rational_root, infer_weights
from .errors import InputError
from .field import FieldElement, NumberField, as_fraction, element_from_json, fraction_str
from .module import FreeCover, GradedSubmodule, ModuleElement, Witness
from .poly import BiPoly


# The largest weighted degree of f, absolute generator degree and
# --max-degree an input may ask for: work grows faster than linearly in them.
DEGREE_BUDGET = 2000
# The largest min_poly degree a CurveSpec may give: the square-free check
# and field arithmetic grow faster than linearly in it.  The catalog's
# largest is 4.
MIN_POLY_DEGREE_BUDGET = 32
# The most decimal digits a min_poly numerator or denominator may have: the
# square-free check grows faster than linearly in them (a dense degree-32
# min_poly with 4-digit numerators and denominators takes about 0.4 s, with
# 10-digit ones about 2.5 s).  The catalog's have one.
MIN_POLY_DIGIT_BUDGET = 4
# The most decimal digits D^(d-1) may have, D the common denominator of a
# degree-d min_poly: NumberField._reduce scales every product by it.  a^6
# and its inverse, a with random one-digit coordinates, on a dense degree-32
# min_poly take, by digits of D^(d-1): 1 (4-digit integers) 0.49 s, 106
# (1-digit denominators) 0.55 s, 124 (one 4-digit denominator) 0.60 s, 248
# (two) 1.5 s, 732 (random 2-digit numerators and denominators) 7.0 s.  The
# catalog's have 1.
MIN_POLY_SCALE_DIGIT_BUDGET = 128
# The largest --samples a connect or selftest may ask for: each sample
# builds, acts on and compares module elements.
SAMPLES_BUDGET = 10000


def _integer(value: Any, name: str) -> int:
    """A JSON integer field: a float or a bool is an error, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError("%s must be an integer, not %r" % (name, value))


# -- curve specs -------------------------------------------------------------

def curve_from_json(data: Dict[str, Any]) -> QuasiCurve:
    if not isinstance(data, dict):
        raise InputError("a CurveSpec must be a JSON object")
    try:
        field_data = data.get("field", {"min_poly": ["0/1", "1/1"]})
        min_poly = field_data["min_poly"]
        if len(min_poly) - 1 > MIN_POLY_DEGREE_BUDGET:
            raise InputError(
                "min_poly has degree %d, above the budget %d"
                % (len(min_poly) - 1, MIN_POLY_DEGREE_BUDGET)
            )
        coeffs = tuple(as_fraction(c) for c in min_poly)
        bound = 10 ** MIN_POLY_DIGIT_BUDGET
        if any(abs(c.numerator) >= bound or c.denominator >= bound for c in coeffs):
            raise InputError(
                "a min_poly coefficient has more than %d digits" % MIN_POLY_DIGIT_BUDGET
            )
        d = len(coeffs) - 1
        D = math.lcm(*(c.denominator for c in coeffs))
        if d > 1 and D ** (d - 1) >= 10 ** MIN_POLY_SCALE_DIGIT_BUDGET:
            raise InputError(
                "the common denominator D of min_poly makes D^%d more than %d digits long"
                % (d - 1, MIN_POLY_SCALE_DIGIT_BUDGET)
            )
        field = NumberField(coeffs)
        root = find_rational_root(coeffs) if d > 1 else None
        if root is not None:
            raise InputError("min_poly has the rational root %s, so it is reducible"
                             % fraction_str(root))
        terms = {}
        for term in data["f"]:
            coeff = element_from_json(field, term["coeff"])
            xe, ye = _integer(term["x"], "x"), _integer(term["y"], "y")
            if xe < 0 or ye < 0:
                raise InputError("negative exponent in k[x,y]")
            terms[(xe, ye)] = coeff
        f = BiPoly.make(field, terms)
        weights = None
        if "weights" in data:
            weights = tuple(_integer(w, "a weight") for w in data["weights"])
            if len(weights) != 2:
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
    if f:
        wx, wy = weights if weights is not None else infer_weights(f)
        degree = max(a * wx + b * wy for (a, b), _ in f.terms)
        if degree > DEGREE_BUDGET:
            raise InputError("f has weighted degree %d, above the budget %d" % (degree, DEGREE_BUDGET))
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
    if not isinstance(data, dict):
        raise InputError("a ModuleSpec must be a JSON object")
    try:
        shifts: Dict[int, tuple] = {}
        for row in data["cover"]:
            i = _integer(row["branch"], "branch") - 1
            if not 0 <= i < curve.r:
                raise InputError("cover branch index %d out of range" % (i + 1))
            if i in shifts:
                raise InputError("cover row for branch %d given twice" % (i + 1))
            shifts[i] = tuple(_integer(s, "shift") for s in row["shifts"])
        cover = FreeCover(tuple(shifts.get(i, ()) for i in range(curve.r)))
        generators = []
        for gen in data["generators"]:
            # Repeated (branch, index, exp) terms add up.
            coeffs: Dict[tuple, FieldElement] = {}
            for term in gen:
                i = _integer(term["branch"], "branch") - 1
                j = _integer(term["index"], "index") - 1
                if not (0 <= i < curve.r and 0 <= j < len(cover.shifts[i])):
                    raise InputError(
                        "generator term (branch %d, index %d) is not a cover slot"
                        % (i + 1, j + 1)
                    )
                coeff = element_from_json(curve.field, term["coeff"])
                key = (i, j, _integer(term["exp"], "exp"))
                coeffs[key] = coeffs[key] + coeff if key in coeffs else coeff
            generators.append(ModuleElement(curve.field, coeffs))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed ModuleSpec: %s" % exc) from exc
    M = GradedSubmodule(curve, cover, generators)
    for w in M.weights:
        if abs(w) > DEGREE_BUDGET:
            raise InputError("a generator has degree %d, outside the budget [-%d, %d]" % (w, DEGREE_BUDGET, DEGREE_BUDGET))
    return M


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
