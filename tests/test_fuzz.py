"""Fuzz gate: generated CurveSpecs and ModuleSpecs never crash the loaders
or the CLI.

Every spec either loads or is an InputError, and every CLI call exits 0
(success), 1 (input error) or 3 (no natural connection), with no escaped
exception and no traceback on stderr.  An exit 2 is an internal
consistency failure, which no input may cause.

The strategies stay small (weights 1-7, exponents at most 12, at most 4
terms of f, 1-4 generators) so that each call takes milliseconds, and
Hypothesis runs derandomized, so the examples are the same on every run.
"""

import contextlib
import io as stdio
import json
import math
from datetime import timedelta
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qhc import cli, io
from qhc.errors import InputError
from qhc.field import QQ
from qhc.poly import BiPoly

from conftest import rational_poly

WEIGHTS = st.integers(1, 7)
EXPONENTS = st.integers(0, 12)
COEFFS = st.sampled_from(["1/1", "-1/1", "2/1", "-3/1", "1/2", "-4/3", "0/1"])
B_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3)]

# Anything JSON can hold, put where a spec expects something else.
JSON_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "x", "1/0", "2/3"]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.fixed_dictionaries({}),
)

FUZZ_SETTINGS = settings(
    max_examples=400,
    derandomize=True,
    database=None,
    # Generous: a slow or busy host must not turn a pass into a failure.
    deadline=timedelta(seconds=30),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _term(coeff, a, b):
    return {"coeff": [coeff], "x": a, "y": b}


# Up to 4 terms with no relation between them: mostly not quasi-homogeneous.
FREE_TERMS = st.lists(st.builds(_term, COEFFS, EXPONENTS, EXPONENTS), max_size=4)


@st.composite
def weighted_terms(draw):
    """1-4 terms of one weighted degree for random weights: quasi-homogeneous,
    though not always reduced or split over Q."""
    wx, wy = draw(WEIGHTS), draw(WEIGHTS)
    by_degree = {}
    for a in range(13):
        for b in range(13):
            by_degree.setdefault(a * wx + b * wy, []).append((a, b))
    monomials = by_degree[draw(st.sampled_from(sorted(by_degree)[1:]))]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    return [_term(draw(COEFFS), a, b) for a, b in chosen], [wx, wy]


@st.composite
def branch_products(draw):
    """f = u x^[x] y^[y] prod_k (x^wy + a_k y^wx), a_k = -1/b_k^wx distinct:
    a reduced curve whose branches are defined over Q, with at most 4
    terms and exponents at most 12."""
    while True:
        wx, wy = draw(WEIGHTS), draw(WEIGHTS)
        if math.gcd(wx, wy) == 1:
            break
    ax, ay = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]))
    most = min(3, (12 - ax) // wy, (12 - ay) // wx)  # at least 1: weights <= 7
    bs = draw(
        st.lists(st.sampled_from(B_POOL), min_size=1, max_size=most, unique_by=lambda b: b ** wx)
    )
    f = BiPoly.monomial(QQ, QQ.from_rational(draw(st.sampled_from([1, -1, 2]))), ax, ay)
    for b in bs:
        f = f * rational_poly(QQ, {(wy, 0): 1, (0, wx): -1 / b ** wx})
    terms = [{"coeff": c.to_json(), "x": a, "y": b} for (a, b), c in f.terms]
    return terms, [wx, wy]


@st.composite
def curve_specs(draw):
    kind = draw(st.sampled_from(["free", "weighted", "branches", "branches"]))
    if kind == "free":
        spec = {"f": draw(FREE_TERMS)}
        if draw(st.booleans()):
            spec["weights"] = [draw(WEIGHTS), draw(WEIGHTS)]
    else:
        terms, weights = draw(weighted_terms() if kind == "weighted" else branch_products())
        spec = {"f": terms}
        if draw(st.booleans()):
            spec["weights"] = weights
    if draw(st.integers(0, 9)) == 0:
        # One malformed field.
        spec[draw(st.sampled_from(["f", "weights", "field", "branches"]))] = draw(JSON_ATOMS)
    return spec


@st.composite
def module_specs(draw, curve):
    """1-4 generators on a cover of 1-2 slots per branch; each generator
    homogeneous when its drawn degree meets the cover, else one free term."""
    t_degrees = [br.t_degree for br in curve.branches]
    shifts = [draw(st.lists(st.integers(0, 6), min_size=1, max_size=2)) for _ in t_degrees]
    keys_by_degree = {}
    for i, (d, row) in enumerate(zip(t_degrees, shifts)):
        for j, f in enumerate(row):
            for e in range(13):
                keys_by_degree.setdefault(f + e * d, []).append((i, j, e))
    generators = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.integers(0, 24))
        keys = keys_by_degree.get(w)
        if keys:
            chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
        else:
            i = draw(st.integers(0, len(t_degrees) - 1))
            chosen = [(i, draw(st.integers(0, len(shifts[i]) - 1)), draw(EXPONENTS))]
        generators.append(
            [
                {"branch": i + 1, "index": j + 1, "coeff": [draw(COEFFS)], "exp": e}
                for i, j, e in chosen
            ]
        )
    spec = {
        "cover": [{"branch": i + 1, "shifts": row} for i, row in enumerate(shifts)],
        "generators": generators,
    }
    if draw(st.integers(0, 9)) == 0:
        spec[draw(st.sampled_from(["cover", "generators"]))] = draw(JSON_ATOMS)
    return spec


def _run(argv):
    """cli.main(argv) with its stdout and stderr captured: (code, stderr)."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _check_cli(argv):
    code, err = _run(argv)
    assert code in (0, 1, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@FUZZ_SETTINGS
@given(spec=curve_specs(), data=st.data())
def test_generated_specs_never_crash_the_loaders_or_the_cli(tmp_path_factory, spec, data):
    tmp = tmp_path_factory.getbasetemp()
    cpath = tmp / "fuzz_curve.json"
    cpath.write_text(json.dumps(spec))
    for action in ("info", "branches", "semigroups", "derivations"):
        _check_cli(["curve", "--in", str(cpath), action])
    try:
        curve = io.curve_from_json(spec)
    except InputError:
        return
    module_spec = data.draw(module_specs(curve))
    mpath = tmp / "fuzz_module.json"
    mpath.write_text(json.dumps(module_spec))
    try:
        io.module_from_json(curve, module_spec)
    except InputError:
        pass
    base = ["module", "--curve", str(cpath), "--module", str(mpath)]
    _check_cli(base + ["check"])
    _check_cli(base + ["connect", "--samples", "2"])
