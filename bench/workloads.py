"""The three benchmark workloads: seeded inputs, set-up and checked cases.

A workload has two halves.  ``plan(rng, work_dir)`` is benchmark code
only: it draws every random choice from the workload seed and returns
plain data (curve specs, labels, verification seeds) as a list of pass
plans, which a run cycles through.  ``build(q, plan)`` hands the generated
inputs of one pass plan to the program, through the freshly imported
``qhc`` modules in ``q``, and returns the cases of that pass.  ``build``
of the first pass plan is what ``setup_s`` times.

A case is one unit of user work.  Its ``run`` returns a JSON-able
observation of the program's output; the case passes when the observation
equals ``expected``.  Expected values come either from the generating spec
(``curve_factor``) or from ``golden.json``, captured by
``capture_golden.py`` at the commit that defined the benchmark.  The
goldens depend only on the shape of an input (labels, weights, branch
counts, degree bounds), never on the seeded coefficient values, so every
seed is checked against the same file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Samples per verify_properties call.  Its cost is dominated by the
# deterministic per-degree gradedness loop, not by the samples.
VERIFY_SAMPLES = 5

# Seeded rational coefficients are b = ±p/q with 1 <= p, q <= 6.  This cap
# keeps the trial-division root finder in curve.rational_roots bounded: the
# largest constant term it meets is about 6^15, so at most ~7e5 trial
# divisions (ROADMAP item 3 records the 25-digit hang this avoids).
B_POOL = sorted(
    {Fraction(s * p, q) for p in range(1, 7) for q in range(1, 7) for s in (1, -1)}
)
UNIT_POOL = [u for u in B_POOL if u != 1]

# Branch values for the semigroup workload, all with
# numerator * denominator = 6.  Their cost is dominated by exact arithmetic
# on powers b^k, whose size grows with that product, so drawing from values
# of equal height keeps a pass's cost the same for every seed; B_POOL made
# it differ by about 10% between seeds.
EQUAL_HEIGHT_B_POOL = [Fraction(s * p, q) for p, q in ((6, 1), (1, 6), (2, 3), (3, 2)) for s in (1, -1)]


@dataclass(frozen=True)
class Case:
    label: str
    run: Callable[[], Any]
    expected: Any


def load_golden(workload: str) -> Optional[Dict[str, Any]]:
    """Expected outputs by input shape; None for a workload checked against its specs."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh).get(workload)


# -- curve specs built by the benchmark --------------------------------------

def _poly_mul(p: Dict[Tuple[int, int], Fraction], q: Dict[Tuple[int, int], Fraction]):
    out: Dict[Tuple[int, int], Fraction] = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _q(v: Fraction) -> str:
    return "%d/%d" % (v.numerator, v.denominator)


def distinct_binomials(rng, wx: int, count: int, pool=B_POOL) -> List[Fraction]:
    """`count` binomial coefficients a = -1/b^wx with b from `pool`, all distinct."""
    seen: List[Fraction] = []
    while len(seen) < count:
        a = Fraction(-1) / rng.choice(pool) ** wx
        if a not in seen:
            seen.append(a)
    return seen


def curve_spec(
    wx: int, wy: int, unit: Fraction, axes: str, a_values: List[Fraction]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """CurveSpec of unit * x^[x in axes] * y^[y in axes] * prod(x^wy + a y^wx).

    Returns the spec and the factorization it must produce: branch kinds
    in the program's documented order (axis x, axis y, then binomials by
    the numerator and denominator of a), the a values and the unit.
    """
    f = {(0, 0): unit}
    if "x" in axes:
        f = _poly_mul(f, {(1, 0): Fraction(1)})
    if "y" in axes:
        f = _poly_mul(f, {(0, 1): Fraction(1)})
    for a in a_values:
        f = _poly_mul(f, {(wy, 0): Fraction(1), (0, wx): a})
    spec = {
        "weights": [wx, wy],
        "f": [{"coeff": [_q(c)], "x": a, "y": b} for (a, b), c in sorted(f.items())],
    }
    ordered = sorted(a_values, key=lambda a: (a.numerator, a.denominator))
    kinds = [k for k, tag in (("axis_x", "x"), ("axis_y", "y")) if tag in axes]
    expected = {
        "kinds": kinds + ["binomial"] * len(a_values),
        "a": [_q(a) for a in ordered],
        "unit": _q(unit),
    }
    return spec, expected


def seeded_curve_spec(rng, wx: int, wy: int, axes: str, n_binomial: int):
    unit = rng.choice(UNIT_POOL)
    a_values = distinct_binomials(rng, wx, n_binomial, EQUAL_HEIGHT_B_POOL)
    return curve_spec(wx, wy, unit, axes, a_values)


# -- connect + verify cases (catalog_sweep) ----------------------------------

def connection_observation(q, curve, module, verify_seed: int) -> Dict[str, Any]:
    """natural_connection then verify_properties, reduced to checkable facts."""
    report = q.connection.natural_connection(curve, module)
    counts = None
    if report.succeeded:
        counts = q.connection.verify_properties(
            curve, report, samples=VERIFY_SAMPLES, seed=verify_seed
        )
    return {
        "path": report.path,
        "lambda": report.lam,
        "c1": [[i, j, v] for (i, j), v in sorted(report.c1.items())],
        "c2": [[i, j, v] for (i, j), v in sorted(report.c2.items())],
        "c3": list(report.c3),
        "verified": counts,
    }


def connection_invariants(obs: Dict[str, Any]) -> List[str]:
    """Facts every connect+verify report must satisfy, golden or not."""
    bad = []
    if obs["path"] == "C2-path" and not all(v for *_, v in obs["c1"] + obs["c2"]):
        bad.append("C2-path taken without (C1) and (C2)")
    if obs["path"] == "C3-shift-path" and obs["lambda"] != obs["c3"][1]:
        bad.append("shift differs from the (C3) common shift")
    counts = obs["verified"]
    if counts is not None:
        if counts["leibniz"] != VERIFY_SAMPLES:
            bad.append("Leibniz samples %d != %d" % (counts["leibniz"], VERIFY_SAMPLES))
        if counts["graded"] != counts["integrable"]:
            bad.append("graded and integrable counts differ")
    return bad


def _connection_case(q, label, curve, module, verify_seed, expected) -> Case:
    def run():
        obs = connection_observation(q, curve, module, verify_seed)
        obs["invariant_failures"] = connection_invariants(obs)
        return obs

    if expected is not None:
        expected = dict(expected, invariant_failures=[])
    return Case(label, run, expected)


# -- catalog_sweep ------------------------------------------------------------

ADE_LABELS = ["A_%d" % n for n in range(1, 7)] + ["D_4", "D_5", "D_6", "E_6", "E_7", "E_8"]

# One Y_m_n entry is drawn from each stratum.  Entries in a stratum have
# similar per-case cost (connect + verify) and fixture counts, so a pass
# costs about the same for every seed.  The middle stratum's fixtures are
# the pass's median cases; Y_4_3, whose cases cost 15% less than the other
# three's, moved that median with the seed and is left out.
Y_STRATA = [
    ["Y_2_3", "Y_3_2", "Y_5_2"],
    ["Y_3_4", "Y_5_3", "Y_7_2"],
    ["Y_3_5", "Y_7_3", "Y_5_4"],
]


def plan_catalog_sweep(rng, work_dir: Path) -> List[Dict[str, Any]]:
    labels = ADE_LABELS + [rng.choice(stratum) for stratum in Y_STRATA]
    return [{"labels": labels, "rng_state": rng.getrandbits(64)}]


def build_catalog_sweep(q, plan, golden: Optional[Dict[str, Any]]) -> List[Case]:
    rng = random.Random(plan["rng_state"])
    cases = []
    for label in plan["labels"]:
        entry = q.catalog.catalog_get(label)
        curve = entry.curve()
        for fx in q.catalog.fixture_modules(entry):
            key = "%s/%s" % (label, fx.name)
            expected = golden[key] if golden is not None else None
            cases.append(
                _connection_case(
                    q, key, curve, fx.module(curve), rng.getrandbits(31), expected
                )
            )
    rng.shuffle(cases)
    return cases


# -- semigroup_oracle ---------------------------------------------------------

# (class name, w_x, w_y, axis branches, binomial branches, --max-degree).
# Degree bounds are set so each call costs about 100 ms at the defining
# commit: the median case then falls among similar calls rather than in a
# gap between two call sizes.  The cusp at --max-degree 300 (3.5 s) would
# dominate a pass.
SEMIGROUP_CLASSES = [
    ("cusp_B55", 3, 2, "", 1, 55),
    ("y_cusp_B22", 3, 2, "y", 1, 22),
    ("a4_B69", 5, 2, "", 1, 69),
    ("e6_B80", 4, 3, "", 1, 80),
    ("e8_B82", 5, 3, "", 1, 82),
    ("two_cusps_B29", 3, 2, "", 2, 29),
]

# Curves drawn per class.  A class's cost moves by up to a quarter with
# its drawn unit and branch values, so one draw per class let the seed set
# the median case; four draws average that out within a pass.
SEMIGROUP_DRAWS = 4


def plan_semigroup_oracle(rng, work_dir: Path) -> List[Dict[str, Any]]:
    runs = []
    for name, wx, wy, axes, n, bound in SEMIGROUP_CLASSES:
        for k in range(SEMIGROUP_DRAWS):
            spec, _ = seeded_curve_spec(rng, wx, wy, axes, n)
            path = work_dir / ("%s#%d.json" % (name, k))
            with open(path, "w") as fh:
                json.dump(spec, fh)
            runs.append(("%s#%d" % (name, k), str(path), bound))
    rng.shuffle(runs)
    return [{"runs": runs}]


def semigroup_observation(q, path: str, bound: int) -> Dict[str, Any]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = q.cli.main(["curve", "--in", path, "semigroups", "--max-degree", str(bound)])
    text = out.getvalue()
    agrees = code == 0 and all(b["oracle_agrees"] for b in json.loads(text)["branches"])
    return {
        "exit": code,
        "oracle_agrees": agrees,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def build_semigroup_oracle(q, plan, golden: Optional[Dict[str, Any]]) -> List[Case]:
    cases = []
    for name, path, bound in plan["runs"]:
        expected = None
        if golden is not None:
            expected = {"exit": 0, "oracle_agrees": True, "sha256": golden[name.split("#")[0]]}
        cases.append(
            Case(name, lambda path=path, bound=bound: semigroup_observation(q, path, bound), expected)
        )
    return cases


# -- curve_factor -------------------------------------------------------------

# (w_x, w_y, axis branches, binomial branches, curves per pass).  Fixed
# counts per shape keep the mix the same for every seed; the seed draws
# the coefficients.
#
# A run cycles through FACTOR_PASSES passes of distinct curves.  Which few
# curves are the heaviest of a pass depends on the seed, and that set the
# tail: with one pass of 470 curves repeated, the tail spread 0.16 over ten
# seeds.  Distinct passes average it over four draws.
FACTOR_PASSES = 4
FACTOR_SHAPES = [
    (1, 1, "", 3, 20),
    (2, 1, "x", 2, 25),
    (2, 1, "", 3, 20),
    (3, 1, "y", 2, 20),
    (3, 2, "", 1, 25),
    (3, 2, "xy", 2, 25),
    (2, 3, "", 2, 20),
    (3, 2, "", 3, 15),
    (4, 3, "x", 2, 20),
    (5, 2, "", 2, 15),
    (5, 3, "y", 1, 20),
    (5, 3, "", 2, 10),
]

# curve.rational_roots tries every +-p/q with p | c_0 and q | c_s, the end
# coefficients of its polynomial cleared to integers, and each try costs
# about 8 us here.  factor calls it once on the mixed factor
# unit * prod(1 + a_i u) and once per branch on b^w_x = -1/a_i.  Draws with
# more than this many (p, q) pairs in total are redrawn: one (5,3) curve
# with 3 branches had ~10^5 tries and took 6.5 s, and such outliers made a
# pass cost differ by 2x between seeds.
MAX_ROOT_CANDIDATES = 1000

# Within a shape, curve k is drawn from cost stratum k mod 5: 25 draws are
# ranked by root candidates and the middle draw of the stratum's fifth is
# kept (the 10th, 30th, ..., 90th percentile).  Every seed then gets the
# same mix of light and heavy curves, so a pass costs about the same for
# every seed.
COST_STRATA = 5
DRAWS_PER_STRATUM = 5


def _divisor_count(n: int) -> int:
    # Every number here is 5-smooth (p, q <= 6), so the loop ends after d = 5.
    n, count, d = abs(n), 1, 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        count *= k + 1
        d += 1
    return count * (2 if n > 1 else 1)


def root_candidates(unit: Fraction, a_values: List[Fraction]) -> int:
    """Number of (p, q) pairs rational_roots tries while factoring this curve."""
    coeffs = [unit]
    for a in a_values:
        coeffs = [x + a * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    den = math.lcm(*(c.denominator for c in coeffs))
    mixed = _divisor_count(coeffs[0] * den) * _divisor_count(coeffs[-1] * den)
    return mixed + sum(_divisor_count(a.numerator) * _divisor_count(a.denominator) for a in a_values)


def plan_curve_factor(rng, work_dir: Path) -> List[Dict[str, Any]]:
    return [{"specs": plan_factor_pass(rng)} for _ in range(FACTOR_PASSES)]


def plan_factor_pass(rng) -> List[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    specs = []
    for wx, wy, axes, n, count in FACTOR_SHAPES:
        for k in range(count):
            draws = []
            while len(draws) < COST_STRATA * DRAWS_PER_STRATUM:
                unit = rng.choice(UNIT_POOL)
                a_values = distinct_binomials(rng, wx, n)
                tries = root_candidates(unit, a_values)
                if tries <= MAX_ROOT_CANDIDATES:
                    draws.append((tries, len(draws), unit, a_values))
            middle = (k % COST_STRATA) * DRAWS_PER_STRATUM + DRAWS_PER_STRATUM // 2
            _, _, unit, a_values = sorted(draws)[middle]
            spec, expected = curve_spec(wx, wy, unit, axes, a_values)
            specs.append(("w%d_%d_%s_b%d#%d" % (wx, wy, axes or "-", n, k), spec, expected))
    rng.shuffle(specs)
    return specs


def factor_observation(q, spec) -> Dict[str, Any]:
    curve = q.io.curve_from_json(spec)
    return {
        "kinds": [br.kind.value for br in curve.branches],
        "a": [_q(br.a.as_rational()) for br in curve.branches if br.a is not None],
        "unit": _q(curve.unit.as_rational()),
    }


def build_curve_factor(q, plan, golden: Optional[Dict[str, Any]]) -> List[Case]:
    return [
        Case(label, lambda spec=spec: factor_observation(q, spec), expected)
        for label, spec, expected in plan["specs"]
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable
    build: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog_sweep", plan_catalog_sweep, build_catalog_sweep),
        Workload("semigroup_oracle", plan_semigroup_oracle, build_semigroup_oracle),
        Workload("curve_factor", plan_curve_factor, build_curve_factor),
    )
}
