"""Branch images are terms: the term code against the UniPoly code it replaced.

A branch image is one term (c, e), meaning c*t_i^e, or None per branch.
The references below are the UniPoly computations that predate the term
format, kept whole: the branch images n_i(x), n_i(y) as polynomials built
from the branch data, the normalization map as BiPoly.evaluate on them,
ModuleElement.act as a convolution with one UniPoly per branch, and the
extension of a derivation by exact division and derivatives.  They are
compared with the term code on every catalog curve and fixture and on
seeded random curves and modules.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.curve import BranchKind
from qhc.derivation import DerivationOnA, euler, extend, koszul
from qhc.errors import InputError, NotHomogeneousError
from qhc.module import ModuleElement
from qhc.poly import BiPoly, UniPoly, monomials_of_weight

from conftest import poly_of, random_reduced_curve

Y_LABELS = ["Y_%d_%d" % (m, n) for m in range(1, 11) for n in range(1, 11) if math.gcd(m, n) == 1]
CATALOG_LABELS = list(ADE_LABELS) + Y_LABELS


def reference_branch_images(curve):
    """(n_i(x), n_i(y)) as UniPoly per branch, from the branch kind and b."""
    field = curve.field
    zero, t = UniPoly.zero(field), UniPoly.monomial(field, field.one(), 1)
    out = []
    for br in curve.branches:
        if br.kind is BranchKind.AXIS_X:
            out.append((zero, t))
        elif br.kind is BranchKind.AXIS_Y:
            out.append((t, zero))
        else:
            out.append((UniPoly.monomial(field, field.one(), curve.wx), UniPoly.monomial(field, br.b, curve.wy)))
    return out


def reference_image(curve, h):
    """n(h) as one UniPoly per branch, by substitution."""
    return [h.evaluate(nx, ny) for nx, ny in reference_branch_images(curve)]


def reference_act(v, vec):
    """v times one UniPoly per branch: each key convolved with the branch image."""
    out = {}
    for (i, j, e), c in v.coeffs.items():
        for ei, ci in vec[i].terms:
            k = (i, j, e + ei)
            p = ci * c
            out[k] = out[k] + p if k in out else p
    return ModuleElement(v.field, out)


def reference_extend(curve, P):
    """The deltas of the extension of P, one UniPoly per branch: solved by exact
    division on y for an x-axis branch and on x otherwise, checked on the other."""
    if any(reference_image(curve, P.apply(curve.f))):
        raise InputError("derivation does not preserve the ideal (f)")
    npx, npy = reference_image(curve, P.px), reference_image(curve, P.py)
    deltas = []
    for i, (br, (nx, ny)) in enumerate(zip(curve.branches, reference_branch_images(curve))):
        if br.kind is BranchKind.AXIS_X:
            delta = npy[i]
            if npx[i]:
                raise InputError("inconsistent extension on branch %d" % (i + 1))
        else:
            dnx = nx.derivative()
            delta = npx[i].exact_div(dnx) if npx[i] else UniPoly.zero(curve.field)
            if npx[i] and delta * dnx != npx[i]:
                raise InputError("inconsistent extension on branch %d" % (i + 1))
            if delta * ny.derivative() != npy[i]:
                raise InputError("inconsistent extension on branch %d" % (i + 1))
        deltas.append(delta)
    return deltas


def _outcome(call):
    """The value of call(), or the message of the InputError it raises."""
    try:
        return call()
    except InputError as exc:
        return str(exc)


def _random_homogeneous(rng, curve, max_weight):
    """A random homogeneous h of k[x,y], zero now and then."""
    field = curve.field
    while True:
        monos = monomials_of_weight(curve.wx, curve.wy, rng.randint(0, max_weight))
        if monos:
            break
    return BiPoly.make(field, {
        ab: field.from_rational(rng.randint(-3, 3)) for ab in rng.sample(monos, rng.randint(1, len(monos)))
    })


def _derivations(curve):
    """E, D, h*E and h*D for h = x, y, and three that do not extend: x d/dx,
    y d/dy, and y d/dx + x d/dy, mixed unless w_x = w_y."""
    field = curve.field
    E, D = euler(curve), koszul(curve)
    out = [E, D]
    for a, b in ((1, 0), (0, 1)):
        h = BiPoly.monomial(field, field.one(), a, b)
        w = a * curve.wx + b * curve.wy
        out += [DerivationOnA(h * P.px, h * P.py, P.weight + w) for P in (E, D)]
    x, y = (BiPoly.monomial(field, field.one(), a, b) for a, b in ((1, 0), (0, 1)))
    zero = BiPoly.zero(field)
    out += [DerivationOnA(x, zero, 0), DerivationOnA(zero, y, 0), DerivationOnA(y, x, 0)]
    return out


def _compare_curve(curve, rng):
    field = curve.field
    images = reference_branch_images(curve)
    assert [(poly_of(field, br.nx), poly_of(field, br.ny)) for br in curve.branches] == images
    for P in _derivations(curve):
        if len(P.apply(curve.f).weighted_degrees(curve.wx, curve.wy)) > 1:
            with pytest.raises(NotHomogeneousError):
                extend(curve, P)
            continue
        new = _outcome(lambda: [poly_of(field, d) for d in extend(curve, P)])
        old = _outcome(lambda: reference_extend(curve, P))
        assert new == old, str(P.px)
    hs = [curve.f, curve.f.dx(), curve.f.dy(), curve.f.dx() * curve.f.dy(), BiPoly.zero(field)]
    hs += [_random_homogeneous(rng, curve, 2 * curve.wf) for _ in range(10)]
    for h in hs:
        assert [poly_of(field, n) for n in curve.normalization_image(h)] == reference_image(curve, h), str(h)
    with pytest.raises(NotHomogeneousError):
        curve.normalization_image(BiPoly.make(field, {(1, 0): field.one(), (2, 0): field.one()}))


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_curve_terms_match_the_unipoly_reference(label):
    _compare_curve(catalog_get(label).curve(), random.Random(label))


def test_curve_terms_match_the_unipoly_reference_on_random_curves():
    rng = random.Random(5150)
    for _ in range(30):
        curve, _, _ = random_reduced_curve(rng)
        _compare_curve(curve, rng)


def _compare_act(curve, v, rng, memo):
    """v.act by monomial images and by n(h) for a random homogeneous h."""
    field = curve.field
    for ab in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 3)):
        if ab not in memo:
            mono = BiPoly.monomial(field, field.one(), *ab)
            memo[ab] = reference_image(curve, mono)
        assert v.act(curve.monomial_terms(*ab)) == reference_act(v, memo[ab]), (str(v), ab)
    h = _random_homogeneous(rng, curve, curve.wf)
    assert v.act(curve.normalization_image(h)) == reference_act(v, reference_image(curve, h)), (str(v), str(h))


def test_act_matches_the_unipoly_reference_on_every_catalog_fixture():
    rng = random.Random(1374)
    fixtures = 0
    for label in CATALOG_LABELS:
        entry = catalog_get(label)
        curve = entry.curve()
        memo = {}
        for fx in fixture_modules(entry):
            fixtures += 1
            for g in fx.generators:
                _compare_act(curve, g, rng, memo)
    assert fixtures == 1374


def test_act_matches_the_unipoly_reference_on_random_modules():
    rng = random.Random(2718)
    for _ in range(40):
        curve, _, _ = random_reduced_curve(rng)
        field = curve.field
        ranks = [rng.randint(1, 2) for _ in range(curve.r)]
        memo = {}
        for _ in range(5):
            coeffs = {
                (i, rng.randrange(ranks[i]), rng.randint(0, 6)): field.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for i in rng.sample(range(curve.r), rng.randint(1, curve.r))
                for _ in range(rng.randint(1, 4))
            }
            _compare_act(curve, ModuleElement(field, coeffs), rng, memo)


# The modules of the package that may name UniPoly: poly defines it, and
# curve keeps monomial_image, its UniPoly view of the branch terms.
_UNIPOLY_ALLOWED = {"poly.py": None, "curve.py": {"monomial_image"}}


def _unipoly_names(tree):
    """(enclosing function or None, line) of every UniPoly name outside imports."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id == "UniPoly") or (
            isinstance(node, ast.Attribute) and node.attr == "UniPoly"
        ):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_poly_and_the_monomial_image_view_name_unipoly():
    src = Path(__file__).resolve().parent.parent / "src" / "qhc"
    offenders = []
    for path in sorted(src.glob("*.py")):
        allowed = _UNIPOLY_ALLOWED.get(path.name, set())
        if allowed is None:
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(a.name == "UniPoly" for a in node.names):
                if path.name != "curve.py":
                    offenders.append((path.name, node.lineno, "import"))
        for func, line in _unipoly_names(tree):
            if func not in allowed:
                offenders.append((path.name, line, func))
    assert offenders == []
