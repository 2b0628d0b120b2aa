"""The bench tracer wraps qhc entry points by name; every name must exist.

bench/tracing.py is loaded from its file and only read: a refactor that
renames or deletes a traced function or method fails here instead of
breaking ``bench/run.py --trace 1`` and ``bench/selfcheck.py``.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    # Compiled from the source text, so no bytecode is written under bench/.
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _tracing()


@pytest.mark.parametrize("layer, mod, name", tracing.FUNCTIONS)
def test_traced_function_exists(layer, mod, name):
    assert layer in tracing.LAYERS
    assert callable(getattr(importlib.import_module("qhc." + mod), name))


@pytest.mark.parametrize("layer, mod, cls, meth, span, hot", tracing.METHODS)
def test_traced_method_exists(layer, mod, cls, meth, span, hot):
    assert layer in tracing.LAYERS
    owner = getattr(importlib.import_module("qhc." + mod), cls)
    assert callable(getattr(owner, meth))


def test_traced_field_methods_are_defined_on_the_class():
    # The tracer replaces FieldElement methods on the class; a method that
    # moved to a helper or a base class would be wrapped in the wrong place
    # and the per-layer field counts would silently change meaning.
    from qhc.field import FieldElement

    traced = [meth for _, mod, cls, meth, _, _ in tracing.METHODS if cls == "FieldElement"]
    assert {"__mul__", "inv", "__add__", "__sub__", "__neg__", "scale"} <= set(traced)
    for meth in traced:
        assert meth in FieldElement.__dict__


def test_field_degree_is_readable_from_an_element():
    # field.mul_calls_ext reads args[0].field.degree on every traced product.
    from qhc.field import QQ, FieldElement, NumberField

    assert FieldElement(QQ, [1]).field.degree == 1
    assert FieldElement(NumberField((1, 0, 1)), [0, 1]).field.degree == 2


def test_contains_observer_reads_the_element_degree():
    # Tracer._on_contains calls qhc.module.element_degree(M.curve, M.cover, v)
    # for module.degree_queries; its name, parameters and value must hold.
    import inspect

    from qhc import module
    from qhc.catalog import catalog_get, fixture_modules

    assert list(inspect.signature(module.element_degree).parameters) == ["curve", "cover", "v"]
    entry = catalog_get("Y_3_2")
    curve = entry.curve()
    M = fixture_modules(entry)[0].module(curve)
    assert [module.element_degree(M.curve, M.cover, g) for g in M.generators] == M.weights
    tracer = tracing.Tracer()
    tracer._q = types.SimpleNamespace(module=module)
    for g in M.generators:
        tracer._on_contains((M, g), M.contains(g))
    assert tracer.extra["module.contains_hits"] == len(M.generators)
    assert tracer.extra["module.degree_queries"] == len(M.generators)
    assert tracer.extra["module.degree_queries_distinct"] == len(set(M.weights))
