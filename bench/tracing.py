"""Tracing from outside the program: wrappers around qhc's public entry points.

``Tracer.install(q)`` replaces functions and methods of a freshly imported
set of ``qhc`` modules with wrappers.  A module-level function is replaced
under every name that a ``qhc`` module binds to it (``q_element`` is
imported by name into ``connection`` and ``cli``, so wrapping only
``derivation.q_element`` would miss those callers).  Methods are replaced
on their class, where every caller looks them up.

Each wrapper keeps a frame on one stack, so a layer's self time is the time
spent in its wrapped calls minus the time of the wrapped calls they make.
Non-hot entry points also record a span (id, name, start, end, parent span,
case id) in memory; hot L0/L1 calls (field and polynomial arithmetic,
monomial images) only count and accumulate time, because a record per call
would dominate the run.  Spans are written out when the run ends.

Nothing here changes what the program computes: wrappers pass arguments
and results through untouched.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

LAYERS = (
    "field", "poly", "linalg", "curve", "semigroup", "derivation",
    "module", "connection", "catalog", "io", "cli",
)

# (layer, module, function) for module-level functions.
FUNCTIONS = [
    ("linalg", "linalg", "solve"),
    ("linalg", "linalg", "independent_subset"),
    ("curve", "curve", "factor"),
    ("curve", "curve", "rational_roots"),
    ("semigroup", "semigroup", "gamma_oracle"),
    ("derivation", "derivation", "q_element"),
    ("derivation", "derivation", "extend"),
    ("connection", "connection", "natural_connection"),
    ("connection", "connection", "verify_properties"),
    ("connection", "connection", "apply_nabla_D"),
    ("io", "io", "curve_from_json"),
    ("catalog", "catalog", "catalog_get"),
    ("catalog", "catalog", "fixture_modules"),
    ("cli", "cli", "main"),
]

# (layer, module, class, method, span name, hot).
METHODS = [
    ("field", "field", "FieldElement", "__mul__", "field.mul", True),
    ("field", "field", "FieldElement", "inv", "field.inv", True),
    ("field", "field", "FieldElement", "__add__", "field.add", True),
    ("field", "field", "FieldElement", "__sub__", "field.sub", True),
    ("field", "field", "FieldElement", "__neg__", "field.neg", True),
    ("field", "field", "FieldElement", "scale", "field.scale", True),
    ("poly", "poly", "UniPoly", "__mul__", "poly.uni_mul", True),
    ("poly", "poly", "UniPoly", "__pow__", "poly.uni_pow", True),
    ("poly", "poly", "UniPoly", "__add__", "poly.uni_add", True),
    ("poly", "poly", "UniPoly", "scale", "poly.uni_scale", True),
    ("poly", "poly", "UniPoly", "exact_div", "poly.uni_exact_div", True),
    ("poly", "poly", "UniPoly", "derivative", "poly.uni_derivative", True),
    ("poly", "poly", "BiPoly", "evaluate", "poly.bi_evaluate", True),
    ("poly", "poly", "BiPoly", "__mul__", "poly.bi_mul", True),
    ("poly", "poly", "BiPoly", "exact_div", "poly.bi_exact_div", True),
    ("curve", "curve", "QuasiCurve", "monomial_image", "curve.monomial_image", True),
    ("curve", "curve", "QuasiCurve", "normalization_image", "curve.normalization_image", True),
    ("curve", "curve", "QuasiCurve", "image_membership", "curve.image_membership", False),
    ("module", "module", "GradedSubmodule", "contains", "module.contains", False),
    ("module", "module", "GradedSubmodule", "graded_piece", "module.graded_piece", False),
    ("module", "module", "GradedSubmodule", "canonical_embedding", "module.canonical_embedding", False),
    ("module", "module", "GradedSubmodule", "check_C1", "module.check_C1", False),
    ("module", "module", "GradedSubmodule", "check_C2", "module.check_C2", False),
]


# Counts the observers below read from arguments and results.
EXTRAS = (
    "field.mul_calls_ext", "linalg.solve_cells", "linalg.solve_cols_max",
    "linalg.solve_none", "linalg.indep_in", "linalg.indep_chosen",
    "curve.monomial_image_distinct", "module.contains_hits",
    "module.degree_queries", "module.degree_queries_distinct",
)


class Tracer:
    def __init__(self) -> None:
        # Plain dicts, every key set before the run: a metric that is never
        # produced is missing, not silently 0.
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.self_time: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.extra: Dict[str, float] = dict.fromkeys(EXTRAS, 0)
        self.spans: List[tuple] = []
        # A frame is [start, time of wrapped children, id of the enclosing span].
        self._stack: List[list] = [[0.0, 0.0, None]]
        self._ids = itertools.count()
        self._case: Optional[str] = None
        # Objects seen in the current case, kept alive so their ids stay unique.
        self._seen: Dict[tuple, Any] = {}
        self._observers = {
            "field.mul": self._on_field_mul,
            "linalg.solve": self._on_solve,
            "linalg.independent_subset": self._on_independent_subset,
            "curve.monomial_image": self._on_monomial_image,
            "module.contains": self._on_contains,
            "module.graded_piece": self._on_graded_piece,
            "module.check_C1": self._on_check_c1,
        }
        self._q = None

    # -- installation ---------------------------------------------------------

    def install(self, q) -> None:
        """Wrap the entry points of the freshly imported modules in ``q``."""
        self._q = q
        modules = [getattr(q, layer) for layer in LAYERS] + [q.package]
        for layer, mod, name in FUNCTIONS:
            orig = getattr(getattr(q, mod), name)
            wrapper = self._wrap("%s.%s" % (mod, name), layer, orig, hot=False)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
        for layer, mod, cls_name, meth, span, hot in METHODS:
            cls = getattr(getattr(q, mod), cls_name)
            setattr(cls, meth, self._wrap(span, layer, getattr(cls, meth), hot))

    def _wrap(self, name: str, layer: str, fn: Callable, hot: bool) -> Callable:
        stack = self._stack
        calls = self.calls
        inclusive = self.inclusive
        self_time = self.self_time
        spans = self.spans
        observe = self._observers.get(name)
        ids = self._ids
        calls[name] = 0
        inclusive[name] = 0.0
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [clock(), 0.0, parent[2] if hot else next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                parent[1] += dur
                self_time[layer] += dur - frame[1]
                inclusive[name] += dur
                calls[name] += 1
                if not hot:
                    spans.append((frame[2], name, frame[0], end, parent[2], tracer._case))
            if observe is not None:
                observe(args, result)
                parent[1] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: counts read from arguments and results ---------------------

    def _on_field_mul(self, args, result) -> None:
        if args[0].field.degree > 1:
            self.extra["field.mul_calls_ext"] += 1

    def _on_solve(self, args, result) -> None:
        matrix = args[0]
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        self.extra["linalg.solve_cells"] += rows * cols
        self.extra["linalg.solve_cols_max"] = max(self.extra["linalg.solve_cols_max"], cols)
        if result is None:
            self.extra["linalg.solve_none"] += 1

    def _on_independent_subset(self, args, result) -> None:
        self.extra["linalg.indep_in"] += len(args[0])
        self.extra["linalg.indep_chosen"] += len(result)

    def _distinct(self, metric: str, obj, key) -> None:
        full = (metric, id(obj), key)
        if full not in self._seen:
            self._seen[full] = obj
            self.extra[metric] += 1

    def _on_monomial_image(self, args, result) -> None:
        self._distinct("curve.monomial_image_distinct", args[0], tuple(args[1:]))

    def _degree_query(self, M, w: int) -> None:
        self.extra["module.degree_queries"] += 1
        self._distinct("module.degree_queries_distinct", M, w)

    def _on_contains(self, args, result) -> None:
        M, v = args[0], args[1]
        if result is not None:
            self.extra["module.contains_hits"] += 1
        if v:
            self._degree_query(M, self._q.module.element_degree(M.curve, M.cover, v))

    def _on_graded_piece(self, args, result) -> None:
        self._degree_query(args[0], args[1])

    def _on_check_c1(self, args, result) -> None:
        M = args[0]
        for i, j in M.cover.slots():
            self._degree_query(M, M.cover.shifts[i][j])

    # -- cases and results -------------------------------------------------------

    @contextmanager
    def case(self, label: str):
        """Attribute everything inside to one case; distinct counts are per case."""
        self._case = label
        self._seen = {}
        sid = next(self._ids)
        start = time.perf_counter()
        frame = [start, 0.0, sid]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, "case", start, end, None, label))
            self._seen = {}
            self._case = None

    def metrics(self) -> Dict[str, float]:
        """Every count and time by metric name (``<span>_calls``, ``<span>_s``, ``<layer>.self_s``)."""
        out: Dict[str, float] = {}
        for name, n in self.calls.items():
            out[name + "_calls"] = n
            out[name + "_s"] = self.inclusive[name]
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_time[layer]
        out.update(self.extra)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, case in sorted(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "case": case,
                }) + "\n")
