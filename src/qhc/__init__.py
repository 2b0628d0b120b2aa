"""Exact computation of graded integrable connections on modules over
quasi-homogeneous plane curves."""

from .curve import Branch, BranchKind, QuasiCurve, factor, infer_weights
from .derivation import euler, extend, koszul, q_element
from .field import FieldElement, NumberField, QQ
from .module import FreeCover, GradedSubmodule, ModuleElement
from .poly import BiPoly
from .semigroup import gamma_formula, gamma_oracle, is_symmetric, sg_from_generators

__all__ = [
    "Branch",
    "BranchKind",
    "QuasiCurve",
    "factor",
    "infer_weights",
    "euler",
    "extend",
    "koszul",
    "q_element",
    "FieldElement",
    "NumberField",
    "QQ",
    "FreeCover",
    "GradedSubmodule",
    "ModuleElement",
    "BiPoly",
    "gamma_formula",
    "gamma_oracle",
    "is_symmetric",
    "sg_from_generators",
]

__version__ = "0.1.0"
