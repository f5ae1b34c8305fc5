"""Numerical laboratory for mean-value-style points of real functions.

Parse a function as text, pick an identity, and get back the interior
points satisfying it, together with hypothesis flags, sufficient-condition
verdicts, and independent re-verification of every located point.
"""

from .expr import Expr, ParseError, compile_fn, differentiate, evaluate, parse, simplify, unparse
from .numerics import (
    DEFAULT_CONFIG, DomainError, HypothesisError, Interval, NoRootFound,
    PointResult, QuadratureError, SolverConfig, SolverError, TheoremId,
)
from .mvt_points import cauchy_points, integral_mvt_points, lagrange_points, rolle_points
from .flett import find_flett_points, flett_residual, meyers_points
from .conditions import ConditionVector, Verdict, classify
from .generalized import (
    cakmak_tiryaki_points, pawlikowska_points, riedel_sahoo_points, second_order_points,
)
from .operators import (
    OperatorValue, apply_S, apply_T, apply_V, apply_V_weighted,
    cauchy_flett_points, lupu_4_6_points, lupu_4_7_points, thm_4_9_points,
    thm_4_10_points, weighted_norm_point, weighted_norms,
)
from .verify import IdentityCheck, verify_point

__version__ = "0.1.0"

__all__ = [
    "Expr", "ParseError", "parse", "unparse", "evaluate", "compile_fn",
    "differentiate", "simplify",
    "Interval", "SolverConfig", "DEFAULT_CONFIG", "PointResult", "TheoremId",
    "SolverError", "DomainError", "QuadratureError", "NoRootFound",
    "HypothesisError",
    "rolle_points", "lagrange_points", "cauchy_points", "integral_mvt_points",
    "flett_residual", "find_flett_points", "meyers_points",
    "Verdict", "ConditionVector", "classify",
    "riedel_sahoo_points", "cakmak_tiryaki_points", "second_order_points",
    "pawlikowska_points",
    "OperatorValue", "apply_T", "apply_S", "apply_V", "apply_V_weighted",
    "lupu_4_6_points", "lupu_4_7_points", "cauchy_flett_points",
    "thm_4_9_points", "thm_4_10_points", "weighted_norm_point",
    "weighted_norms",
    "IdentityCheck", "verify_point",
    "__version__",
]
