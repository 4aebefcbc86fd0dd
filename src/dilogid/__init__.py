"""Rigorous verification of Rogers-dilogarithm series identities.

Exact arithmetic over Q and Q(sqrt(D)) backs every algebraic claim;
transcendental values are produced as midpoint-radius enclosures with
certified tail bounds for every truncated series.
"""

from .enclosure import DomainError, ErrorBoundedValue, PrecisionBudget, PrecisionError
from .exactnum import (
    QuadraticElement,
    RadicandMismatchError,
    exact_sqrt,
    quad_pow,
    quad_to_real,
)
from .lucas import (
    LucasParams,
    PreconditionError,
    alpha_power_exact,
    lucas_uv,
    lucas_uv_naive,
    strong_divisibility_check,
    transform_case_check,
    transform_params,
)
from .rogers import abel_residual, li2, reflection_residual, rogers_l
from .series import (
    IDENTITIES,
    IdentityReport,
    PellSolution,
    TwoParamInstance,
    UsageError,
    bridgeman_divisibility_check,
    bridgeman_verify,
    catalog_verify,
    corollary_remark_term,
    corollary_verify,
    d_seq,
    lucas_neg_verify,
    lucas_pos_verify,
    neg_from_pos_split_check,
    pell_to_lucas,
    tail_bound,
    theorem_main_verify,
    theorem_main_term,
    xy_seq,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ErrorBoundedValue",
    "IDENTITIES",
    "IdentityReport",
    "LucasParams",
    "PellSolution",
    "PrecisionBudget",
    "PrecisionError",
    "PreconditionError",
    "QuadraticElement",
    "RadicandMismatchError",
    "TwoParamInstance",
    "UsageError",
    "abel_residual",
    "alpha_power_exact",
    "bridgeman_divisibility_check",
    "bridgeman_verify",
    "catalog_verify",
    "corollary_remark_term",
    "corollary_verify",
    "d_seq",
    "exact_sqrt",
    "li2",
    "lucas_neg_verify",
    "lucas_pos_verify",
    "lucas_uv",
    "lucas_uv_naive",
    "neg_from_pos_split_check",
    "pell_to_lucas",
    "quad_pow",
    "quad_to_real",
    "reflection_residual",
    "rogers_l",
    "strong_divisibility_check",
    "tail_bound",
    "theorem_main_term",
    "theorem_main_verify",
    "transform_case_check",
    "transform_params",
    "xy_seq",
]
