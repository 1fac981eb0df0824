"""Exact-arithmetic workbench for finite-dimensional Hopf algebras, finite
group scheme actions, and canonical-module diagnostics of invariant rings.

Everything is computed over Q or F_p with exact arithmetic; there is no
floating point and no randomness anywhere in the package.
"""

from .action import (
    Comodule,
    DiagonalizableAction,
    GradedInvariantRing,
    constant_group_action,
    direct_sum,
    dual_comodule,
    molien_series,
    tensor,
    trace_equivariance_check,
)
from .canon import (
    ClassificationReport,
    GJSReport,
    TwistedGradedModule,
    a_invariant_via_molien,
    a_invariant_via_omega,
    canonical_twist,
    classify_small_action,
    gjs_inequality_check,
)
from .errors import (
    CheckFailure,
    InconsistencyError,
    InputError,
    KnopfError,
    NonTerminationError,
    UndecidedError,
    UnsupportedCaseError,
)
from .exactalg import FieldSpec
from .gscheme import (
    FiniteGroupScheme,
    alpha_scheme,
    constant_scheme,
    mu_scheme,
    mu_semidirect_alpha_scheme,
    mu_semidirect_c2_scheme,
    scheme_of_hopf_dual,
)
from .hopf import HopfAlgebraData, group_algebra, restricted_enveloping
from .ratfunc import Poly, RatFunc, reconstruct_rational

__version__ = "0.1.0"

__all__ = [
    "CheckFailure",
    "ClassificationReport",
    "Comodule",
    "DiagonalizableAction",
    "FieldSpec",
    "FiniteGroupScheme",
    "GJSReport",
    "GradedInvariantRing",
    "HopfAlgebraData",
    "InconsistencyError",
    "InputError",
    "KnopfError",
    "NonTerminationError",
    "Poly",
    "RatFunc",
    "TwistedGradedModule",
    "UndecidedError",
    "UnsupportedCaseError",
    "a_invariant_via_molien",
    "a_invariant_via_omega",
    "alpha_scheme",
    "canonical_twist",
    "classify_small_action",
    "constant_group_action",
    "constant_scheme",
    "direct_sum",
    "dual_comodule",
    "gjs_inequality_check",
    "group_algebra",
    "molien_series",
    "mu_scheme",
    "mu_semidirect_alpha_scheme",
    "mu_semidirect_c2_scheme",
    "reconstruct_rational",
    "restricted_enveloping",
    "scheme_of_hopf_dual",
    "tensor",
    "trace_equivariance_check",
]
