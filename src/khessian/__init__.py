"""Numerical solver and audit suite for the complex k-Hessian equation on
flat tori with periodic Hermitian metrics.

The equation sigma_k(omega + sqrt(-1) ddbar u) = exp(f + b) is solved for
the potential u and offset b by Newton continuation on a spectral grid; the
audit layer measures the structural inequalities the solve relies on
(cone bounds, integral constants, commutation identities) on sampled data
and computed solutions.
"""

from .audits import (
    AuditReport,
    FamilyResult,
    audit_b_bound,
    audit_basic_inequality,
    audit_c0,
    audit_c2,
    audit_cherrier,
    audit_commutation,
    audit_lemma21,
    audit_lemma22,
    run_family,
)
from .errors import (
    ConeViolationError,
    ConfigError,
    DomainError,
    LinearSolveError,
    SamplingBudgetError,
    SolveFailure,
)
from .fieldio import load_field, save_field
from .forms import Form, gradient_band_form, metric_form, unit_form
from .geometry import (
    PRESET_NAMES,
    ChernTensors,
    CovariantDerivatives,
    TorusGrid,
    chern_tensors,
    commutation_residual,
    covariant_derivatives,
    gradient_norm_sq,
    hessian_pencil_extremes,
    identity_metric,
    inverse_metric,
    metric_preset,
)
from .operator import (
    coordinate_gradient,
    relative_eigenvalues,
    relative_eigenvalues_only,
    sigma_root_gradient,
)
from .solver import (
    RejectedAttempt,
    SolveReport,
    SolverOptions,
    StageRecord,
    manufactured_source,
    recovery_error,
    residual_field,
    solve,
)
from .symfunc import (
    basic_inequality_check,
    elementary_all,
    in_gamma_k,
    lemma21_ratio,
    sample_gamma_k,
    sample_gamma_k_boundary,
    sigma,
    sigma_restricted,
    sigma_restricted_each,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "ChernTensors",
    "ConeViolationError",
    "ConfigError",
    "CovariantDerivatives",
    "DomainError",
    "FamilyResult",
    "Form",
    "LinearSolveError",
    "PRESET_NAMES",
    "RejectedAttempt",
    "SamplingBudgetError",
    "SolveFailure",
    "SolveReport",
    "SolverOptions",
    "StageRecord",
    "TorusGrid",
    "audit_b_bound",
    "audit_basic_inequality",
    "audit_c0",
    "audit_c2",
    "audit_cherrier",
    "audit_commutation",
    "audit_lemma21",
    "audit_lemma22",
    "basic_inequality_check",
    "chern_tensors",
    "commutation_residual",
    "coordinate_gradient",
    "covariant_derivatives",
    "elementary_all",
    "gradient_band_form",
    "gradient_norm_sq",
    "hessian_pencil_extremes",
    "identity_metric",
    "in_gamma_k",
    "inverse_metric",
    "lemma21_ratio",
    "load_field",
    "manufactured_source",
    "metric_form",
    "metric_preset",
    "recovery_error",
    "relative_eigenvalues",
    "relative_eigenvalues_only",
    "residual_field",
    "run_family",
    "sample_gamma_k",
    "sample_gamma_k_boundary",
    "save_field",
    "sigma",
    "sigma_restricted",
    "sigma_restricted_each",
    "sigma_root_gradient",
    "solve",
    "unit_form",
]
