"""Tensorized Chebyshev interpolation with certified a-priori error bounds.

Interpolate smooth functions on hyperrectangles with tensor-product
Chebyshev grids, bound the sup-norm error from per-axis analyticity radii
alone, take the pointwise minimum of two complementary bounds, and search
for the cheapest node budget that certifies a requested accuracy.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    MParams,
    bound_a,
    bound_a_for_sigma,
    bound_b,
    bound_combined,
    bound_univariate,
    m_upper_bound,
    recursive_bound_B,
    recursive_bound_B_min,
)
from .ellipse import (
    EllipseRadii,
    GeneralizedBernsteinEllipse,
    contains,
    ellipse_boundary_point,
    estimate_V,
    joukowski,
    rho_for_real_singularity,
    transform_tau,
)
from .interpolation import (
    ChebyshevInterpolant,
    Hyperrectangle,
    NodeBudget,
    alias_index,
    chebyshev_T,
    compute_coefficients,
    evaluate,
    evaluate_grid,
    grid_points,
    interpolate,
    sample_on_grid,
    univariate_nodes,
)
from .planner import (
    PLAN_SELECTORS,
    Plan,
    PlanComparison,
    PlanRequest,
    compare_plans,
    invert_univariate,
    plan_nodes,
)
from .verification import (
    ScanRecord,
    TestFunction,
    VerificationRecord,
    builtin_families,
    builtin_function,
    coefficient_decay_check,
    crossover_scan,
    default_suite,
    entire_exponential,
    nonseparable_rational,
    polynomial_product,
    quick_suite,
    reference_report,
    separable_rational,
    sup_error,
    verify_domination,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # interpolation
    "Hyperrectangle",
    "NodeBudget",
    "ChebyshevInterpolant",
    "chebyshev_T",
    "univariate_nodes",
    "grid_points",
    "sample_on_grid",
    "compute_coefficients",
    "interpolate",
    "evaluate",
    "evaluate_grid",
    "alias_index",
    # ellipse
    "EllipseRadii",
    "GeneralizedBernsteinEllipse",
    "joukowski",
    "ellipse_boundary_point",
    "transform_tau",
    "contains",
    "rho_for_real_singularity",
    "estimate_V",
    # bounds
    "BoundInputs",
    "BoundReport",
    "MParams",
    "bound_univariate",
    "bound_b",
    "bound_a_for_sigma",
    "bound_a",
    "bound_combined",
    "m_upper_bound",
    "recursive_bound_B",
    "recursive_bound_B_min",
    # planner
    "PLAN_SELECTORS",
    "PlanRequest",
    "Plan",
    "PlanComparison",
    "invert_univariate",
    "plan_nodes",
    "compare_plans",
    # verification
    "TestFunction",
    "VerificationRecord",
    "ScanRecord",
    "separable_rational",
    "entire_exponential",
    "nonseparable_rational",
    "polynomial_product",
    "builtin_families",
    "builtin_function",
    "sup_error",
    "verify_domination",
    "default_suite",
    "quick_suite",
    "coefficient_decay_check",
    "crossover_scan",
    "reference_report",
]
