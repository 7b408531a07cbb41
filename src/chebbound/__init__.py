"""Tensorized Chebyshev interpolation with certified a-priori error bounds.

Interpolate smooth functions on hyperrectangles with tensor-product
Chebyshev grids, bound the sup-norm error from per-axis analyticity radii
alone, take the pointwise minimum of two complementary bounds, and search
for the cheapest node budget that certifies a requested accuracy.

The bounds, the A-vs-B crossover scan and their value types load eagerly
and need only the standard library.  The other names load on first access
(PEP 562): the planner, which is standard-library code too, and the
numpy-backed interpolation, ellipse geometry and verification.  So
``chebbound bound`` and ``chebbound sweep`` load neither the planner nor
numpy, ``chebbound plan`` adds the planner alone, and ``chebbound interp``
and ``chebbound verify`` load numpy but not the planner.

Every value type is a :class:`chebbound.inputs.Record`: immutable, compared
and hashed by value, with ``_asdict()`` for its fields in order.  Each
names its fields once, in ``__slots__``, and a type without validation gets
its constructor generated from them.  They are not dataclasses, so
``dataclasses.asdict``, ``replace`` and ``fields`` do not apply to them.
"""

import importlib
import types

from .bounds import (
    BoundInputs,
    BoundReport,
    MParams,
    ScanRecord,
    bound_a,
    bound_a_for_sigma,
    bound_b,
    bound_combined,
    bound_univariate,
    crossover_scan,
    m_upper_bound,
    recursive_bound_B,
    recursive_bound_B_min,
)
from .inputs import EllipseRadii, NodeBudget

__version__ = "0.1.0"

#: lazily loaded public names, by the submodule each one loads from; with
#: the eager imports above, the one list of public names
_SUBMODULE_NAMES = {
    "interpolation": (
        "Hyperrectangle",
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
    ),
    "ellipse": (
        "GeneralizedBernsteinEllipse",
        "joukowski",
        "ellipse_boundary_point",
        "transform_tau",
        "contains",
        "rho_for_real_singularity",
        "estimate_V",
    ),
    "planner": (
        "PLAN_SELECTORS",
        "PlanRequest",
        "Plan",
        "PlanComparison",
        "invert_univariate",
        "plan_nodes",
        "compare_plans",
    ),
    "verification": (
        "TestFunction",
        "VerificationRecord",
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
        "reference_report",
    ),
}

#: lazily loaded public name -> the submodule it loads from
_LAZY = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

#: the eagerly bound names imported above, then the lazily loaded ones
__all__ = [
    "__version__",
    *(
        name
        for name, value in globals().items()
        if not (name.startswith("_") or isinstance(value, types.ModuleType))
    ),
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
