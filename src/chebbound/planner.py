"""Smallest node budget that certifies a target accuracy.

Given radii, a magnitude bound V and a target ``epsilon``, the planner
finds the degree vector minimising the total grid size ``prod (N_i + 1)``
subject to ``bound(N) <= epsilon`` for a chosen bound selector.  Exact
search, not a heuristic:

1. Per-axis lower limits ``L_i`` come from relaxing every other axis to
   infinity, where the selected bound collapses to an explicit univariate
   expression in ``N_i`` — no budget below ``L_i`` can ever certify.
2. A uniform budget ``(m, ..., m)`` found by exponential + binary search
   seeds the incumbent objective.
3. Per-axis upper limits combine the incumbent's objective ceiling with a
   feasibility ceiling ``FU_i`` (smallest ``n`` certifying when every
   other axis sits at its lower limit): any pointwise-minimal certifying
   budget fits under ``FU_i``, and optimal budgets are pointwise minimal.
4. Depth-first search in ascending lexicographic order over the resulting
   box, pruning subtrees whose objective floor already exceeds the best
   or that stay infeasible even with the remaining axes at their caps.

Objective ties prefer the lexicographically smallest budget.  The search
evaluates bounds through the exact same arithmetic as the public bound
functions, and the returned plan re-certifies through the public entry
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import jsonio
from .bounds import (
    BoundInputs,
    MParams,
    _bound_a_sigma_core,
    _bound_b_core,
    _finish,
    _minimise_over_orders,
    _recursive_min_core,
    bound_a,
    bound_b,
    bound_combined,
    bound_univariate,
    recursive_bound_B_min,
)
from .ellipse import EllipseRadii
from .interpolation import NodeBudget

__all__ = [
    "PlanRequest",
    "Plan",
    "PlanComparison",
    "PLAN_SELECTORS",
    "MAX_AXIS_ORDER",
    "invert_univariate",
    "plan_nodes",
    "compare_plans",
]

PLAN_SELECTORS = ("A", "B", "COMBINED", "RECURSIVE")

#: per-axis degree ceiling; targets needing more abort with a clear error
MAX_AXIS_ORDER = 10**6

#: the planner's search is exponential in the dimension past this point
_MAX_PLAN_DIMENSION = 12

# The infinite-axis relaxations are mathematical lower envelopes of the
# bound, but the production evaluator rounds; accepting a hair more than
# epsilon when deriving L_i keeps the box provably sound against the
# evaluator's own feasibility decisions.
_LIMIT_SLACK = 1e-11


@dataclass(frozen=True)
class PlanRequest:
    """What to certify: radii, magnitude bound, target, and which bound."""

    radii: EllipseRadii
    v_bound: float
    epsilon_target: float
    selector: str = "COMBINED"

    def __post_init__(self) -> None:
        v = float(self.v_bound)
        if not math.isfinite(v) or v <= 0:
            raise ValueError(f"magnitude bound must be finite and > 0, got {v}")
        eps = float(self.epsilon_target)
        if not math.isfinite(eps) or eps <= 0:
            raise ValueError(f"target must be finite and > 0, got {eps}")
        if self.selector not in PLAN_SELECTORS:
            raise ValueError(
                f"selector must be one of {PLAN_SELECTORS}, got {self.selector!r}"
            )
        if self.radii.dimension > _MAX_PLAN_DIMENSION:
            raise ValueError(
                f"planning supports up to {_MAX_PLAN_DIMENSION} dimensions, "
                f"got {self.radii.dimension}"
            )
        object.__setattr__(self, "v_bound", v)
        object.__setattr__(self, "epsilon_target", eps)

    @property
    def dimension(self) -> int:
        return self.radii.dimension


@dataclass(frozen=True)
class Plan:
    """A certified budget: the bound value is re-checked, not assumed."""

    request: PlanRequest
    budget: NodeBudget
    grid_points: int
    certified_bound: float

    def to_json_dict(self) -> dict:
        return {
            "selector": self.request.selector,
            "rho": list(self.request.radii.values),
            "v": self.request.v_bound,
            "epsilon_target": self.request.epsilon_target,
            "budget": list(self.budget.degrees),
            "grid_points": self.grid_points,
            "certified_bound": self.certified_bound,
        }

    def to_json(self) -> str:
        return jsonio.dumps(self.to_json_dict())


@dataclass(frozen=True)
class PlanComparison:
    """Plans for every selector on the same request, plus size ratios."""

    plans: dict[str, Plan]
    savings_vs_b: dict[str, float]  # 1 - grid/grid(B); positive means fewer points

    def to_json_dict(self) -> dict:
        return {
            "plans": {k: self.plans[k].to_json_dict() for k in PLAN_SELECTORS},
            "savings_vs_b": {k: self.savings_vs_b[k] for k in PLAN_SELECTORS},
        }

    def to_json(self) -> str:
        return jsonio.dumps(self.to_json_dict())


def invert_univariate(rho: float, v: float, eps: float) -> int:
    """Smallest N with ``bound_univariate(rho, N, v) <= eps``.

    Closed-form estimate from ``4 V rho^-N / (rho-1) = eps`` followed by a
    verification walk against the actual bound, so rounding in either
    direction cannot produce an off-by-one.
    """
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 1.0:
        raise ValueError(f"radius must exceed 1, got {rho}")
    v = float(v)
    eps = float(eps)
    if not math.isfinite(v) or v <= 0:
        raise ValueError(f"magnitude bound must be finite and > 0, got {v}")
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError(f"target must be finite and > 0, got {eps}")

    estimate = (math.log(4.0) + math.log(v) - math.log(rho - 1.0) - math.log(eps)) / math.log(rho)
    n = max(0, math.ceil(estimate))
    n = min(n, MAX_AXIS_ORDER + 1)
    while bound_univariate(rho, n, v) > eps:
        n += 1
        if n > MAX_AXIS_ORDER:
            raise ValueError(
                f"target {eps} needs more than {MAX_AXIS_ORDER} nodes for "
                f"rho={rho}, v={v}"
            )
    while n > 0 and bound_univariate(rho, n - 1, v) <= eps:
        n -= 1
    return n


# ---------------------------------------------------------------------------
# selector evaluators (identical arithmetic to the public bound functions)


def _make_evaluator(selector: str, radii: tuple[float, ...], v: float):
    d = len(radii)

    if selector == "B":

        def bnd(degrees: tuple[int, ...]) -> float:
            core, core_log = _bound_b_core(radii, degrees)
            return _finish(core, core_log, v)

        return bnd

    if selector == "A":

        def bnd(degrees: tuple[int, ...]) -> float:
            (core, core_log), _, _ = _minimise_over_orders(
                lambda s: _bound_a_sigma_core(radii, degrees, s, "consistent"),
                radii,
                d,
            )
            return _finish(core, core_log, v)

        return bnd

    if selector == "RECURSIVE":

        def bnd(degrees: tuple[int, ...]) -> float:
            (core, core_log), _, _ = _recursive_min_core(radii, degrees, 0.0)
            return _finish(core, core_log, v)

        return bnd

    a_eval = _make_evaluator("A", radii, v)
    b_eval = _make_evaluator("B", radii, v)

    def bnd(degrees: tuple[int, ...]) -> float:
        return min(a_eval(degrees), b_eval(degrees))

    return bnd


def _certify(request: PlanRequest, budget: NodeBudget) -> float:
    inputs = BoundInputs(request.radii, budget, request.v_bound)
    if request.selector == "B":
        return bound_b(inputs)
    if request.selector == "A":
        return bound_a(inputs)[0]
    if request.selector == "RECURSIVE":
        return recursive_bound_B_min(inputs, MParams(0.0))[0]
    return bound_combined(inputs).combined


# ---------------------------------------------------------------------------
# per-axis limits from the infinite-relaxation envelopes


def _axis_lower_limit(selector: str, radii: tuple[float, ...], axis: int, v: float, eps: float) -> int:
    """Smallest degree axis ``axis`` can have in any certifying budget."""
    relaxed = eps * (1.0 + _LIMIT_SLACK)

    def univariate_limit() -> int:
        return invert_univariate(radii[axis], v, relaxed)

    d = len(radii)
    log_product = -math.fsum(math.log1p(-r**-2) for r in radii)
    pref_log = (d / 2.0 + 1.0) * math.log(2.0) + 0.5 * log_product + math.log(v)
    log_rho = math.log(radii[axis])

    def b_envelope_feasible(n: int) -> bool:
        return pref_log - n * log_rho <= math.log(relaxed)

    def b_envelope_limit() -> int:
        n = max(0, math.ceil((pref_log - math.log(relaxed)) / log_rho))
        n = min(n, MAX_AXIS_ORDER + 1)
        while not b_envelope_feasible(n):
            n += 1
            if n > MAX_AXIS_ORDER:
                raise ValueError(
                    f"target {eps} needs more than {MAX_AXIS_ORDER} nodes "
                    f"along axis {axis}"
                )
        while n > 0 and b_envelope_feasible(n - 1):
            n -= 1
        return n

    if selector == "B":
        limit = b_envelope_limit()
    elif selector == "COMBINED":
        limit = min(univariate_limit(), b_envelope_limit())
    else:  # A and RECURSIVE share the univariate first-sum term
        limit = univariate_limit()
    if limit > MAX_AXIS_ORDER:
        raise ValueError(
            f"target {eps} needs more than {MAX_AXIS_ORDER} nodes along axis {axis}"
        )
    return limit


def _uniform_incumbent(bnd, lower: list[int], eps: float, d: int) -> int:
    """Smallest m with the uniform budget (m,...,m) certifying."""
    m = max(lower)
    if bnd((m,) * d) <= eps:
        return m
    step = 1
    lo = m  # infeasible
    while True:
        m = lo + step
        if m > MAX_AXIS_ORDER:
            raise ValueError(
                f"target {eps} needs more than {MAX_AXIS_ORDER} nodes per axis"
            )
        if bnd((m,) * d) <= eps:
            break
        lo = m
        step *= 2
    hi = m  # feasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bnd((mid,) * d) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def plan_nodes(request: PlanRequest) -> Plan:
    """Minimise ``prod (N_i + 1)`` over budgets certifying the target.

    Ties in the grid size resolve to the lexicographically smallest
    budget.  Raises if any axis would need more than ``MAX_AXIS_ORDER``
    nodes.
    """
    radii = request.radii.values
    d = len(radii)
    v = request.v_bound
    eps = request.epsilon_target
    bnd = _make_evaluator(request.selector, radii, v)

    lower = [
        _axis_lower_limit(request.selector, radii, i, v, eps) for i in range(d)
    ]

    m_star = _uniform_incumbent(bnd, lower, eps, d)
    best_obj = 1
    for _ in range(d):
        best_obj *= m_star + 1
    best = (best_obj, (m_star,) * d)

    if d == 1:
        # the uniform search already walked the only axis to its minimum
        budget = NodeBudget((m_star,))
        certified = _certify(request, budget)
        return Plan(request, budget, budget.grid_points, certified)

    # upper limits: objective ceiling against the incumbent, tightened by
    # the feasibility ceiling FU_i where it exists
    upper: list[int] = []
    for i in range(d):
        others = 1
        for j in range(d):
            if j != i:
                others *= lower[j] + 1
        obj_cap = best[0] // others - 1
        if obj_cap < lower[i]:
            upper.append(lower[i] - 1)  # empty range; incumbent already optimal here
            continue
        probe = list(lower)

        def feasible_at(n: int) -> bool:
            probe[i] = n
            return bnd(tuple(probe)) <= eps

        if feasible_at(obj_cap):
            lo, hi = lower[i], obj_cap
            while hi > lo:
                mid = (lo + hi) // 2
                if feasible_at(mid):
                    hi = mid
                else:
                    lo = mid + 1
            upper.append(hi)
        else:
            upper.append(obj_cap)

    if all(u >= lo_ for u, lo_ in zip(upper, lower)):
        suffix_floor = [1] * (d + 1)  # prod of (lower_j + 1) for j >= t
        for t in range(d - 1, -1, -1):
            suffix_floor[t] = suffix_floor[t + 1] * (lower[t] + 1)
        upper_tail = [tuple(upper[t:]) for t in range(d + 1)]

        def dfs(prefix: tuple[int, ...], prefix_obj: int) -> None:
            nonlocal best
            t = len(prefix)
            for n in range(lower[t], upper[t] + 1):
                obj_floor = prefix_obj * (n + 1) * suffix_floor[t + 1]
                if obj_floor > best[0]:
                    break
                candidate = prefix + (n,) + upper_tail[t + 1]
                if bnd(candidate) > eps:
                    continue
                if t == d - 1:
                    cand = (prefix_obj * (n + 1), prefix + (n,))
                    if cand < best:
                        best = cand
                else:
                    dfs(prefix + (n,), prefix_obj * (n + 1))

        dfs((), 1)

    budget = NodeBudget(best[1])
    certified = _certify(request, budget)
    if certified > eps:
        raise RuntimeError(
            "internal error: planned budget failed re-certification"
        )
    return Plan(request, budget, budget.grid_points, certified)


def compare_plans(radii: EllipseRadii, v_bound: float, epsilon_target: float) -> PlanComparison:
    """Plan under every selector and report grid savings relative to B."""
    plans = {
        sel: plan_nodes(PlanRequest(radii, v_bound, epsilon_target, sel))
        for sel in PLAN_SELECTORS
    }
    base = plans["B"].grid_points
    savings = {
        sel: 1.0 - plans[sel].grid_points / base for sel in PLAN_SELECTORS
    }
    return PlanComparison(plans=plans, savings_vs_b=savings)
