"""Smallest node budget that certifies a target accuracy.

Given radii, a magnitude bound V and a target ``epsilon``, the planner
finds the degree vector minimising the total grid size ``prod (N_i + 1)``
subject to ``bound(N) <= epsilon`` for a chosen bound selector, among
budgets whose every degree is at most ``MAX_AXIS_ORDER``:

1. The search box.  Axis ``i`` runs from its lower limit ``L_i`` to
   ``min(best // prod_{j != i} (L_j + 1) - 1, MAX_AXIS_ORDER)``.  ``L_i``
   relaxes every other axis to infinity, where each of the selector's
   bounds collapses to an explicit univariate expression in ``N_i``, and
   takes the least degree any of them allows against the target widened by
   the first-sum screen's margin, so no budget below it certifies.
   ``best`` is the grid size of the smallest certifying uniform budget
   ``(m, ..., m)``, the incumbent, so no budget within the ceiling and no
   larger than it lies outside the box.
2. Depth-first search in ascending lexicographic order over the box.  At
   each level, with the remaining axes at their caps, the largest degree
   the objective floor still allows is tested first; if it does not
   certify, the level is pruned.  Otherwise the first degree that
   certifies is found by gallop and bisection.  The last axis takes only
   that degree; earlier axes recurse from it upward, without testing
   again, until the objective floor exceeds the best.  This relies on
   feasibility being monotone in each degree, as the bounds are
   nonincreasing in every ``N_i``.

Each selector is the set of bounds it certifies with (``_SELECTOR_BOUNDS``):
A, B and RECURSIVE one each, COMBINED both of the paper's bounds, since
their minimum certifies when either does.  A selector certifies when any of
its bounds does, cheapest first, so COMBINED tries B, which costs O(d),
before A.  Each bound's test ("does this budget certify epsilon?") is
decided from the cheapest sufficient evidence (``_make_feasible``): A and
RECURSIVE reject a budget whose order-free first sum
``V sum_i 4 rho_i^-N_i / (rho_i - 1)`` already exceeds the target; only the
rest pay for the search over axis orders.  The planner asks only whether
some order certifies, so that search ends at the first order whose bound is
below the target by a relative margin of 1e-9.  Up to 8 axes A's search
also skips, unevaluated, every order after the first whose chain sum (each
level's tail times a degree-free weight of its set of leading axes)
already puts the bound above the target by that margin, so most failing A
tests evaluate one order.  A failing recursive test, and past 8 axes any
failing test, still visits every order of its search.  The tests and the
search box of one plan share one table of the bounds' factors
(``bounds._Factors``), which also holds A's chain weights.

Objective ties prefer the lexicographically smallest budget.  The search
evaluates bounds through the same cores as the public bound functions,
and the returned plan re-certifies through the public entry points: its
value is the least of its bounds' public values.

Plans are exact, the smallest grid among budgets within the ceiling, only
while the axis-order search is exhaustive, that is for d <= 8
(``EXHAUSTIVE_ORDER_LIMIT``).  Planning accepts up to 12 axes; past 8, A,
COMBINED and RECURSIVE minimise over orders by pairwise-swap descent, whose
value need not be monotone in the degrees, so the plan certifies the target
but need not be the smallest such budget.  The descent's early exit does
not change that plan: a test decides as the full descent would.
"""

from __future__ import annotations

import math

from . import jsonio
from .bounds import (
    EXHAUSTIVE_ORDER_LIMIT,
    BoundInputs,
    MParams,
    _DIRECT_LOG,
    _TINY,
    _Factors,
    _bound_a_evaluator,
    _bound_b_core,
    _finish,
    _minimise_over_orders,
    _recursive_evaluator,
    _sum_terms,
    bound_a,
    bound_b,
    recursive_bound_B_min,
)
from .inputs import EllipseRadii, NodeBudget, Record

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

#: per-axis degree ceiling: no plan exceeds it, and a target that no budget
#: within it certifies aborts with a clear error
MAX_AXIS_ORDER = 10**6

#: the planner's search is exponential in the dimension past this point
_MAX_PLAN_DIMENSION = 12

# A budget is rejected on the order-free first sum alone only when that sum
# exceeds epsilon by this relative margin, which covers the rounding gap
# between the log-path sums of the first sum and of the full bound.  The
# per-axis lower limits relax epsilon by the same margin.
_FLOOR_SLACK = 1e-9


def _check_target(eps: float) -> None:
    # below the smallest normal double the bounds report 0.0, so every
    # budget would "certify" through underflow
    if not math.isfinite(eps) or eps < _TINY:
        raise ValueError(
            f"target must be finite and at least the smallest normal double "
            f"{_TINY!r}, got {eps}"
        )


class PlanRequest(Record):
    """What to certify: radii, magnitude bound, target, and which bound."""

    __slots__ = ("radii", "v_bound", "epsilon_target", "selector")

    def __init__(
        self,
        radii: EllipseRadii,
        v_bound: float,
        epsilon_target: float,
        selector: str = "COMBINED",
    ) -> None:
        v = float(v_bound)
        if not math.isfinite(v) or v <= 0:
            raise ValueError(f"magnitude bound must be finite and > 0, got {v}")
        eps = float(epsilon_target)
        _check_target(eps)
        if selector not in PLAN_SELECTORS:
            raise ValueError(f"selector must be one of {PLAN_SELECTORS}, got {selector!r}")
        if radii.dimension > _MAX_PLAN_DIMENSION:
            raise ValueError(
                f"planning supports up to {_MAX_PLAN_DIMENSION} dimensions, "
                f"got {radii.dimension}"
            )
        self._init(radii, v, eps, selector)

    @property
    def dimension(self) -> int:
        return self.radii.dimension


class Plan(Record):
    """A certified budget: the bound value is re-checked, not assumed."""

    __slots__ = ("request", "budget", "grid_points", "certified_bound")

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


class PlanComparison(Record):
    """Plans for every selector on the same request, plus size ratios.

    ``savings_vs_b`` is ``1 - grid / grid(B)``; positive means fewer points.
    """

    __slots__ = ("plans", "savings_vs_b")

    def to_json_dict(self) -> dict:
        return {
            "plans": {k: self.plans[k].to_json_dict() for k in PLAN_SELECTORS},
            "savings_vs_b": {k: self.savings_vs_b[k] for k in PLAN_SELECTORS},
        }

    def to_json(self) -> str:
        return jsonio.dumps(self.to_json_dict())


def _least(feasible, lo: int, error: str, top: int = MAX_AXIS_ORDER) -> int:
    """Smallest ``n`` in ``[lo, top]`` with ``feasible(n)``.

    ``feasible`` must be monotone in ``n``.  Gallops up from ``lo`` in
    doubling steps clamped at ``top``, then bisects; raises
    ``ValueError(error)`` when even ``top`` is infeasible.
    """
    hi, step = lo, 1
    while not feasible(hi):
        if hi >= top:
            raise ValueError(error)
        lo, hi = hi + 1, min(hi + step, top)
        step *= 2
    while lo < hi:  # everything below lo is infeasible, hi is feasible
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def invert_univariate(rho: float, v: float, eps: float) -> int:
    """Smallest N with ``bound_univariate(rho, N, v) <= eps``."""
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 1.0:
        raise ValueError(f"radius must exceed 1, got {rho}")
    v = float(v)
    eps = float(eps)
    if not math.isfinite(v) or v <= 0:
        raise ValueError(f"magnitude bound must be finite and > 0, got {v}")
    _check_target(eps)
    return _least(
        _envelope("A", _Factors((rho,)), 0, v, eps),  # A's envelope is the univariate bound
        0,
        f"target {eps} needs more than {MAX_AXIS_ORDER} nodes for rho={rho}, v={v}",
    )


# ---------------------------------------------------------------------------
# the bounds of each selector, and their tests (the public bounds' own cores
# at V=1, times V)

#: the bounds each selector certifies with, cheapest first: a budget
#: certifies under a selector when one of its bounds certifies it
_SELECTOR_BOUNDS = {"A": ("A",), "B": ("B",), "COMBINED": ("B", "A"), "RECURSIVE": ("RECURSIVE",)}

# every core takes an optional factor table; the A and RECURSIVE cores also
# take the order search's optional ``stop``, and A's its optional ``chain``
_SELECTOR_CORES = {
    "A": lambda radii, degrees, factors=None, stop=None, chain=None: _minimise_over_orders(
        _bound_a_evaluator(radii, degrees, "consistent", factors), radii, degrees, stop, chain
    )[0],
    "B": _bound_b_core,
    "RECURSIVE": lambda radii, degrees, factors=None, stop=None: _minimise_over_orders(
        _recursive_evaluator(radii, degrees, 0.0, factors), radii, degrees, stop
    )[0],
}

#: each bound's public value, which re-certifies a plan
_PUBLIC_BOUNDS = {
    "A": lambda inputs: bound_a(inputs)[0],
    "B": bound_b,
    "RECURSIVE": lambda inputs: recursive_bound_B_min(inputs, MParams(0.0))[0],
}


def _bound_test(bound: str, radii: tuple[float, ...], v: float, eps: float, factors: _Factors):
    """test(degrees) -> bool: does ``bound`` certify ``eps``?  See ``_make_feasible``."""
    core = _SELECTOR_CORES[bound]
    if bound == "B":
        return lambda degrees: _finish(*core(radii, degrees, factors), v) <= eps
    screen = eps * (1.0 + _FLOOR_SLACK)
    certain = eps * (1.0 - _FLOOR_SLACK)
    chained = bound == "A" and len(radii) <= EXHAUSTIVE_ORDER_LIMIT

    def stop(cand: tuple[float, float]) -> bool:
        value = cand[0] * v
        return cand[0] >= _TINY and _TINY <= value <= certain

    def test(degrees: tuple[int, ...]) -> bool:
        tails = [factors.tail(i, n) for i, n in enumerate(degrees)]
        heads = [t[0] for t in tails]
        logs = [t[1] for t in tails]
        first_sum = _sum_terms(heads, logs)
        if _finish(*first_sum, v) > screen:
            return False
        if chained and max(logs) >= _DIRECT_LOG and all(t[2] for t in tails):
            chain = heads, factors.chain_weights(), screen / v - first_sum[0]
            return _finish(*core(radii, degrees, factors, stop, chain), v) <= eps
        return _finish(*core(radii, degrees, factors, stop), v) <= eps

    return test


def _make_feasible(
    selector: str, radii: tuple[float, ...], v: float, eps: float, factors: _Factors | None = None
):
    """feasible(degrees) -> bool: does the selected bound certify ``eps``?

    The decision equals ``bound(degrees) <= eps`` with COMBINED as
    ``min(A, B)``, but is taken from the cheapest sufficient evidence:

    1. A selector certifies when any of its bounds does, cheapest first
       (``_SELECTOR_BOUNDS``): COMBINED tries B, which costs O(d), then A.
       B's test is its core.
    2. A and RECURSIVE: the floor is the order-free first sum
       ``sum_i 4 rho_i^-N_i / (rho_i - 1)`` times V, summed and finished
       like the bounds.  If it exceeds ``eps * (1 + _FLOOR_SLACK)``, no
       order certifies.
    3. Otherwise the order search of the bound's core decides.  It ends
       at the first order whose core is a normal double with ``core * V``
       a normal double at most ``eps * (1 - _FLOOR_SLACK)``: that order
       certifies, so the minimum over orders does too.
    4. A, up to ``EXHAUSTIVE_ORDER_LIMIT`` axes: the search evaluates the
       first order, then only the orders whose chain sum is at most
       ``eps * (1 + _FLOOR_SLACK) / V`` minus step 2's first sum
       (``bounds._chain_screen``).  The chain sum adds the levels
       ``k = 1..d-1`` of the order as plain doubles: level ``k`` is
       ``t_{sigma_k} c(S_k)``, with ``S_k`` the set of the first ``k`` axes
       and ``c(S) = g_|S| / prod_{j in S} (1 - 1/rho_j)`` from the table's
       ``chain_weights``.  A search that skips every order after the first
       returns the first order's value.  The recursive bound has no such
       screen: its levels need M at the test's degrees, the cost of its
       evaluator, so a skipped order would save next to nothing.

    Every test reads one factor table (``bounds._Factors``): the plan's,
    or one built here for the radii.  It holds the tails, B's product, A's
    shrink and growth factors and chain weights (built on the first
    screened search), and M per set of axes and their degrees, and lives
    as long as the plan.

    Step 2 is exact.  The floor's terms are the same doubles as the first
    d terms of A (consistent variant) and of the recursive bound in every
    order, and every other term is >= 0.  When the floor sums directly,
    so does the full bound (its largest term is no smaller), and ``fsum``
    is correctly rounded, so the sum over more terms is at least the sum
    over fewer.  When either sums through logs, both sums are within about
    1e-13 relative of the exact sums of their terms; the margin covers
    that, and a test inside the margin goes on to step 3.  ``_finish`` is
    monotone and keeps a normal result within rounding of core times V, and
    targets are at least the smallest normal double, so a floor above the
    margin means a bound above ``eps``.

    Step 3's early exit is exact too: the decision is still
    ``_finish(min) <= eps``.  The minimum over orders is at most the
    stopping core; past 8 axes, the descent's final minimum is at most
    every order it evaluates, the stopping one included.  If ``_finish``
    multiplies directly, ``_finish(min)`` is the rounded ``min * V``, at
    most the rounded ``core * V``, which is below ``eps``.  If it goes
    through logs (a subnormal core or product), ``_finish(min)`` is within
    about 1e-13 relative of the exact product, itself at most ``core * V``;
    the margin covers that gap.  A candidate inside the margin does not
    stop the search, which then decides on the minimum as before.

    Step 4 is exact by the same margin: an order it skips has a bound above
    ``eps``, so that order neither stops the search nor can certify, and
    the decision is the one over every order.  Its bound is the correctly
    rounded sum of the first-sum terms and of its levels, and the chain
    sum differs from the exact sum of those levels only by roundings: the
    order-free product ``prod_{j in S}`` against the evaluator's running
    product in peeling order, with the division and product around each
    (at most 2d roundings per level), and the plain sum of at most d - 1
    nonnegative levels (d - 2 roundings).  With the subtraction, the
    division by V, the first sum, the bound's own sum and ``_finish``, an
    order above the limit has a bound above ``eps * (1 + _FLOOR_SLACK)``
    less at most 3d + 3 roundings, under 3e-15 relative at d = 8, far
    inside the margin.  The screen stands down, and the search runs as in
    step 3, when a tail or the first sum is on the log path.  A weight
    outside the normal range (subnormal or infinite) is NaN in the table,
    and an order that reads one is never skipped.
    """
    factors = factors or _Factors(radii)
    tests = [_bound_test(bound, radii, v, eps, factors) for bound in _SELECTOR_BOUNDS[selector]]
    return lambda degrees: any(test(degrees) for test in tests)


# ---------------------------------------------------------------------------
# per-axis lower limits from the infinite-relaxation envelopes


def _envelope(bound: str, factors: _Factors, axis: int, v: float, target: float):
    """certifies(n) -> bool for ``bound`` with every axis but ``axis`` infinite.

    B keeps its prefactor and radius product; A and the recursive bound
    keep their first-sum term of ``axis``, the univariate bound.
    """
    if bound == "B":
        d = len(factors.radii)
        pref_log = (d / 2.0 + 1.0) * math.log(2.0) + 0.5 * factors.b_product[1] + math.log(v)
        log_rho, log_target = factors.log_radii[axis], math.log(target)
        return lambda n: pref_log - n * log_rho <= log_target
    return lambda n: _finish(*factors.tail(axis, n)[:2], v) <= target


def _axis_lower_limit(selector: str, factors: _Factors, axis: int, v: float, eps: float) -> int:
    """Smallest degree axis ``axis`` can have in any certifying budget.

    It is the least degree that any of the selector's bounds allows, so it
    raises only when none of them allows one within the ceiling.
    """
    relaxed = eps * (1.0 + _FLOOR_SLACK)
    envelopes = [_envelope(bound, factors, axis, v, relaxed) for bound in _SELECTOR_BOUNDS[selector]]
    return _least(
        lambda n: any(certifies(n) for certifies in envelopes),
        0,
        f"target {eps} needs more than {MAX_AXIS_ORDER} nodes along axis {axis}",
    )


def plan_nodes(request: PlanRequest) -> Plan:
    """Minimise ``prod (N_i + 1)`` over budgets certifying the target.

    Only budgets whose every degree is at most ``MAX_AXIS_ORDER`` are
    searched, and ties in the grid size resolve to the lexicographically
    smallest budget.  Raises if no budget within the ceiling certifies.
    """
    radii = request.radii.values
    d = len(radii)
    v = request.v_bound
    eps = request.epsilon_target
    factors = _Factors(radii)
    feasible = _make_feasible(request.selector, radii, v, eps, factors)
    lower = [_axis_lower_limit(request.selector, factors, i, v, eps) for i in range(d)]
    m_star = _least(
        lambda m: feasible((m,) * d),
        max(lower),
        f"target {eps} needs more than {MAX_AXIS_ORDER} nodes per axis",
    )
    best = ((m_star + 1) ** d, (m_star,) * d)

    # objective caps at the ceiling: no budget within it and as small as the
    # incumbent has a larger degree
    upper = [
        min(best[0] // math.prod(lower[j] + 1 for j in range(d) if j != i) - 1, MAX_AXIS_ORDER)
        for i in range(d)
    ]
    suffix_floor = [1] * (d + 1)  # prod of (lower_j + 1) for j >= t
    for t in range(d - 1, -1, -1):
        suffix_floor[t] = suffix_floor[t + 1] * (lower[t] + 1)
    upper_tail = [tuple(upper[t:]) for t in range(d + 1)]

    def dfs(prefix: tuple[int, ...], prefix_obj: int) -> None:
        nonlocal best
        t = len(prefix)
        floor = prefix_obj * suffix_floor[t + 1]
        top = min(upper[t], best[0] // floor - 1)  # largest n the floor allows
        tail = upper_tail[t + 1]

        def certifies(n: int) -> bool:
            return feasible(prefix + (n,) + tail)

        if top < lower[t] or not certifies(top):
            return
        # top certifies, so the search need not test it again and cannot raise
        first = _least(lambda n: n == top or certifies(n), lower[t], "", top)
        if t == d - 1:
            best = min(best, (prefix_obj * (first + 1), prefix + (first,)))
            return
        for n in range(first, top + 1):
            if (n + 1) * floor > best[0]:
                break
            dfs(prefix + (n,), prefix_obj * (n + 1))

    dfs((), 1)

    budget = NodeBudget(best[1])
    inputs = BoundInputs(request.radii, budget, v)
    certified = min(_PUBLIC_BOUNDS[bound](inputs) for bound in _SELECTOR_BOUNDS[request.selector])
    if certified > eps:
        raise RuntimeError(
            "internal error: planned budget failed re-certification"
        )
    return Plan(request, budget, budget.grid_points, certified)


def compare_plans(radii: EllipseRadii, v_bound: float, epsilon_target: float) -> PlanComparison:
    """Plan under every selector and report grid savings relative to B.

    A selector that cannot plan raises with ``selector <name>: `` in front.
    """
    plans = {}
    for sel in PLAN_SELECTORS:
        request = PlanRequest(radii, v_bound, epsilon_target, sel)
        try:
            plans[sel] = plan_nodes(request)
        except ValueError as err:
            raise ValueError(f"selector {sel}: {err}") from err
    base = plans["B"].grid_points
    savings = {
        sel: 1.0 - plans[sel].grid_points / base for sel in PLAN_SELECTORS
    }
    return PlanComparison(plans=plans, savings_vs_b=savings)
