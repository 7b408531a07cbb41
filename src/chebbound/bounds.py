"""A-priori sup-norm error bounds for tensorized Chebyshev interpolation.

For a function analytic on a generalized Bernstein ellipse with radii
``rho_i`` and bounded there by ``V``, the interpolation error on the box is
bounded by two competing explicit expressions:

* :func:`bound_b` — a single closed form with a ``2^(D/2+1)`` prefactor and
  an l2-style combination of the per-axis decay rates ``rho_i^(-2 N_i)``.
* :func:`bound_a` — a telescoping bound that peels off one axis at a time
  in an order ``sigma`` and pays a ``2^(k-1)`` growth factor per level;
  minimised over the peeling order.

Neither dominates: A wins for large radii (fast decay makes the level
factors irrelevant), B wins for radii near 1.  :func:`bound_combined`
reports ``min`` of the two.  :func:`recursive_bound_B` sharpens A by
replacing each level's growth factor with the explicit magnitude bound
:func:`m_upper_bound` for the partial interpolants; it is never worse than
the same-order telescoping bound.

The magnitude bound's numerator is printed as a sum over all ``2^D`` axis
masks; that sum telescopes to ``1 - prod_i (1 - x_i)``, so M costs O(D) in
any dimension.  M depends on the *set* of axes only, so
:func:`recursive_bound_B_min` computes it once per set of leading axes (at
most ``2^D - 1`` values) while it searches the axis orders.

All bounds are linear in ``V``, strictly decreasing in each ``rho_i``, and
nonincreasing in each ``N_i``.  Values that mathematically underflow the
smallest normal double are reported as 0.0 and flagged in the report's
``underflow`` field; values past the largest double are reported as +inf.

Numerics: every term is evaluated in ordinary double arithmetic while its
decayed power and its running products stay normal doubles, and in log
space otherwise, so results track the exact value to ~1e-13 relative
across radii in (1, 50] and degrees up to several hundred, and in any
dimension.  Sums use ``math.fsum``.

:func:`crossover_scan` tabulates A against B over equal radii and bisects
where the winner flips; like every bound here it needs only the standard
library.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from . import jsonio
from .inputs import EllipseRadii, NodeBudget, Record

__all__ = [
    "BoundInputs",
    "MParams",
    "BoundReport",
    "bound_univariate",
    "bound_b",
    "bound_a_for_sigma",
    "bound_a",
    "bound_combined",
    "m_upper_bound",
    "recursive_bound_B",
    "recursive_bound_B_min",
    "EXHAUSTIVE_ORDER_LIMIT",
    "ScanRecord",
    "crossover_scan",
    "scan_to_csv",
]

#: permutation minimisation is exhaustive up to this dimension
EXHAUSTIVE_ORDER_LIMIT = 8

#: relative gap under which the A/B winner is reported as a tie
_TIE_RTOL = 1e-15

_TINY = 2.2250738585072014e-308  # smallest normal double
_LOG_TINY = math.log(_TINY)
_LOG_MAX = math.log(1.7976931348623157e308)  # of the largest double
_LOG4 = math.log(4.0)
_LN2 = math.log(2.0)

# A term value computed by direct arithmetic is trusted while its decayed
# power factor exceeds exp(_POWER_LOG) (no subnormal intermediates for any
# sane cofactor); a sum is evaluated directly while its largest term
# exceeds exp(_DIRECT_LOG), which keeps every contributing addend normal.
_POWER_LOG = -690.0
_DIRECT_LOG = -667.0


class BoundInputs(Record):
    """Radii, node budget and magnitude bound feeding every bound formula."""

    __slots__ = ("radii", "budget", "v_bound")

    def __init__(self, radii: EllipseRadii, budget: NodeBudget, v_bound: float) -> None:
        if radii.dimension != budget.dimension:
            raise ValueError(f"{radii.dimension} radii vs {budget.dimension} degrees")
        v = float(v_bound)
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"magnitude bound must be finite and >= 0, got {v}")
        self._init(radii, budget, v)

    @property
    def dimension(self) -> int:
        return self.radii.dimension


class MParams(Record):
    """Tuning for the partial-interpolant magnitude bound.

    ``epsilon`` trades a slightly larger evaluation ellipse (radius factor
    1 + epsilon) against the sharpness of the bound; 0 evaluates on the
    original ellipse itself.
    """

    __slots__ = ("epsilon",)

    def __init__(self, epsilon: float = 0.0) -> None:
        eps = float(epsilon)
        if not math.isfinite(eps) or eps < 0:
            raise ValueError(f"epsilon must be finite and >= 0, got {eps}")
        self._init(eps)


class BoundReport(Record):
    """Everything :func:`bound_combined` knows about one input.

    ``winner`` is "A", "B" or "TIE"; ``sigma_star`` is the best peeling
    order as 0-based axis ids, and ``sigma_search`` says how it was found:
    "EXHAUSTIVE" or "HEURISTIC".
    """

    __slots__ = (
        "inputs",
        "a_value",
        "b_value",
        "combined",
        "winner",
        "sigma_star",
        "sigma_search",
        "variant",
        "underflow",
    )
    _defaults = ((),)

    def to_json_dict(self) -> dict:
        return {
            "rho": list(self.inputs.radii.values),
            "n": list(self.inputs.budget.degrees),
            "v": self.inputs.v_bound,
            "a": self.a_value,
            "b": self.b_value,
            "combined": self.combined,
            "winner": self.winner,
            "sigma_star": [s + 1 for s in self.sigma_star],  # 1-based for output
            "sigma_search": self.sigma_search,
            "variant": self.variant,
            "underflow": list(self.underflow),
        }

    def to_json(self) -> str:
        return jsonio.dumps(self.to_json_dict())


# ---------------------------------------------------------------------------
# term-level helpers: every term carries (value, log value)


def _exp(log_value: float) -> float:
    """exp(log_value), or +inf past the largest double instead of an error."""
    return math.exp(log_value) if log_value <= _LOG_MAX else math.inf


def _sum_terms(values: list[float], logs: list[float]) -> tuple[float, float]:
    """(value, log) of the sum of terms given as their values and their logs.

    ``fsum`` and ``max`` do not depend on the order of their inputs, so
    neither does the result.
    """
    if len(values) == 1:
        return values[0], logs[0]
    top = max(logs)
    if top >= _DIRECT_LOG:
        try:
            value = math.fsum(values)
        except OverflowError:  # finite terms whose sum passes the largest double
            value = math.inf
        if value < math.inf:
            return value, math.log(value)
    log_value = top + math.log(math.fsum(math.exp(lg - top) for lg in logs))
    return _exp(log_value), log_value


def _tail(rho: float, n: int, rho_denom: float) -> tuple[float, float, bool]:
    """(value, log, direct) of 4 rho^-n / (rho_denom - 1).

    ``direct`` says the value came from double arithmetic, not from its log.
    """
    log_power = -n * math.log(rho)
    log_value = _LOG4 + log_power - math.log(rho_denom - 1.0)
    if log_power >= _POWER_LOG:
        return 4.0 * rho**-n / (rho_denom - 1.0), log_value, True
    return math.exp(log_value), log_value, False


def _univ_core(rho: float, n: int) -> tuple[float, float]:
    """(value, log) of 4 rho^-n / (rho - 1); the univariate bound at V=1."""
    value, log_value, _ = _tail(rho, n, rho)
    return value, log_value


def _finish(core: float, core_log: float, v: float) -> float:
    """core * v, reported as 0.0 once it drops below the smallest normal.

    When the core itself is subnormal (its double representation has lost
    precision) or +inf, the product is recomputed through logs, so a large
    or small v still recovers an accurate result.
    """
    if v == 0.0:
        return 0.0
    value = core * v
    if _TINY <= core < math.inf and value >= _TINY:
        return value
    value_log = core_log + math.log(v)
    if value_log < _LOG_TINY:
        return 0.0
    value = _exp(value_log)
    return value if value >= _TINY else 0.0


def _check_sigma(sigma, d: int) -> tuple[int, ...]:
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(d)):
        raise ValueError(f"sigma must be a permutation of 0..{d - 1}, got {sigma}")
    return sigma


class _Factors:
    """The factors of the bounds that the radii fix, and memos of the ones
    the degrees fix as well.

    One table serves one public bound call, or every feasibility test of
    one plan, and is dropped with it:

    * ``tail(axis, n)``: ``_tail(rho, n, rho)`` of one axis, the first-sum
      term of A and the univariate core of the recursive bound;
    * ``b_product``: B's ``prod_j 1 / (1 - rho_j^-2)`` and the log of it;
    * ``shrink``: A's ``1 - 1/rho_j`` and their ``log1p`` form;
    * ``growth``: A's level growth factors and their logs;
    * ``m(mask, degrees, epsilon)``: M over the axes of ``mask``, whose
      degrees are ``degrees``;
    * ``chain_weights()``: A's degree-free level weights
      ``c(S) = g_|S| / prod_{j in S} (1 - 1/rho_j)`` by bit set ``S`` of
      axes, built on first use.

    Each entry takes the float operations the formulas take, so reading it
    from the table changes no value.  The chain weights are the exception:
    they feed only the planner's chain-sum screen of A's test
    (``_chain_screen``), never a reported value, and hold NaN wherever a
    weight is outside the normal range.
    """

    def __init__(self, radii: tuple[float, ...]) -> None:
        self.radii = radii
        self.log_radii = [math.log(r) for r in radii]
        product = 1.0
        for r in radii:
            product /= 1.0 - r**-2
        self.b_product = product, -math.fsum(math.log1p(-r**-2) for r in radii)
        self.shrink = [1.0 - 1.0 / r for r in radii], [math.log1p(-1.0 / r) for r in radii]
        # from p = 512 on the growth factor passes the largest double; its log
        # comes from the exact int
        exact = [2**p * (p + 2**p - 1) for p in range(1, len(radii))]
        self.growth = [float(g) if g < 2**1024 else math.inf for g in exact], [math.log(g) for g in exact]
        self._tails: dict[tuple[int, int], tuple[float, float, bool]] = {}
        self._m: dict[tuple, tuple[float, float]] = {}
        self._chain: list[float] | None = None

    def tail(self, axis: int, n: int) -> tuple[float, float, bool]:
        key = (axis, n)
        found = self._tails.get(key)
        if found is None:
            rho = self.radii[axis]
            found = self._tails[key] = _tail(rho, n, rho)
        return found

    def m(self, mask: int, degrees: tuple[int, ...], epsilon: float) -> tuple[float, float]:
        key = (mask, degrees, epsilon)
        found = self._m.get(key)
        if found is None:
            radii = tuple(r for i, r in enumerate(self.radii) if mask >> i & 1)
            found = self._m[key] = _m_core(radii, degrees, epsilon)
        return found

    def chain_weights(self) -> list[float]:
        """``c(S)`` at index ``S`` for every bit set with 1..d-1 axes, NaN elsewhere.

        The table has 2^d entries, so only exhaustive searches read it.
        ``prod_{j in S}`` runs over the axes of ``S`` from the highest down,
        whatever the order that peels them.
        """
        if self._chain is None:
            shrink = self.shrink[0]
            growth = self.growth[0]
            size = 1 << len(self.radii)
            denom = [1.0] * size
            table = [math.nan] * size
            for mask in range(1, size - 1):
                low = mask & -mask
                denom[mask] = denom[mask ^ low] * shrink[low.bit_length() - 1]
                weight = growth[mask.bit_count() - 1] / denom[mask]
                if denom[mask] >= _TINY and weight < math.inf:
                    table[mask] = weight
            self._chain = table
        return self._chain


# ---------------------------------------------------------------------------
# the bounds themselves (cores compute at V=1; V multiplies once at the end)


def bound_univariate(rho: float, n: int, v: float) -> float:
    """Interpolation error bound in one dimension: 4 V rho^-N / (rho - 1)."""
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 1.0:
        raise ValueError(f"radius must exceed 1, got {rho}")
    n = int(n)
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    v = float(v)
    if not math.isfinite(v) or v < 0:
        raise ValueError(f"magnitude bound must be finite and >= 0, got {v}")
    core, core_log = _univ_core(rho, n)
    return _finish(core, core_log, v)


def _bound_b_core(
    radii: tuple[float, ...], degrees: tuple[int, ...], factors: _Factors | None = None
) -> tuple[float, float]:
    factors = factors or _Factors(radii)
    d = len(radii)
    power_logs = [-2.0 * n * lr for lr, n in zip(factors.log_radii, degrees)]
    product, log_product = factors.b_product
    top = max(power_logs)
    # from 2046 axes on the prefactor 2^(d/2+1) alone passes the largest double
    if top >= _DIRECT_LOG and d < 2046:
        total = math.fsum(
            r ** (-2 * n) if lg >= _POWER_LOG else math.exp(lg)
            for r, n, lg in zip(radii, degrees, power_logs)
        )
        value = 2.0 ** (d / 2.0 + 1.0) * math.sqrt(total * product)
        # the product grows with every axis; past the largest double it is
        # inf, and the log form below brings the square root back into range
        if value < math.inf:
            return value, math.log(value)
    log_sum = top + math.log(math.fsum(math.exp(lg - top) for lg in power_logs))
    log_value = (d / 2.0 + 1.0) * _LN2 + 0.5 * (log_sum + log_product)
    return _exp(log_value), log_value


def bound_b(inputs: BoundInputs) -> float:
    """Closed-form tensor bound: 2^(D/2+1) V sqrt(sum_i rho_i^-2Ni prod_j (1-rho_j^-2)^-1)."""
    core, core_log = _bound_b_core(inputs.radii.values, inputs.budget.degrees)
    return _finish(core, core_log, inputs.v_bound)


def _bound_a_evaluator(
    radii: tuple[float, ...],
    degrees: tuple[int, ...],
    variant: str,
    factors: _Factors | None = None,
):
    """evaluate(sigma) -> (value, log) of bound A at V=1 in order sigma.

    The per-axis factors come from ``factors`` (a fresh table if none is
    given): the univariate tails ``4 rho^-n / (rho - 1)`` with their logs
    and direct/log-path flags, ``1 - 1/rho_j`` with its ``log1p``, and the
    level growth factors.  Term ``k`` of the second sum divides by the
    product of ``1 - 1/rho_j`` over the axes peeled before it, so each call
    keeps the previous order's denominators and terms and recomputes them
    only from the first position where ``sigma`` differs; lexicographic
    enumeration changes about 1.7 positions per order.  Every term takes
    the same float operations as a fresh evaluation, so the value does not
    depend on the earlier calls.  Memory is O(d).

    ``variant="literal"`` reads position-indexed degrees, so its first-sum
    terms depend on the position as well and are recomputed with the rest.
    """
    if variant not in ("consistent", "literal"):
        raise ValueError(f"unknown variant {variant!r}")
    d = len(radii)
    literal = variant == "literal"
    factors = factors or _Factors(radii)
    tails = [factors.tail(i, n) for i, n in enumerate(degrees)]
    shrink, log_shrink = factors.shrink
    growth, log_growth = factors.growth
    # values[p] and logs[p] hold the first-sum term at position p, and
    # values[d + p - 1] and logs[d + p - 1] the second-sum term; in the
    # consistent variant the first sum runs over every axis in any order,
    # so its terms are set once, in axis order
    values = [t[0] for t in tails] + [0.0] * (d - 1)
    logs = [t[1] for t in tails] + [0.0] * (d - 1)
    # the denominator of the second-sum term at position p and its log
    denom = [1.0] * d
    log_denom = [0.0] * d
    previous = (-1,) * d

    def evaluate(sigma: tuple[int, ...]) -> tuple[float, float]:
        nonlocal previous
        start = 0
        while start < d and sigma[start] == previous[start]:
            start += 1
        previous = sigma
        if literal:  # the printed first sum mixes position and axis indices
            for p in range(start, d):
                s = sigma[p]
                values[p], logs[p], _ = _tail(radii[s], degrees[p], radii[p])
        for p in range(start or 1, d):
            s = sigma[p]
            value, head_log, direct = factors.tail(s, degrees[p]) if literal else tails[s]
            j = sigma[p - 1]  # axis joining the already-peeled denominator
            denom[p] = denom[p - 1] * shrink[j]
            log_denom[p] = log_denom[p - 1] + log_shrink[j]
            g = growth[p - 1]
            log_value = head_log + log_growth[p - 1] - log_denom[p]
            if direct and denom[p] >= _TINY and g < math.inf:
                value = value * g / denom[p]
            else:  # a factor outside the normal range
                value = _exp(log_value)
            values[d + p - 1] = value
            logs[d + p - 1] = log_value
        return _sum_terms(values, logs)

    return evaluate


def bound_a_for_sigma(inputs: BoundInputs, sigma, variant: str = "consistent") -> float:
    """Telescoping bound for one explicit peeling order ``sigma`` (0-based).

    ``variant="consistent"`` pairs each radius with its own degree
    throughout; ``"literal"`` reproduces the printed form, whose first sum
    mixes position-indexed degrees with axis-indexed radii.  The two agree
    whenever sigma is the identity or the budget is isotropic.
    """
    evaluate = _bound_a_evaluator(inputs.radii.values, inputs.budget.degrees, variant)
    core, core_log = evaluate(_check_sigma(sigma, inputs.dimension))
    return _finish(core, core_log, inputs.v_bound)


def _orders(twin: list[int]):
    """Every order of the axes, in lexicographic order, that puts each axis
    after its twin (``twin[i]``, or -1 for none)."""
    d = len(twin)
    if max(twin, default=-1) < 0:
        return itertools.permutations(range(d))

    def extend(prefix: tuple[int, ...], placed: int):
        if len(prefix) == d:
            yield prefix
            return
        for i in range(d):
            if not placed >> i & 1 and (twin[i] < 0 or placed >> twin[i] & 1):
                yield from extend(prefix + (i,), placed | 1 << i)

    return extend((), 0)


def _chain_screen(orders, heads: list[float], weights, limit: float):
    """The first of ``orders``, then those whose chain sum is not above ``limit``.

    Level ``k >= 1`` of order ``sigma`` weighs ``heads[sigma[k]] *
    weights[S_k]``, with ``S_k`` the bit set of the first ``k`` axes; the
    chain sum adds the levels in order, as plain doubles.  Like the
    evaluators, each order keeps the previous order's partial sums and
    recomputes them only from the first position where it differs.  A NaN
    weight makes the sums NaN, and such an order is never skipped.

    The first order passes unread, so a search that ends there reads no
    weight.
    """
    orders = iter(orders)
    yield next(orders)
    d = len(heads)
    sums = [0.0] * d  # sums[k]: the levels 1..k
    leading = [0] * d
    previous = (-1,) * d
    for sigma in orders:
        start = 0
        while sigma[start] == previous[start]:
            start += 1
        previous = sigma
        for k in range(start or 1, d):
            mask = leading[k] = leading[k - 1] | 1 << sigma[k - 1]
            sums[k] = sums[k - 1] + heads[sigma[k]] * weights[mask]
        if not sums[-1] > limit:
            yield sigma


def _minimise_over_orders(
    evaluate, radii: tuple[float, ...], degrees: tuple[int, ...], stop=None, chain=None
):
    """((value, log), sigma_star, search): min over axis orders of evaluate(sigma).

    Exhaustive for d <= EXHAUSTIVE_ORDER_LIMIT (ties keep the first order
    in lexicographic enumeration); above that, steepest-decay-first start
    refined by best-improvement pairwise-swap descent.  Comparison falls
    back to the logs when two values round to the same double.

    Two axes with the same radius and degree are interchangeable: swapping
    them in an order gives the same double in every bound.  So the
    exhaustive search visits only the orders that keep each such pair in
    index order.  The lexicographically first optimal order is one of them,
    since the order with the pair put back in index order has the same value
    and comes no later.  The descent skips swaps of such a pair, which
    cannot be strictly better.

    ``stop(cand)``, if given, ends either search at the first order whose
    ``(value, log)`` satisfies it and returns that order, so the result is
    then only an upper bound on the minimum: it is at least the exhaustive
    minimum, and at least the minimum the descent would end with, since
    every order the descent evaluates is.

    ``chain``, if given, is ``(heads, weights, limit)``, and the exhaustive
    search evaluates only the orders that ``_chain_screen`` lets through:
    the first, and those whose chain sum is at most ``limit``.  The caller
    vouches that the skipped orders' values are of no use to it.  The
    descent ignores ``chain``.
    """
    d = len(radii)
    keys = list(zip(radii, degrees))
    twin = [-1] * d  # the previous axis with the same radius and degree
    if len(set(keys)) < d:
        last: dict[tuple[float, int], int] = {}
        for i, key in enumerate(keys):
            twin[i] = last.get(key, -1)
            last[key] = i
    if d <= EXHAUSTIVE_ORDER_LIMIT:
        best = (math.inf, math.inf)
        best_sigma = tuple(range(d))
        orders = _orders(twin) if chain is None else _chain_screen(_orders(twin), *chain)
        for sigma in orders:
            cand = evaluate(sigma)
            if stop is not None and stop(cand):
                return cand, sigma, "EXHAUSTIVE"
            if cand < best:
                best, best_sigma = cand, sigma
        return best, best_sigma, "EXHAUSTIVE"

    kind = list(range(d))  # equal for interchangeable axes
    for i in range(d):
        if twin[i] >= 0:
            kind[i] = kind[twin[i]]
    sigma = tuple(sorted(range(d), key=lambda i: (-radii[i], i)))
    best = evaluate(sigma)
    if stop is not None and stop(best):
        return best, sigma, "HEURISTIC"
    improved = True
    while improved:
        improved = False
        best_swap = None
        swap_best = best
        for p in range(d - 1):
            for q in range(p + 1, d):
                if kind[sigma[p]] == kind[sigma[q]]:
                    continue
                cand_sigma = list(sigma)
                cand_sigma[p], cand_sigma[q] = cand_sigma[q], cand_sigma[p]
                cand = evaluate(tuple(cand_sigma))
                if stop is not None and stop(cand):
                    return cand, tuple(cand_sigma), "HEURISTIC"
                if cand < swap_best:
                    swap_best = cand
                    best_swap = (p, q)
        if best_swap is not None:
            p, q = best_swap
            cand_sigma = list(sigma)
            cand_sigma[p], cand_sigma[q] = cand_sigma[q], cand_sigma[p]
            sigma = tuple(cand_sigma)
            best = swap_best
            improved = True
    return best, sigma, "HEURISTIC"


def bound_a(
    inputs: BoundInputs, variant: str = "consistent"
) -> tuple[float, tuple[int, ...], str]:
    """Telescoping bound minimised over the peeling order.

    Returns ``(value, sigma_star, search)`` where ``search`` says whether
    every order was tried ("EXHAUSTIVE", dimension <= 8) or a
    steepest-decay-first start refined by pairwise-swap descent was used
    ("HEURISTIC").  Ties keep the lexicographically first order.

    The search evaluates each order through one prefix-sharing evaluator:
    consecutive orders share their leading axes, so only the denominators
    and terms from the first changed position are recomputed, with the
    same float operations as a fresh evaluation of that order.
    """
    radii = inputs.radii.values
    degrees = inputs.budget.degrees
    (core, core_log), sigma_star, search = _minimise_over_orders(
        _bound_a_evaluator(radii, degrees, variant), radii, degrees
    )
    return _finish(core, core_log, inputs.v_bound), sigma_star, search


def _winner_tag(a: float, b: float) -> str:
    """"A" or "B" for the smaller bound, "TIE" within ``_TIE_RTOL`` relative.

    A finite bound beats +inf; two infinite bounds tie.
    """
    if a == b or abs(a - b) <= _TIE_RTOL * max(a, b) < math.inf:
        return "TIE"
    return "A" if a < b else "B"


def bound_combined(inputs: BoundInputs, variant: str = "consistent") -> BoundReport:
    """min(A, B) with full provenance: values, winner, best order, underflow."""
    a_value, sigma_star, search = bound_a(inputs, variant)
    b_value = bound_b(inputs)
    combined = min(a_value, b_value)

    winner = _winner_tag(a_value, b_value)

    underflow = []
    if inputs.v_bound > 0.0 and a_value == 0.0:
        underflow.append("a")
    if inputs.v_bound > 0.0 and b_value == 0.0:
        underflow.append("b")

    return BoundReport(
        inputs=inputs,
        a_value=a_value,
        b_value=b_value,
        combined=combined,
        winner=winner,
        sigma_star=sigma_star,
        sigma_search=search,
        variant=variant,
        underflow=tuple(underflow),
    )


# ---------------------------------------------------------------------------
# partial-interpolant magnitude bound and the recursion built on it


def _m_core(
    radii: tuple[float, ...], degrees: tuple[int, ...], epsilon: float
) -> tuple[float, float]:
    """(value, log) of M at V=1: 2^D (sum x_i + 1 - prod (1 - x_i)) / prod (1 - s/rho_i).

    ``x_i = (s/rho_i)^(N_i+1)``.  Every step is symmetric in the axes (fsum,
    max, and a product over sorted radii), so permuting the axes gives the
    same double.
    """
    d = len(radii)
    s = 1.0 + epsilon
    if s >= min(radii):
        raise ValueError(
            f"1 + epsilon = {s} must stay below every radius (min is {min(radii)})"
        )
    x_logs = [(n + 1) * (math.log(s) - math.log(r)) for r, n in zip(radii, degrees)]
    top = max(x_logs)
    if top >= _DIRECT_LOG:
        x_vals = [
            (s / r) ** (n + 1) if lg >= _POWER_LOG else math.exp(lg)
            for r, n, lg in zip(radii, degrees, x_logs)
        ]
        # the sum over nonzero masks; at least max x_i, so it cannot underflow
        union = -math.expm1(math.fsum(math.log1p(-x) for x in x_vals))
        numer = math.fsum([*x_vals, union])
        log_numer = math.log(numer)
    else:
        # every x_i is below exp(_DIRECT_LOG): pair products are below
        # exp(2 * _DIRECT_LOG), so the mask sum equals sum x_i in doubles
        # and the numerator is 2 sum x_i
        log_numer = _LN2 + top + math.log(math.fsum(math.exp(lg - top) for lg in x_logs))
        numer = math.exp(log_numer)

    log_denom = math.fsum(math.log1p(-s / r) for r in radii)
    log_m = d * _LN2 + log_numer - log_denom
    if log_numer >= _DIRECT_LOG and log_m >= _DIRECT_LOG:
        denom = 1.0
        for r in sorted(radii):
            denom *= 1.0 - s / r
        if denom >= _TINY:  # the running product never left the normal range
            try:
                return math.ldexp(numer / denom, d), log_m
            except OverflowError:  # past the largest double: the log form says how far
                pass
    return _exp(log_m), log_m


def m_upper_bound(inputs: BoundInputs, params: MParams | None = None) -> float:
    """Magnitude bound for the interpolant on a slightly larger ellipse.

    Bounds ``max |I(f)|`` over the ellipse with radii scaled by
    ``1 + params.epsilon``, given ``max |f| <= V`` on the original one.
    Strictly decreasing in each radius and each degree; at
    ``epsilon = 0``, D = 1, rho = 2 it collapses to ``V * 2^(2-N)``.

    The numerator's sum over the ``2^D`` nonzero axis masks of
    ``prod_{mask} x_i prod_{rest} (1 - x_i)``, with
    ``x_i = ((1 + epsilon)/rho_i)^(N_i+1)``, telescopes to
    ``1 - prod_i (1 - x_i)``, so the cost is O(D) and any dimension is
    accepted.  The result depends on the set of axes only: permuting them
    gives the same double.
    """
    params = params or MParams()
    core, core_log = _m_core(inputs.radii.values, inputs.budget.degrees, params.epsilon)
    return _finish(core, core_log, inputs.v_bound)


def _recursive_evaluator(
    radii: tuple[float, ...],
    degrees: tuple[int, ...],
    epsilon: float,
    factors: _Factors | None = None,
):
    """evaluate(sigma) -> (value, log) of the recursive bound at V=1 in order sigma.

    The univariate cores come from ``factors`` (a fresh table if none is
    given), and M from its memo, once per set of leading axes and their
    degrees, on first use: the last axis of an order is never a leading
    axis, so only it may have ``rho <= 1 + epsilon``.  Level ``k`` depends
    on the set of the first ``k`` axes and on the axis at position ``k``, so
    like :func:`_bound_a_evaluator` each call keeps the previous order's
    levels and recomputes them only from the first position where ``sigma``
    differs, with the same float operations as a fresh evaluation.
    """
    d = len(radii)
    factors = factors or _Factors(radii)
    tails = [factors.tail(i, n) for i, n in enumerate(degrees)]
    m_by_set: dict[int, tuple[float, float]] = {}
    # the d univariate cores, in axis order, then level k at d + k - 1
    values = [t[0] for t in tails] + [0.0] * (d - 1)
    logs = [t[1] for t in tails] + [0.0] * (d - 1)
    leading = [0] * d  # bit set of the axes before level k
    previous = (-1,) * d

    def evaluate(sigma: tuple[int, ...]) -> tuple[float, float]:
        nonlocal previous
        start = 0
        while start < d and sigma[start] == previous[start]:
            start += 1
        previous = sigma
        for k in range(start or 1, d):
            mask = leading[k] = leading[k - 1] | 1 << sigma[k - 1]
            m = m_by_set.get(mask)
            if m is None:
                m = m_by_set[mask] = factors.m(
                    mask, tuple(n for i, n in enumerate(degrees) if mask >> i & 1), epsilon
                )
            m_value, m_log = m
            u_value, u_log, _ = tails[sigma[k]]
            log_value = m_log + u_log
            if m_log >= _POWER_LOG and u_log >= _POWER_LOG and log_value >= _POWER_LOG:
                value = m_value * u_value
            else:
                value = _exp(log_value)
            values[d + k - 1] = value
            logs[d + k - 1] = log_value
        return _sum_terms(values, logs)

    return evaluate


def recursive_bound_B(inputs: BoundInputs, params: MParams | None = None) -> float:
    """Sharpened telescoping bound in the given axis order.

    Each level multiplies the univariate tail of the new axis by the
    explicit magnitude bound of the partial interpolant over the axes
    already handled, instead of the closed-form growth factor; level for
    level that replacement is smaller, so with matching orders this never
    exceeds :func:`bound_a_for_sigma`.
    """
    params = params or MParams()
    evaluate = _recursive_evaluator(
        inputs.radii.values, inputs.budget.degrees, params.epsilon
    )
    core, core_log = evaluate(tuple(range(inputs.dimension)))
    return _finish(core, core_log, inputs.v_bound)


def recursive_bound_B_min(
    inputs: BoundInputs, params: MParams | None = None
) -> tuple[float, tuple[int, ...], str]:
    """:func:`recursive_bound_B` minimised over the axis order.

    Same return convention and search strategy as :func:`bound_a`.
    """
    params = params or MParams()
    radii = inputs.radii.values
    degrees = inputs.budget.degrees
    (core, core_log), sigma_star, search = _minimise_over_orders(
        _recursive_evaluator(radii, degrees, params.epsilon), radii, degrees
    )
    return _finish(core, core_log, inputs.v_bound), sigma_star, search


# ---------------------------------------------------------------------------
# A-vs-B crossover scan


class ScanRecord(Record):
    """One point of the equal-radii A-vs-B scan.

    ``winner`` is "A", "B", "TIE", or "CROSSOVER" for a bisected final record.
    """

    __slots__ = ("rho", "a", "b", "winner")


def _scan_point(rho: float, n: int, d: int, v: float) -> tuple[float, float]:
    inputs = BoundInputs(
        EllipseRadii((rho,) * d), NodeBudget((n,) * d), v
    )
    # all radii and all degrees are equal, so every order has the same terms
    # in the same positions and the minimum over orders is this value bit
    # for bit; past 8 axes the pairwise-swap search returns it too, because
    # no swap is strictly better
    return bound_a_for_sigma(inputs, range(d)), bound_b(inputs)


def crossover_scan(
    n: int,
    d: int,
    rho_lo: float,
    rho_hi: float,
    steps: int = 200,
    v_bound: float = 1.0,
) -> list[ScanRecord]:
    """A and B on a log-uniform equal-radii grid, plus bisected crossovers.

    Scans ``rho`` over ``steps`` log-spaced points with all radii equal and
    the budget ``(n, ..., n)``.  A is evaluated in the identity order only:
    with equal radii and degrees every order gives the same value, so this
    is :func:`bound_a`'s minimum without the search.  Wherever the winner
    flips between consecutive grid points, bisects ``a - b`` to within 1e-6
    in rho and appends the crossing as a final record tagged
    ``winner="CROSSOVER"``.
    """
    if not (1.0 < rho_lo < rho_hi and math.isfinite(rho_hi)):
        raise ValueError(f"need finite 1 < rho_lo < rho_hi, got {rho_lo}, {rho_hi}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    steps = int(steps)
    # the exponents are numpy.linspace(start, stop, steps) bit for bit:
    # i * step + start, with the last one exactly stop
    start, stop = math.log(rho_lo), math.log(rho_hi)
    step = (stop - start) / (steps - 1)
    grid = [math.exp(i * step + start) for i in range(steps - 1)]
    grid.append(math.exp(stop))
    records = []
    for rho in grid:
        a, b = _scan_point(rho, n, d, v_bound)
        records.append(ScanRecord(rho, a, b, _winner_tag(a, b)))

    crossings = []
    for left, right in zip(records[:-1], records[1:]):
        s_left = left.a - left.b
        s_right = right.a - right.b
        if s_left == 0.0 or s_right == 0.0 or (s_left < 0) == (s_right < 0):
            continue
        lo, hi = left.rho, right.rho
        f_lo = s_left
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2.0
            a_mid, b_mid = _scan_point(mid, n, d, v_bound)
            s_mid = a_mid - b_mid
            if s_mid == 0.0:
                lo = hi = mid
                break
            if (s_mid < 0) == (f_lo < 0):
                lo = mid
                f_lo = s_mid
            else:
                hi = mid
        root = (lo + hi) / 2.0
        a_root, b_root = _scan_point(root, n, d, v_bound)
        crossings.append(ScanRecord(root, a_root, b_root, "CROSSOVER"))
    return records + crossings


SCAN_CSV_HEADER = "rho,a,b,winner"


def scan_to_csv(records: Sequence[ScanRecord]) -> str:
    """Figure-style sweep data: columns rho, a, b, winner."""
    return jsonio.csv_text(SCAN_CSV_HEADER.split(","), [r._asdict() for r in records])


#: published values of bounds a and b for the worked inputs, keyed by
#: (radii, budget, V); our computed values differ (see the reproduction
#: report), so these are recorded targets, never assertions
PUBLISHED_BOUNDS = {
    ((2.3, 1.8), (10, 10), 1.0): {"a": 0.0066, "b": 0.0018},
    ((2.3, 2.5), (10, 10), 1.0): {"a": 0.0011, "b": 0.0017},
}
