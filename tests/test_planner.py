"""Tests for the node-budget planner."""

import collections
import itertools
import math
import random

import pytest

from chebbound import bounds, planner
from chebbound.bounds import (
    _DIRECT_LOG,
    _TINY,
    _finish,
    _sum_terms,
    _tail,
    _univ_core,
    BoundInputs,
    bound_a,
    bound_b,
    bound_combined,
    bound_univariate,
    recursive_bound_B_min,
)
from chebbound.ellipse import EllipseRadii
from chebbound.interpolation import NodeBudget
from chebbound.planner import (
    _FLOOR_SLACK,
    _SELECTOR_CORES,
    _make_feasible,
    MAX_AXIS_ORDER,
    PLAN_SELECTORS,
    PlanRequest,
    compare_plans,
    invert_univariate,
    plan_nodes,
)


#: the six d=4 problems of the benchmark's plan workload
D4_PROBLEMS = (
    ((2.39, 3.06, 3.64, 4.91), 1e-4),
    ((4.14, 2.43, 4.07, 2.67), 2e-5),
    ((2.15, 1.85, 1.98, 4.71), 1e-7),
    ((1.95, 2.0, 2.03, 1.89), 2e-8),
    ((2.67, 3.07, 1.73, 3.47), 8e-10),
    ((4.01, 1.84, 3.69, 2.34), 1e-12),
)


def selector_value(selector, rho, n, v):
    inputs = BoundInputs(EllipseRadii(rho), NodeBudget(n), v)
    if selector == "A":
        return bound_a(inputs)[0]
    if selector == "B":
        return bound_b(inputs)
    if selector == "COMBINED":
        return bound_combined(inputs).combined
    return recursive_bound_B_min(inputs)[0]


def brute_force(selector, rho, v, eps, cap):
    """Smallest (grid, budget) over the box N_i <= cap, or None."""
    d = len(rho)
    best = None
    for budget in itertools.product(range(cap + 1), repeat=d):
        if selector_value(selector, rho, budget, v) <= eps:
            points = 1
            for n in budget:
                points *= n + 1
            key = (points, budget)
            if best is None or key < best:
                best = key
    return best


class TestInvertUnivariate:
    def test_trivial_target(self):
        # 4 * 1 / (2 - 1) = 4 <= 4 already at N = 0
        assert invert_univariate(2.0, 1.0, 4.0) == 0

    def test_reference_value(self):
        # need 4 * 2^-n < 1e-3: n = 12 is the first order that works
        assert invert_univariate(2.0, 1.0, 1e-3) == 12

    def test_minimality(self):
        for rho, v, eps in [(1.3, 2.0, 1e-6), (5.0, 0.5, 1e-10), (1.05, 1.0, 1e-2)]:
            m = invert_univariate(rho, v, eps)
            assert bound_univariate(rho, m, v) <= eps
            if m > 0:
                assert bound_univariate(rho, m - 1, v) > eps

    def test_unreachable_target(self):
        cases = [
            (1.0 + 1e-9, 1e-300),
            # first met one degree past the cap
            (1.00001, bound_univariate(1.00001, 1_000_001, 1.0)),
        ]
        for rho, eps in cases:
            with pytest.raises(ValueError, match="needs more than 1000000 nodes"):
                invert_univariate(rho, 1.0, eps)

    def test_subnormal_target_rejected(self):
        """Bounds below the smallest normal report 0.0, so such targets cannot be met honestly."""
        for rho, eps in [(2.0, 1e-310), (1.0 + 1e-9, 5e-324)]:
            with pytest.raises(ValueError, match="smallest normal double 2.2250738585072014e-308"):
                invert_univariate(rho, 1.0, eps)
        # the smallest normal itself is a valid target
        n = invert_univariate(2.0, 1.0, _TINY)
        assert 4.0 * 2.0**-n <= _TINY < bound_univariate(2.0, n - 1, 1.0)


class TestPlanNodes:
    def test_worked_two_dim_case(self):
        """rho=(2.95, 9.8), eps=2e-4: each selector has a known optimum."""
        radii = EllipseRadii((2.95, 9.8))
        expected = {
            "A": ((9, 5), 60),
            "B": ((10, 5), 66),
            "COMBINED": ((9, 5), 60),
            "RECURSIVE": ((9, 4), 50),
        }
        for selector, (budget, points) in expected.items():
            plan = plan_nodes(PlanRequest(radii, 1.0, 2e-4, selector))
            assert plan.budget.degrees == budget
            assert plan.grid_points == points
            assert plan.certified_bound <= 2e-4

    def test_certified_bound_is_reevaluated(self):
        plan = plan_nodes(PlanRequest(EllipseRadii((2.95, 9.8)), 1.0, 2e-4, "B"))
        direct = bound_b(
            BoundInputs(EllipseRadii((2.95, 9.8)), plan.budget, 1.0)
        )
        assert plan.certified_bound == direct

    def test_loose_target_gives_single_node(self):
        plan = plan_nodes(PlanRequest(EllipseRadii((2.0,)), 1.0, 4.0, "A"))
        assert plan.budget.degrees == (0,)
        assert plan.grid_points == 1

    def test_univariate_matches_inverse(self):
        for selector in ("A", "RECURSIVE"):
            plan = plan_nodes(PlanRequest(EllipseRadii((1.7,)), 2.0, 1e-8, selector))
            assert plan.budget.degrees == (invert_univariate(1.7, 2.0, 1e-8),)

    def test_brute_force_two_dim(self):
        cases = [
            ((1.6, 2.8), 1.0, 1e-5),
            ((1.3, 1.3), 3.0, 1e-4),
            ((4.0, 1.9), 0.5, 1e-7),
        ]
        cap = 40
        for rho, v, eps in cases:
            for selector in PLAN_SELECTORS:
                plan = plan_nodes(PlanRequest(EllipseRadii(rho), v, eps, selector))
                expected = brute_force(selector, rho, v, eps, cap=cap)
                if all(n <= cap for n in plan.budget.degrees):
                    assert (plan.grid_points, plan.budget.degrees) == expected
                else:
                    # optimum lies outside the box: nothing in it can beat the plan
                    assert expected is None or expected[0] >= plan.grid_points

    def test_symmetric_radii_take_lexicographic_minimum(self):
        """With equal radii every permuted budget certifies the same bound."""
        rho = (2.0, 2.0)
        plan = plan_nodes(PlanRequest(EllipseRadii(rho), 1.0, 1e-6, "COMBINED"))
        expected = brute_force("COMBINED", rho, 1.0, 1e-6, cap=40)
        assert (plan.grid_points, plan.budget.degrees) == expected
        # lexicographic tie-break is part of the contract
        assert list(plan.budget.degrees) == sorted(plan.budget.degrees)

    def test_three_dim_recursive(self):
        plan = plan_nodes(
            PlanRequest(EllipseRadii((1.5, 2.0, 3.0)), 1.0, 1e-3, "RECURSIVE")
        )
        assert plan.certified_bound <= 1e-3
        expected = brute_force("RECURSIVE", (1.5, 2.0, 3.0), 1.0, 1e-3, cap=30)
        assert all(n <= 30 for n in plan.budget.degrees)
        assert (plan.grid_points, plan.budget.degrees) == expected

    @pytest.mark.parametrize(
        "rho, eps, budget",
        [
            ((2.0, 2.5, 3.0, 3.5, 4.0, 4.5), 1e-8, (32, 23, 19, 16, 15, 14)),
            ((2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0), 1e-8, (31, 23, 19, 17, 15, 14, 13)),
            # radii near 1: most orders of a failing search have bounds far above eps
            ((1.05, 1.1, 1.2, 1.3), 1e-3, (265, 126, 62, 41)),
        ],
        ids=["d6", "d7", "d4-near-1"],
    )
    def test_recursive_in_high_dimension(self, rho, eps, budget):
        """The plan, and no axis of it can drop a degree."""
        plan = plan_nodes(PlanRequest(EllipseRadii(rho), 1.0, eps, "RECURSIVE"))
        assert plan.budget.degrees == budget
        for axis in range(len(rho)):
            lowered = list(budget)
            lowered[axis] -= 1
            assert selector_value("RECURSIVE", rho, lowered, 1.0) > eps

    def test_bound_is_infeasible_below_optimum(self):
        """Shrinking any axis of the returned budget must break certification."""
        request = PlanRequest(EllipseRadii((1.6, 2.8)), 1.0, 1e-5, "COMBINED")
        plan = plan_nodes(request)
        n = plan.budget.degrees
        # not every axis can shrink, but the budget as a whole is minimal:
        # any budget with the same or smaller grid that certifies equals it
        for smaller in itertools.product(*(range(k + 1) for k in n)):
            points = 1
            for k in smaller:
                points *= k + 1
            if points >= plan.grid_points or smaller == n:
                continue
            assert selector_value("COMBINED", (1.6, 2.8), smaller, 1.0) > 1e-5


    def test_combined_takes_b_limit_when_univariate_is_unreachable(self):
        """A alone needs more than the cap along the axis; B does not."""
        radii = EllipseRadii((1.00001,))
        combined = plan_nodes(PlanRequest(radii, 1.0, 0.1, "COMBINED"))
        assert combined.budget.degrees == (875225,)
        assert combined.budget == plan_nodes(PlanRequest(radii, 1.0, 0.1, "B")).budget

    @pytest.mark.parametrize("selector", ["B", "COMBINED"])
    @pytest.mark.parametrize(
        "rho, v, eps",
        [((1.00002, 1.00002), 1e-3, 1.0), ((1.0001, 1.0002), 1.0, 1e-2)],
    )
    def test_near_the_cap(self, selector, rho, v, eps):
        """Lower limits of 10^4..10^5 per axis: the plan certifies and is minimal per axis."""
        plan = plan_nodes(PlanRequest(EllipseRadii(rho), v, eps, selector))
        assert plan.certified_bound == selector_value(selector, rho, plan.budget.degrees, v)
        assert plan.certified_bound <= eps
        for axis in range(len(rho)):
            lowered = list(plan.budget.degrees)
            lowered[axis] -= 1
            assert selector_value(selector, rho, lowered, v) > eps

    #: a target whose smallest grid overall has N_0 = 1003579, above the ceiling
    OVER_CEILING = ((1.00002, 3.0), 1.0, 1.4108985713868176e-06)

    @pytest.mark.parametrize("selector", ["B", "COMBINED"])
    def test_plans_stay_within_the_ceiling(self, selector):
        """The plan is the smallest grid among budgets with every degree <= 10^6."""
        rho, v, eps = self.OVER_CEILING
        plan = plan_nodes(PlanRequest(EllipseRadii(rho), v, eps, selector))
        assert max(plan.budget.degrees) <= MAX_AXIS_ORDER

        def least_n0(n1):  # by bisection; None when no N_0 within the ceiling certifies
            lo, hi = 0, MAX_AXIS_ORDER
            if selector_value(selector, rho, (hi, n1), v) > eps:
                return None
            while lo < hi:
                mid = (lo + hi) // 2
                if selector_value(selector, rho, (mid, n1), v) <= eps:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        # every budget with N_1 > n1_top has more points than the plan
        n1_top = plan.grid_points // (least_n0(MAX_AXIS_ORDER) + 1)
        expected = min(
            ((n0 + 1) * (n1 + 1), (n0, n1))
            for n1 in range(n1_top + 1)
            if (n0 := least_n0(n1)) is not None
        )
        assert (plan.grid_points, plan.budget.degrees) == expected == (20988891, (999470, 20))
        assert plan.certified_bound == selector_value(selector, rho, plan.budget.degrees, v)
        assert plan.certified_bound <= eps
        for axis in range(len(rho)):
            lowered = list(plan.budget.degrees)
            lowered[axis] -= 1
            assert selector_value(selector, rho, lowered, v) > eps


class TestComparePlans:
    def test_all_selectors_present(self):
        comparison = compare_plans(EllipseRadii((2.95, 9.8)), 1.0, 2e-4)
        assert set(comparison.plans) == set(PLAN_SELECTORS)
        assert comparison.savings_vs_b["B"] == 0.0
        assert comparison.savings_vs_b["COMBINED"] > 0.0
        assert comparison.plans["COMBINED"].grid_points < comparison.plans["B"].grid_points

    def test_combined_never_worse(self):
        for rho, eps in [((1.5, 1.5), 1e-3), ((3.0, 1.2), 1e-6), ((2.0,), 1e-9)]:
            comparison = compare_plans(EllipseRadii(rho), 1.0, eps)
            combined = comparison.plans["COMBINED"].grid_points
            assert combined <= comparison.plans["A"].grid_points
            assert combined <= comparison.plans["B"].grid_points

    @pytest.mark.parametrize(
        "rho, eps", [*D4_PROBLEMS, ((2.95, 9.8), 2e-4)]
    )
    def test_combined_is_the_better_of_a_and_b(self, rho, eps):
        """The smaller grid, ties to the lexicographically smaller budget."""
        plans = compare_plans(EllipseRadii(rho), 1.0, eps).plans
        key = {sel: (plans[sel].grid_points, plans[sel].budget.degrees) for sel in plans}
        assert key["COMBINED"] == min(key["A"], key["B"])

    def test_a_selector_that_cannot_plan_is_named(self):
        rho, v, eps = TestPlanNodes.OVER_CEILING  # B plans it; A's lower limit is past the ceiling
        with pytest.raises(ValueError) as info:
            compare_plans(EllipseRadii(rho), v, eps)
        assert str(info.value) == f"selector A: target {eps} needs more than 1000000 nodes along axis 0"

    def test_json_document(self):
        comparison = compare_plans(EllipseRadii((2.0, 2.0)), 1.0, 1e-4)
        doc = comparison.to_json_dict()
        assert set(doc) == {"plans", "savings_vs_b"}
        assert doc["plans"]["A"]["selector"] == "A"
        assert doc["plans"]["B"]["budget"] == list(
            comparison.plans["B"].budget.degrees
        )


class TestValidation:
    def test_nonpositive_target(self):
        with pytest.raises(ValueError, match="target"):
            PlanRequest(EllipseRadii((2.0,)), 1.0, 0.0, "A")

    def test_subnormal_target(self):
        with pytest.raises(ValueError, match="smallest normal double 2.2250738585072014e-308"):
            PlanRequest(EllipseRadii((2.0, 2.0)), 1.0, 1e-310, "COMBINED")
        plan = plan_nodes(PlanRequest(EllipseRadii((2.0, 2.0)), 1.0, _TINY, "COMBINED"))
        assert plan.certified_bound <= _TINY
        for axis in range(2):
            lowered = list(plan.budget.degrees)
            lowered[axis] -= 1
            assert selector_value("COMBINED", (2.0, 2.0), lowered, 1.0) > _TINY

    def test_nonpositive_v(self):
        with pytest.raises(ValueError, match="magnitude"):
            PlanRequest(EllipseRadii((2.0,)), 0.0, 1e-3, "A")

    def test_unknown_selector(self):
        with pytest.raises(ValueError, match="selector"):
            PlanRequest(EllipseRadii((2.0,)), 1.0, 1e-3, "best")

    @pytest.mark.parametrize("selector", PLAN_SELECTORS)
    def test_unreachable_lower_limit(self, selector):
        cases = [((2.0, 1.0000001), 1e-3, 1)]
        if selector in ("A", "RECURSIVE"):  # B and COMBINED plan it within the ceiling
            rho, _, eps = TestPlanNodes.OVER_CEILING
            cases.append((rho, eps, 0))
        for rho, eps, axis in cases:
            request = PlanRequest(EllipseRadii(rho), 1.0, eps, selector)
            with pytest.raises(ValueError) as info:
                plan_nodes(request)
            assert str(info.value) == f"target {eps} needs more than 1000000 nodes along axis {axis}"

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension"):
            PlanRequest(EllipseRadii((2.0,) * 13), 1.0, 1e-3, "B")


def unscreened_bound(selector, radii, degrees, v):
    """The selected bound through its cores alone, COMBINED as min(A, B)."""
    keys = ("A", "B") if selector == "COMBINED" else (selector,)
    return min(_finish(*_SELECTOR_CORES[key](radii, degrees), v) for key in keys)


class TestFeasibility:
    @staticmethod
    def count_core_calls(monkeypatch):
        counts = collections.Counter()
        for key, core in dict(_SELECTOR_CORES).items():

            def counted(radii, degrees, *stop, key=key, core=core):
                counts[key] += 1
                return core(radii, degrees, *stop)

            monkeypatch.setitem(_SELECTOR_CORES, key, counted)
        return counts

    @staticmethod
    def count_orders(monkeypatch):
        """Count the orders each A and recursive evaluator is asked for.

        The factories are patched in ``bounds`` and in ``planner``, where the
        planner's cores look them up.
        """
        counts = collections.Counter()
        for key, name in (("A", "_bound_a_evaluator"), ("RECURSIVE", "_recursive_evaluator")):
            make = getattr(bounds, name)

            def counted(*args, key=key, make=make):
                evaluate = make(*args)

                def counted_evaluate(sigma):
                    counts[key] += 1
                    return evaluate(sigma)

                return counted_evaluate

            for module in (bounds, planner):
                monkeypatch.setattr(module, name, counted)
        return counts

    @staticmethod
    def count_skips(monkeypatch):
        """Count the searches the chain-sum screen reads and the orders it skips."""
        counts = collections.Counter()
        screen = bounds._chain_screen

        def counted(orders, *chain):
            counts["screened"] += 1

            def pulled(orders):
                for sigma in orders:
                    counts["skipped"] += 1
                    yield sigma

            for sigma in screen(pulled(orders), *chain):
                counts["skipped"] -= 1
                yield sigma

        monkeypatch.setattr(bounds, "_chain_screen", counted)
        return counts

    @staticmethod
    def cases(rng):
        """(radii, degrees, V): random draws, then the edges of the early exit."""
        for d, count in ((1, 12), (2, 12), (3, 10), (4, 8), (5, 4), (6, 3), (7, 2)):
            for _ in range(count):
                radii = tuple(math.exp(rng.uniform(math.log(1.05), math.log(6.0))) for _ in range(d))
                # about half the degrees put their tail past the direct-sum threshold
                degrees = tuple(
                    rng.randint(0, 60) if rng.random() < 0.5 else int(rng.uniform(600.0, 760.0) / math.log(r))
                    for r in radii
                )
                # V in [1e-3, 1e300]; half the draws below 10
                v = 10.0 ** rng.choice((rng.uniform(-3.0, 1.0), rng.uniform(1.0, 300.0)))
                yield radii, degrees, v
        # equal radii and degrees: every order ties
        for d in (2, 3, 4, 5):
            for n in (3, 12, 1030):
                yield (2.0,) * d, (n,) * d, 1.0
        # every order's core is below the smallest normal double, and times V above it
        for radii in ((1.5, 2.0, 3.0), (1.2, 4.0), (1.3, 1.7, 2.2, 5.0)):
            degrees = tuple(math.ceil(738.0 / math.log(r)) for r in radii)
            for key in ("A", "RECURSIVE"):
                core, core_log = _SELECTOR_CORES[key](radii, degrees)
                assert core < _TINY <= _finish(core, core_log, 1e300)
            yield radii, degrees, 1e300

    def test_matches_unscreened_decision(self, monkeypatch):
        """B first, the first-sum screen, the early exit and the chain-sum screen
        never change a decision, on either summation path."""
        rng = random.Random(20261019)
        counts = self.count_core_calls(monkeypatch)
        orders = self.count_orders(monkeypatch)
        skips = self.count_skips(monkeypatch)
        searched = stopped = decided = stood_down = 0
        for radii, degrees, v in self.cases(rng):
            cores = [_univ_core(r, n) for r, n in zip(radii, degrees)]
            first_sum = _finish(*_sum_terms([c[0] for c in cores], [c[1] for c in cores]), v)
            # the chain-sum screen reads only direct tails summed directly
            log_path = max(c[1] for c in cores) < _DIRECT_LOG or not all(
                _tail(r, n, r)[2] for r, n in zip(radii, degrees)
            )
            for selector in ("A", "COMBINED", "RECURSIVE"):
                bound = unscreened_bound(selector, radii, degrees, v)
                # the selected order search's minimum, finished
                searched_key = "A" if selector == "COMBINED" else selector
                winning = _finish(*_SELECTOR_CORES[searched_key](radii, degrees), v)
                targets = {
                    bound,
                    math.nextafter(bound, 0.0),
                    first_sum,
                    math.nextafter(first_sum, 0.0),
                    first_sum * (1.0 + 1e-10),
                    first_sum * 0.5,
                    winning * (1.0 + 1e-9),
                    winning * (1.0 - 1e-9),
                    10.0 ** rng.uniform(-308.0, 1.0),
                    # the least minimum just inside and just outside the chain-sum margin
                    winning / (1.0 + _FLOOR_SLACK) * (1.0 + 1e-12),
                    winning / (1.0 + _FLOOR_SLACK) * (1.0 - 1e-12),
                }
                for eps in sorted(min(max(t, _TINY), 10.0) for t in targets):
                    before = counts["A"] + counts["RECURSIVE"]
                    screened, skipped = skips["screened"], skips["skipped"]
                    orders.clear()
                    got = _make_feasible(selector, radii, v, eps)(degrees)
                    if counts["A"] + counts["RECURSIVE"] > before:
                        searched += 1
                        visited = sum(orders.values()) + skips["skipped"] - skipped
                        stopped += visited < math.factorial(len(radii))
                        if log_path:
                            assert skips["screened"] == screened, (selector, radii, degrees, v, eps)
                            stood_down += 1
                    decided += 1
                    assert got == (bound <= eps), (selector, radii, degrees, v, eps)
        # the screens, a full order search and an early exit each decided some tests
        assert 0 < stopped < searched < decided
        # the chain-sum screen skipped orders, and stood down on the log path
        assert skips["screened"] > 0 and skips["skipped"] > 0 and stood_down > 0

    def test_order_searches_on_d4_problems(self, monkeypatch):
        """Deterministic counts: B settles passing tests, the first sum failing ones,
        a search ends at its first certifying order, and the chain-sum screen
        skips most orders of the failing A searches and reads no recursive one."""
        searches = self.count_core_calls(monkeypatch)
        orders = self.count_orders(monkeypatch)
        skips = self.count_skips(monkeypatch)
        totals = {}
        for selector in ("COMBINED", "RECURSIVE"):
            searches.clear()
            orders.clear()
            skips.clear()
            for rho, eps in D4_PROBLEMS:
                plan_nodes(PlanRequest(EllipseRadii(rho), 1.0, eps, selector))
            totals[selector] = (dict(searches), dict(orders), skips["screened"], skips["skipped"])
        # the orders include the full searches of the six re-certifications;
        # evaluated and skipped A orders add up to the 42122 an unscreened plan evaluates
        assert totals == {
            "COMBINED": ({"A": 2267, "B": 3077}, {"A": 2705}, 2267, 39417),
            "RECURSIVE": ({"RECURSIVE": 275}, {"RECURSIVE": 419}, 0, 0),
        }


class TestFactorTables:
    """One factor table per plan: shared by its tests, never between plans."""

    def test_plans_in_a_row_equal_fresh_plans(self, monkeypatch):
        """Plans run one after another equal plans whose every test builds its factors afresh."""
        requests = [
            PlanRequest(EllipseRadii(rho), 1.0, eps, selector)
            for rho, eps in D4_PROBLEMS[:4]
            for selector in ("COMBINED", "RECURSIVE")
        ]
        in_a_row = [plan_nodes(r) for r in requests + requests[::-1]]

        class Unmemoised(bounds._Factors):
            def tail(self, axis, n):
                return bounds._tail(self.radii[axis], n, self.radii[axis])

            def m(self, mask, degrees, epsilon):
                radii = tuple(r for i, r in enumerate(self.radii) if mask >> i & 1)
                return bounds._m_core(radii, degrees, epsilon)

        monkeypatch.setattr(planner, "_Factors", Unmemoised)
        fresh = [plan_nodes(r) for r in requests]
        assert in_a_row == fresh + fresh[::-1]

    def test_m_once_per_set_and_degrees_in_a_d8_plan(self, monkeypatch):
        """Deterministic count: M is computed once per set of leading axes and
        their degrees in the plan, and once per set in the re-certification."""
        calls = collections.Counter()
        m_core = bounds._m_core

        def counted(radii, degrees, epsilon):
            calls[radii, degrees] += 1
            return m_core(radii, degrees, epsilon)

        monkeypatch.setattr(bounds, "_m_core", counted)
        rho = tuple(2.0 + 0.5 * i for i in range(8))
        plan = plan_nodes(PlanRequest(EllipseRadii(rho), 1.0, 1e-8, "RECURSIVE"))
        assert plan.budget.degrees == (32, 23, 19, 17, 15, 14, 13, 12)
        assert sum(calls.values()) == 36229
        assert max(calls.values()) == 2


class TestChainScreen:
    """Up to 8 axes a failing A test skips the orders whose chain sum misses the target."""

    @staticmethod
    def without_chain(monkeypatch):
        """Search A with the stop but without the chain-sum screen."""
        core = _SELECTOR_CORES["A"]
        monkeypatch.setitem(
            _SELECTOR_CORES,
            "A",
            lambda radii, degrees, factors=None, stop=None, chain=None: core(radii, degrees, factors, stop),
        )

    def test_d5_to_d7_plans_equal_the_unscreened_search(self, monkeypatch):
        rng = random.Random(1)
        requests = []
        # wider radii and looser targets as d grows keep the test within seconds
        for d, low, high, eps_log in ((5, 2.0, 10.0, -6.0), (6, 100.0, 1e3, -3.5), (7, 1e3, 1e4, -3.5)):
            radii = tuple(math.exp(rng.uniform(math.log(low), math.log(high))) for _ in range(d))
            eps = 10.0 ** rng.uniform(eps_log - 0.5, eps_log + 0.5)
            requests += [PlanRequest(EllipseRadii(radii), 1.0, eps, s) for s in ("A", "COMBINED")]
        skips = TestFeasibility.count_skips(monkeypatch)
        screened = [plan_nodes(r) for r in requests]
        assert skips["skipped"] > 0
        self.without_chain(monkeypatch)
        for request, plan in zip(requests, screened):
            unscreened = plan_nodes(request)
            assert plan.budget == unscreened.budget, request
            assert plan.certified_bound.hex() == unscreened.certified_bound.hex(), request

    def test_set_table_only_for_exhaustive_searches(self, monkeypatch):
        """An A plan up to 8 axes builds its table of 2^d chain weights once; the
        90-axis public searches, 12-axis plans and RECURSIVE plans of 4 and 8
        axes never reach the screen."""
        built = []
        chain_weights = bounds._Factors.chain_weights

        def counted_chain(self):
            if self._chain is None:
                built.append(len(self.radii))
            return chain_weights(self)

        monkeypatch.setattr(bounds._Factors, "chain_weights", counted_chain)
        skips = TestFeasibility.count_skips(monkeypatch)
        inputs = BoundInputs(EllipseRadii((1.0001,) * 90), NodeBudget((0,) * 90), 1.0)
        bound_a(inputs)
        recursive_bound_B_min(inputs)
        # both 12-axis plans run order searches: A 510 of them, RECURSIVE 13
        for selector in ("A", "RECURSIVE"):
            plan_nodes(PlanRequest(EllipseRadii(tuple(1e3 * i for i in range(1, 13))), 1.0, 300.0, selector))
        plan_nodes(PlanRequest(EllipseRadii(D4_PROBLEMS[0][0]), 1.0, D4_PROBLEMS[0][1], "RECURSIVE"))
        plan_nodes(PlanRequest(EllipseRadii(tuple(2.0 + 0.5 * i for i in range(8))), 1.0, 1e-8, "RECURSIVE"))
        assert built == [] and skips["screened"] == 0
        plan_nodes(PlanRequest(EllipseRadii(D4_PROBLEMS[0][0]), 1.0, D4_PROBLEMS[0][1], "A"))
        assert built == [4] and skips["screened"] > 0


class TestStopPastEightAxes:
    """The pairwise-swap search (d > 8) ends at the first order that certifies."""

    @staticmethod
    def without_stop(monkeypatch):
        """Search as the public bounds do: neither the stop nor the chain-sum screen."""
        for key in ("A", "RECURSIVE"):
            core = _SELECTOR_CORES[key]
            monkeypatch.setitem(
                _SELECTOR_CORES,
                key,
                lambda radii, degrees, factors=None, *screens, core=core: core(radii, degrees, factors),
            )

    def test_matches_unscreened_decision(self):
        rng = random.Random(0xD9)
        for d in (9, 10) * 6:
            radii = tuple(math.exp(rng.uniform(math.log(1.2), math.log(8.0))) for _ in range(d))
            degrees = tuple(rng.randint(0, 30) for _ in radii)
            v = 10.0 ** rng.uniform(-2.0, 2.0)
            for selector in ("A", "COMBINED", "RECURSIVE"):
                bound = unscreened_bound(selector, radii, degrees, v)
                for eps in (bound, math.nextafter(bound, 0.0), bound * (1.0 + 1e-8), bound * 2.0):
                    eps = min(max(eps, _TINY), 10.0)
                    got = _make_feasible(selector, radii, v, eps)(degrees)
                    assert got == (bound <= eps), (selector, radii, degrees, v, eps)

    @pytest.mark.parametrize(
        "rho, eps",
        [
            ((12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0), 1e-4),
            ((9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0), 1e-8),
            ((20.0,) * 5 + (30.0,) * 4, 1e-6),
        ],
    )
    def test_d9_plans_equal_the_stop_free_search(self, rho, eps, monkeypatch):
        request = PlanRequest(EllipseRadii(rho), 1.0, eps, "RECURSIVE")
        plan = plan_nodes(request)
        self.without_stop(monkeypatch)
        assert plan_nodes(request) == plan
