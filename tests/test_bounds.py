"""Tests for the closed-form error bounds.

Expected values were generated by the independent 60-digit evaluator in
``highprec.py`` and frozen here as literals.
"""

import itertools
import math
import random
import sys

import pytest
from mpmath import mp, mpf

import highprec as hp
from chebbound.bounds import (
    _DIRECT_LOG,
    _LOG4,
    _POWER_LOG,
    BoundInputs,
    MParams,
    _bound_a_evaluator,
    _finish,
    _m_core,
    _minimise_over_orders,
    _recursive_evaluator,
    _sum_terms,
    _winner_tag,
    bound_a,
    bound_a_for_sigma,
    bound_b,
    bound_combined,
    bound_univariate,
    m_upper_bound,
    recursive_bound_B,
    recursive_bound_B_min,
)
from chebbound.ellipse import EllipseRadii
from chebbound.interpolation import NodeBudget


def make(rho, n, v=1.0):
    return BoundInputs(EllipseRadii(rho), NodeBudget(n), v)


def rel(x, y):
    if y == 0.0:
        return abs(x)
    return abs(x - y) / abs(y)


class TestFrozenValues:
    """Literals from the independent high-precision evaluator."""

    def test_univariate(self):
        assert bound_univariate(2.0, 10, 1.0) == 0.00390625

    def test_b_one_dim(self):
        assert rel(bound_b(make((2.0,), (10,))), 0.0031894397692489298) < 1e-13

    def test_example_one(self):
        inputs = make((2.3, 1.8), (10, 10))
        assert rel(bound_b(inputs), 0.015017225907659782) < 1e-13
        assert rel(bound_a_for_sigma(inputs, (0, 1)), 0.11385011143411253) < 1e-13
        assert rel(bound_a_for_sigma(inputs, (1, 0)), 0.021431194550049202) < 1e-13
        value, sigma, search = bound_a(inputs)
        assert rel(value, 0.021431194550049202) < 1e-13
        assert sigma == (1, 0)
        assert search == "EXHAUSTIVE"

    def test_example_two(self):
        inputs = make((2.3, 2.5), (10, 10))
        assert rel(bound_b(inputs), 0.0012754871592809490) < 1e-13
        assert rel(bound_a(inputs)[0], 0.0030012138909911836) < 1e-13
        assert rel(recursive_bound_B(inputs), 0.0010225704589001630) < 1e-13

    def test_three_dim(self):
        inputs = make((2.0, 3.0, 4.0), (3, 4, 5))
        assert rel(bound_b(inputs), 0.89880616185422576) < 1e-13
        assert rel(bound_a_for_sigma(inputs, (0, 1, 2)), 0.80164930555555556) < 1e-13
        assert rel(bound_a(inputs)[0], 0.80164930555555556) < 1e-13
        assert rel(recursive_bound_B(inputs), 0.54041682741769547) < 1e-13

    def test_m_values(self):
        assert rel(m_upper_bound(make((2.0,), (10,))), 0.00390625) < 1e-13
        assert rel(m_upper_bound(make((2.3,), (10,))), 0.00074274250637579890) < 1e-13
        assert rel(m_upper_bound(make((2.0, 3.0), (4, 5))), 0.78240740740740741) < 1e-13

    def test_m_with_epsilon(self):
        got = m_upper_bound(make((2.0,), (10,)), MParams(0.5))
        assert rel(got, 0.67576217651367188) < 1e-13
        got2 = m_upper_bound(make((1.5, 2.0), (3, 6), 2.0), MParams(0.25))
        assert rel(got2, 130.69397137488848) < 1e-13

    def test_recursive_with_epsilon(self):
        got = recursive_bound_B(make((1.5, 2.0), (3, 6), 2.0), MParams(0.25))
        assert rel(got, 6.3125) < 1e-13

    def test_variant_literal(self):
        """Variants coincide for the identity order and differ off it."""
        inputs = make((2.3, 1.8), (10, 10))
        same = bound_a_for_sigma(inputs, (0, 1), variant="literal")
        assert rel(same, 0.11385011143411253) < 1e-13
        swapped = bound_a_for_sigma(inputs, (1, 0), variant="literal")
        assert rel(swapped, 0.016509343429498996) < 1e-13
        asym = make((1.5, 3.0), (4, 12), 2.0)
        assert rel(bound_a_for_sigma(asym, (1, 0)), 22.123464316829149) < 1e-13
        assert rel(
            bound_a_for_sigma(asym, (1, 0), variant="literal"), 0.96826552712342480
        ) < 1e-13


class TestDimensionOneCollapse:
    def test_bitwise_identical(self):
        """In one dimension the telescoping and recursive bounds ARE the univariate bound."""
        cases = [(1.3, 0, 1.0), (2.0, 10, 1.0), (7.5, 33, 0.125), (49.0, 180, 3.0)]
        for rho, n, v in cases:
            u = bound_univariate(rho, n, v)
            inputs = make((rho,), (n,), v)
            assert bound_a_for_sigma(inputs, (0,)) == u
            assert bound_a(inputs)[0] == u
            assert recursive_bound_B(inputs) == u

    def test_deep_underflow_regime(self):
        inputs = make((40.0,), (190,), 1.0)
        u = bound_univariate(40.0, 190, 1.0)
        assert 0.0 < u < 1e-290
        assert bound_a_for_sigma(inputs, (0,)) == u
        assert recursive_bound_B(inputs) == u


class TestCombined:
    def test_winner_b(self):
        report = bound_combined(make((2.0,), (10,)))
        assert report.winner == "B"
        assert report.combined == report.b_value

    def test_winner_a_at_large_rho(self):
        report = bound_combined(make((15.0, 15.0), (10, 10)))
        assert report.winner == "A"
        assert report.combined == report.a_value

    def test_sigma_star_is_zero_based(self):
        report = bound_combined(make((2.3, 1.8), (10, 10)))
        assert report.sigma_star == (1, 0)
        assert report.to_json_dict()["sigma_star"] == [2, 1]

    def test_underflow_flags(self):
        report = bound_combined(make((50.0,), (200,)))
        assert report.combined == 0.0
        assert report.winner == "TIE"
        assert report.underflow == ("a", "b")

    def test_no_underflow_flag_for_zero_v(self):
        report = bound_combined(make((2.0,), (10,), 0.0))
        assert report.combined == 0.0
        assert report.underflow == ()

    def test_json_keys(self):
        doc = bound_combined(make((2.0, 3.0), (1, 2), 0.5)).to_json_dict()
        assert set(doc) == {
            "rho", "n", "v", "a", "b", "combined", "winner",
            "sigma_star", "sigma_search", "variant", "underflow",
        }


class TestOrderSearch:
    def test_exhaustive_up_to_eight_axes(self):
        inputs = make((1.5,) * 8, (3,) * 8)
        _, _, search = bound_a(inputs)
        assert search == "EXHAUSTIVE"

    def test_heuristic_beyond_eight_axes(self):
        import itertools
        import random

        radii = (1.4, 2.0, 1.7, 3.0, 2.5, 1.9, 4.0, 2.2, 1.6)
        inputs = make(radii, (3,) * 9)
        value, sigma, search = bound_a(inputs)
        assert search == "HEURISTIC"
        assert sorted(sigma) == list(range(9))
        # the heuristic must never lose to a handful of random orders
        rng = random.Random(11)
        for _ in range(20):
            order = list(range(9))
            rng.shuffle(order)
            assert value <= bound_a_for_sigma(inputs, tuple(order)) * (1 + 1e-12)

    def test_recursive_min_equals_recursive_at_sigma_star(self):
        """The memoised search reports exactly recursive_bound_B at its order."""
        rng = random.Random(0x5E)
        for d in range(2, 7):
            for _ in range(4):
                rho = tuple(rng.uniform(1.2, 12.0) for _ in range(d))
                n = tuple(rng.randint(0, 60) for _ in range(d))
                eps = rng.choice((0.0, 0.1 * (min(rho) - 1.0)))
                value, sigma, search = recursive_bound_B_min(
                    make(rho, n, 3.0), MParams(eps)
                )
                assert search == "EXHAUSTIVE"
                at_sigma = make(
                    tuple(rho[s] for s in sigma), tuple(n[s] for s in sigma), 3.0
                )
                assert value == recursive_bound_B(at_sigma, MParams(eps))
                if d <= 4:  # and it is the minimum over every order
                    with mp.workdps(hp.DPS):
                        best = min(
                            hp.recursive_bound_B(
                                [rho[s] for s in order], [n[s] for s in order], 3.0, eps
                            )
                            for order in itertools.permutations(range(d))
                        )
                        assert float(abs(mpf(value) - best) / best) <= 1e-12

    def test_recursive_min_beats_identity(self):
        inputs = make((2.3, 2.5), (10, 10))
        value, sigma, search = recursive_bound_B_min(inputs)
        assert value <= recursive_bound_B(inputs) * (1 + 1e-15)
        assert search == "EXHAUSTIVE"
        assert sorted(sigma) == [0, 1]


# Bound A and the recursive bound evaluated afresh for every order, term by
# term, and searched over every order: verbatim copies of the formulas before
# the evaluators reused prefix terms, and of the search before it skipped
# interchangeable axes.  The evaluators and the search must reproduce them bit
# for bit.


def _reference_sum_terms(terms):
    if len(terms) == 1:
        return terms[0]
    logs = [lg for _, lg in terms]
    top = max(logs)
    if top >= _DIRECT_LOG:
        value = math.fsum(v for v, _ in terms)
        return value, math.log(value)
    log_value = top + math.log(math.fsum(math.exp(lg - top) for lg in logs))
    return math.exp(log_value), log_value


def _reference_univ_core(rho, n):
    log_rho = math.log(rho)
    log_power = -n * log_rho
    log_value = _LOG4 + log_power - math.log(rho - 1.0)
    if log_power >= _POWER_LOG:
        return 4.0 * rho**-n / (rho - 1.0), log_value
    return math.exp(log_value), log_value


def _reference_a_sigma_core(radii, degrees, sigma, variant):
    d = len(radii)
    terms = []
    if variant == "consistent":
        for s in sigma:
            terms.append(_reference_univ_core(radii[s], degrees[s]))
    else:  # literal: keep the mixed indexing of the printed first sum
        for i in range(d):
            s = sigma[i]
            log_power = -degrees[i] * math.log(radii[s])
            log_value = _LOG4 + log_power - math.log(radii[i] - 1.0)
            if log_power >= _POWER_LOG:
                value = 4.0 * radii[s] ** -degrees[i] / (radii[i] - 1.0)
            else:
                value = math.exp(log_value)
            terms.append((value, log_value))

    denom = 1.0
    log_denom = 0.0
    for k in range(2, d + 1):
        j = sigma[k - 2]  # axis joining the already-peeled denominator
        denom *= 1.0 - 1.0 / radii[j]
        log_denom += math.log1p(-1.0 / radii[j])
        s = sigma[k - 1]
        n_exp = degrees[s] if variant == "consistent" else degrees[k - 1]
        growth = float(2 ** (k - 1) * ((k - 1) + 2 ** (k - 1) - 1))
        log_power = -n_exp * math.log(radii[s])
        log_value = (
            _LOG4 + log_power - math.log(radii[s] - 1.0) + math.log(growth) - log_denom
        )
        if log_power >= _POWER_LOG:
            value = 4.0 * radii[s] ** -n_exp / (radii[s] - 1.0) * growth / denom
        else:
            value = math.exp(log_value)
        terms.append((value, log_value))
    return _reference_sum_terms(terms)


def _reference_recursive_sigma_core(radii, degrees, sigma, epsilon):
    d = len(radii)
    terms = [_reference_univ_core(r, n) for r, n in zip(radii, degrees)]
    for k in range(1, d):
        axes = sorted(sigma[:k])
        m_value, m_log = _m_core(
            tuple(radii[i] for i in axes), tuple(degrees[i] for i in axes), epsilon
        )
        u_value, u_log = _reference_univ_core(radii[sigma[k]], degrees[sigma[k]])
        log_value = m_log + u_log
        if m_log >= _POWER_LOG and u_log >= _POWER_LOG and log_value >= _POWER_LOG:
            value = m_value * u_value
        else:
            value = math.exp(log_value)
        terms.append((value, log_value))
    return _reference_sum_terms(terms)


def _reference_minimise(evaluate, radii):
    d = len(radii)
    if d <= 8:
        best = (math.inf, math.inf)
        best_sigma = tuple(range(d))
        for sigma in itertools.permutations(range(d)):
            cand = evaluate(sigma)
            if cand < best:
                best, best_sigma = cand, sigma
        return best, best_sigma, "EXHAUSTIVE"

    sigma = tuple(sorted(range(d), key=lambda i: (-radii[i], i)))
    best = evaluate(sigma)
    improved = True
    while improved:
        improved = False
        best_swap = None
        swap_best = best
        for p in range(d - 1):
            for q in range(p + 1, d):
                cand_sigma = list(sigma)
                cand_sigma[p], cand_sigma[q] = cand_sigma[q], cand_sigma[p]
                cand = evaluate(tuple(cand_sigma))
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


def _reference_min_core(radii, degrees, variant):
    if variant == "recursive":
        return _reference_minimise(
            lambda sigma: _reference_recursive_sigma_core(radii, degrees, sigma, 0.0), radii
        )
    return _reference_minimise(
        lambda sigma: _reference_a_sigma_core(radii, degrees, sigma, variant), radii
    )


class TestBoundAPrefixReuse:
    #: seeded cases per dimension; exhaustive up to 8 axes, heuristic at 9
    CASES = {1: 10, 2: 10, 3: 10, 4: 10, 5: 10, 6: 6, 7: 2, 8: 1, 9: 4}

    @staticmethod
    def _case(rng, d):
        rho = tuple(1.05 * (12.0 / 1.05) ** rng.random() for _ in range(d))
        # large degrees push rho^-n below exp(-690), onto the log path; at
        # most two per case past four axes, so the grid size stays addressable
        large = set(rng.sample(range(d), rng.randint(0, d if d <= 4 else 2)))
        small = 40 if d <= 7 else 12
        n = tuple(
            rng.randint(300, 3000) if i in large else rng.randint(0, small) for i in range(d)
        )
        v = 10.0 ** rng.uniform(-300.0, 3.0)
        return rho, n, v

    @pytest.mark.parametrize("variant", ["consistent", "literal", "recursive"])
    @pytest.mark.parametrize("d", sorted(CASES))
    def test_bit_identical_to_fresh_evaluation(self, d, variant):
        rng = random.Random(1000 * d + len(variant))
        for _ in range(self.CASES[d]):
            rho, n, v = self._case(rng, d)
            inputs = make(rho, n, v)
            reference, ref_sigma, ref_search = _reference_min_core(rho, n, variant)
            ref_value = _finish(*reference, v)
            if variant == "recursive":
                evaluate = _recursive_evaluator(rho, n, 0.0)
                assert recursive_bound_B_min(inputs) == (ref_value, ref_sigma, ref_search)
            else:
                evaluate = _bound_a_evaluator(rho, n, variant)
                assert bound_a(inputs, variant) == (ref_value, ref_sigma, ref_search)
            searched = _minimise_over_orders(evaluate, rho, n)
            assert searched == (reference, ref_sigma, ref_search)
            if variant == "consistent":
                assert bound_combined(inputs).winner == _winner_tag(ref_value, bound_b(inputs))

            # random orders, one at a time and through one evaluator in turn
            for _ in range(12):
                sigma = tuple(rng.sample(range(d), d))
                if variant == "recursive":
                    expected = _reference_recursive_sigma_core(rho, n, sigma, 0.0)
                    at_sigma = make(tuple(rho[s] for s in sigma), tuple(n[s] for s in sigma), v)
                    assert recursive_bound_B(at_sigma) == _finish(*expected, v)
                else:
                    expected = _reference_a_sigma_core(rho, n, sigma, variant)
                    assert bound_a_for_sigma(inputs, sigma, variant) == _finish(*expected, v)
                assert evaluate(sigma) == expected


class TestInterchangeableAxes:
    """Axes with the same radius and degree are searched once."""

    @staticmethod
    def _case(rng, d):
        """Radii and degrees with at least one repeated (radius, degree) pair;
        some further axes share only the radius."""
        kinds = [
            (1.05 * (12.0 / 1.05) ** rng.random(), rng.randint(0, 40))
            for _ in range(rng.randint(1, d - 1))
        ]
        axes = kinds + [rng.choice(kinds)]
        while len(axes) < d:
            rho, n = rng.choice(kinds)
            axes.append((rho, n if rng.random() < 0.5 else rng.randint(0, 40)))
        rng.shuffle(axes)
        return tuple(r for r, _ in axes), tuple(n for _, n in axes)

    def test_same_result_as_the_full_search(self):
        """Value, order and search label as the search over every order gives them."""
        rng = random.Random(0x7A1)
        for d in (2, 3, 4, 5, 6, 7) * 8:
            rho, n = self._case(rng, d)
            inputs = make(rho, n, 10.0 ** rng.uniform(-3.0, 3.0))
            for variant in ("consistent", "literal", "recursive"):
                if variant == "recursive":
                    got = recursive_bound_B_min(inputs)
                    evaluate = _recursive_evaluator(rho, n, 0.0)
                else:
                    got = bound_a(inputs, variant)
                    evaluate = _bound_a_evaluator(rho, n, variant)
                core, sigma, search = _reference_minimise(evaluate, rho)
                assert got == (_finish(*core, inputs.v_bound), sigma, search), (rho, n, variant)

    def test_equal_axes_cost_one_order(self):
        counted = []
        evaluate = _recursive_evaluator((2.0,) * 8, (5,) * 8, 0.0)
        _minimise_over_orders(lambda sigma: counted.append(sigma) or evaluate(sigma), (2.0,) * 8, (5,) * 8)
        assert counted == [tuple(range(8))]
        # two kinds of four axes: 8! / (4! 4!) orders, each with its kinds' axes in index order
        rho, n = (2.0, 3.0) * 4, (5,) * 8
        counted.clear()
        evaluate = _recursive_evaluator(rho, n, 0.0)
        _minimise_over_orders(lambda sigma: counted.append(sigma) or evaluate(sigma), rho, n)
        assert len(counted) == 70 and counted == sorted(counted)
        for sigma in counted:
            assert [s for s in sigma if s % 2 == 0] == [0, 2, 4, 6]

    def test_ninety_equal_axes_evaluate_one_order(self):
        """The descent makes no swap of two interchangeable axes."""
        counted = []
        rho, n = (1.0001,) * 90, (0,) * 90
        evaluate = _recursive_evaluator(rho, n, 0.0)
        result = _minimise_over_orders(lambda sigma: counted.append(sigma) or evaluate(sigma), rho, n)
        assert counted == [tuple(range(90))]
        assert result[1:] == (tuple(range(90)), "HEURISTIC")


def _random_m_case(rng: random.Random, d: int):
    """(rho, n, v, eps) with every x_i = (s/rho_i)^(N_i+1) in one regime."""
    eps = rng.choice((0.0, 0.125, 0.5, rng.uniform(0.0, 0.5)))
    s = 1.0 + eps
    regime = rng.choice(("mixed", "tiny", "near-one"))
    if regime == "tiny":  # every x_i below exp(-700): the log-space path
        # large radii at high d keep the grid size below the addressable cap
        rho = tuple(rng.uniform(8.0, 12.0) if d <= 6 else rng.uniform(40.0, 50.0) for _ in range(d))
        n = tuple(math.ceil(700.0 / math.log(r / s)) + rng.randint(0, 10) for r in rho)
        return rho, n, 1e300, eps
    if regime == "near-one":  # radius just above 1 + eps, low degree
        rho = tuple(s * (1.0 + rng.uniform(1e-3, 1e-2)) for _ in range(d))
        n = tuple(rng.randint(0, 3) for _ in range(d))
        return rho, n, 1.0, eps
    rho = tuple(rng.uniform(s + 0.05, 30.0) for _ in range(d))
    n = tuple(rng.randint(0, 200) for _ in range(d))
    return rho, n, rng.uniform(1e-3, 10.0), eps


class TestClosedFormM:
    """M's 2^D-mask numerator, summed as 1 - prod (1 - x_i)."""

    def test_matches_oracle(self):
        rng = random.Random(0x4D)
        worst = 0.0
        for _ in range(240):
            d = rng.randint(1, 8)
            rho, n, v, eps = _random_m_case(rng, d)
            got = m_upper_bound(make(rho, n, v), MParams(eps))
            with mp.workdps(hp.DPS):
                want = hp.m_upper_bound(rho, n, v, eps)
                assert want > mpf("2.3e-308")  # every case stays in the normal range
                worst = max(worst, float(abs(mpf(got) - want) / want))
        assert worst <= 1e-12

    def test_beyond_twenty_axes(self):
        d = 24
        rho = tuple(1.5 + 0.25 * i for i in range(d))
        n = tuple(2 + i % 5 for i in range(d))
        eps = 0.125
        got = m_upper_bound(make(rho, n, 2.0), MParams(eps))
        with mp.workdps(hp.DPS):
            s = 1 + mpf(eps)
            x = [(s / mpf(r)) ** (k + 1) for r, k in zip(rho, n)]
            union = 1 - mp.fprod(1 - xi for xi in x)
            denom = mp.fprod(1 - s / mpf(r) for r in rho)
            want = 2 ** mpf(d) * 2 * (mp.fsum(x) + union) / denom
            assert float(abs(mpf(got) - want) / want) <= 1e-12

    def test_symmetric_in_the_axes(self):
        """Permuting the axes gives the same double, not just a close one."""
        rng = random.Random(0x5F)
        for _ in range(60):
            d = rng.randint(2, 8)
            rho, n, v, eps = _random_m_case(rng, d)
            base = m_upper_bound(make(rho, n, v), MParams(eps))
            for _ in range(5):
                order = list(range(d))
                rng.shuffle(order)
                permuted = make(
                    tuple(rho[i] for i in order), tuple(n[i] for i in order), v
                )
                assert m_upper_bound(permuted, MParams(eps)) == base


class TestPastTheDoubleRange:
    """Bounds whose products leave the double range: +inf or their value, never an error.

    Every axis has the same radius and degree, so every order ties and the
    oracle's identity order is also the minimum over orders.  The oracle
    writes M's mask sum in its telescoped closed form.  ``1 - 1/rho`` and
    ``1 - rho^-2`` subtract a rounded number from 1, which costs up to
    ``2^-53 / (rho - 1)`` relative per axis; near rho = 1 that conditioning,
    not the range handling, limits the agreement, so it is added to 1e-12.
    """

    CASES = [
        # A's denominator underflows, B's running product overflows
        (90, 1.0001, 1.0),
        # M overflows in the recursive bound
        (80, 1.0001, 1.0),
        # M's denominator underflows
        (40, 1.000000002, 1.0),
        # A's core overflows, but not its product with V
        (120, 1.01, 1e-10),
        # B's running product overflows where the conditioning is below 1e-12
        (200, 1.01, 1.0),
    ]

    @pytest.mark.parametrize("d, rho, v", CASES, ids=[f"d{c[0]}" for c in CASES])
    def test_inf_exactly_past_the_largest_double(self, d, rho, v):
        radii, degrees = (rho,) * d, (0,) * d
        inputs = make(radii, degrees, v)
        with mp.workdps(hp.DPS):
            exact_a = hp.bound_a_for_sigma(radii, degrees, v, tuple(range(d)))
            exact_b = hp.bound_b(radii, degrees, v)
            exact_m = hp.m_upper_bound_telescoped(radii, degrees, v)
            exact_r = hp.recursive_bound_B(
                radii, degrees, v, m_bound=hp.m_upper_bound_telescoped
            )
        checks = [
            (bound_a_for_sigma(inputs, range(d)), exact_a),
            (bound_b(inputs), exact_b),
            (m_upper_bound(inputs), exact_m),
            (recursive_bound_B(inputs), exact_r),
        ]
        # the pairwise-swap order searches take seconds past these sizes
        if d <= 90:
            report = bound_combined(inputs)
            checks += [
                (bound_a(inputs)[0], exact_a),
                (report.a_value, exact_a),
                (report.combined, min(exact_a, exact_b)),
            ]
            assert report.winner == ("B" if exact_b < exact_a else "A")
        if d <= 40:
            checks.append((recursive_bound_B_min(inputs)[0], exact_r))

        tol = 1e-12 + d * 2.0**-53 / (rho - 1.0)
        largest = mpf(sys.float_info.max)
        for got, exact in checks:
            assert type(got) is float
            if exact > largest:
                assert got == math.inf
            else:
                assert got < math.inf
                assert abs(mpf(got) - exact) / exact <= tol

    def test_factors_past_the_largest_double(self):
        """A's growth factor passes the largest double at 512 axes, B's prefactor at 2046."""
        radii, degrees = (1e6,) * 520, (0,) * 512 + (1,) * 8
        got = bound_a_for_sigma(make(radii, degrees), range(520))
        with mp.workdps(hp.DPS):
            exact = hp.bound_a_for_sigma(radii, degrees, 1.0, tuple(range(520)))
            assert abs(mpf(got) - exact) / exact <= 1e-12
        # with every degree 0, B is at least 2^(d/2+1)
        assert bound_b(make((2.0,) * 2100, (0,) * 2100)) == math.inf

    def test_finite_terms_whose_sum_overflows(self):
        """Two terms below the largest double whose sum passes it: +inf, with the exact log."""
        log_term = math.log(1e308)
        value, log_value = _sum_terms([1e308, 1e308], [log_term, log_term])
        assert value == math.inf
        assert log_value == pytest.approx(log_term + math.log(2.0), rel=1e-15)

    def test_finite_and_infinite_bounds_do_not_tie(self):
        assert _winner_tag(math.inf, 1e300) == "B"
        assert _winner_tag(1e300, math.inf) == "A"
        assert _winner_tag(math.inf, math.inf) == "TIE"


class TestProperties:
    def test_decreasing_in_rho(self):
        for rho in (1.2, 1.9, 3.0, 8.0):
            lo = bound_b(make((rho,), (12,)))
            hi = bound_b(make((rho + 0.3,), (12,)))
            assert hi < lo

    def test_nonincreasing_in_n(self):
        for fn in (bound_b, lambda i: bound_a(i)[0], recursive_bound_B, m_upper_bound):
            prev = None
            for n in (0, 2, 8, 20, 60):
                cur = fn(make((1.7, 2.4), (n, n + 1)))
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_linear_in_v(self):
        """Scaling V by a power of two scales every bound exactly."""
        base = make((1.7, 2.4), (6, 9), 1.0)
        scaled = make((1.7, 2.4), (6, 9), 4.0)
        assert bound_b(scaled) == 4.0 * bound_b(base)
        assert bound_a(scaled)[0] == 4.0 * bound_a(base)[0]
        assert recursive_bound_B(scaled) == 4.0 * recursive_bound_B(base)
        assert m_upper_bound(scaled) == 4.0 * m_upper_bound(base)

    def test_recursive_dominated_by_identity_a(self):
        cases = [
            ((1.3, 1.9), (4, 7)),
            ((2.0, 2.0, 2.0), (5, 5, 5)),
            ((1.2, 3.3, 7.7, 2.1), (9, 3, 6, 12)),
        ]
        for rho, n in cases:
            inputs = make(rho, n)
            assert recursive_bound_B(inputs) <= bound_a_for_sigma(
                inputs, tuple(range(len(rho)))
            ) * (1 + 1e-15)

    def test_combined_no_larger_than_either(self):
        inputs = make((2.3, 1.8), (10, 10))
        report = bound_combined(inputs)
        assert report.combined <= report.a_value
        assert report.combined <= report.b_value


class TestValidation:
    def test_negative_v(self):
        with pytest.raises(ValueError, match="magnitude"):
            make((2.0,), (10,), -1.0)

    def test_nan_v(self):
        with pytest.raises(ValueError):
            make((2.0,), (10,), math.nan)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="radii vs"):
            make((2.0, 3.0), (10,))

    def test_bad_sigma(self):
        inputs = make((2.0, 3.0), (10, 10))
        with pytest.raises(ValueError, match="permutation"):
            bound_a_for_sigma(inputs, (0, 0))
        with pytest.raises(ValueError, match="permutation"):
            bound_a_for_sigma(inputs, (0,))

    def test_bad_variant(self):
        inputs = make((2.0,), (10,))
        for call in (
            lambda: bound_a_for_sigma(inputs, (0,), variant="verbatim"),
            lambda: bound_a(inputs, variant="verbatim"),
            lambda: bound_combined(inputs, variant="verbatim"),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "unknown variant 'verbatim'"

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            MParams(-0.1)

    def test_univariate_rho_at_most_one(self):
        with pytest.raises(ValueError):
            bound_univariate(1.0, 10, 1.0)
