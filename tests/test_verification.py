"""Tests for the empirical verification suite and its test families."""

import math
import tracemalloc

import highprec as hp
import numpy as np
import pytest

from chebbound import bounds as bounds_module
from chebbound import verification as verification_module
from chebbound.bounds import BoundInputs, bound_a, bound_b
from chebbound.ellipse import EllipseRadii
from chebbound.interpolation import Hyperrectangle, NodeBudget, interpolate
from chebbound.verification import (
    RECORD_CSV_HEADER,
    SCAN_CSV_HEADER,
    builtin_families,
    builtin_function,
    coefficient_decay_check,
    crossover_scan,
    default_suite,
    entire_exponential,
    nonseparable_rational,
    polynomial_product,
    quick_suite,
    records_to_csv,
    reference_report,
    scan_to_csv,
    separable_rational,
    sup_error,
    verify_domination,
)
from chebbound.verification import (
    DEFAULT_PROBE_RESOLUTION,
    PROBE_SEED,
    _axis_probes,
    _pcg64_doubles,
    _probe_levels,
    _sup_errors,
)


class TestBuiltinFamilies:
    def test_counts_and_dimensions(self):
        fams = builtin_families()
        assert len(fams) == 14
        assert {f.dimension for f in fams} == {1, 2, 3}
        assert len(builtin_families(1)) == 5
        assert len(builtin_families(2)) == 5
        assert len(builtin_families(3)) == 4

    def test_ids_unique(self):
        ids = [f.id for f in builtin_families()]
        assert len(set(ids)) == len(ids)

    def test_every_family_kind_present_per_dimension(self):
        for d in (1, 2, 3):
            kinds = {f.family for f in builtin_families(d)}
            assert kinds == {
                "separable-rational",
                "entire-exponential",
                "nonseparable-rational",
                "polynomial",
            }

    def test_first_univariate_is_the_base_case(self):
        f = builtin_families(1)[0]
        assert f.id == "sep-rational-d1"
        # pole at 1.25 on [-1, 1] gives admissible radius exactly 2
        assert np.isclose(f.admissible_rho[0], 2.0, atol=1e-15)

    def test_lookup_by_id(self):
        f = builtin_function("exp-d2")
        assert f.dimension == 2
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_function("exp-d9")

    def test_lookup_with_domain_override(self):
        f = builtin_function("poly-cubic-d1", domain=Hyperrectangle(((0.0, 2.0),)))
        assert f.domain.axes == ((0.0, 2.0),)
        # every builtin rebuilds on a scaled box as the same function
        for f in builtin_families():
            box = Hyperrectangle(((-0.5, 0.5),) * f.dimension)
            g = builtin_function(f.id, domain=box)
            assert (g.id, g.family, g.description, g.domain) == (f.id, f.family, f.description, box)
            x = np.full((1, f.dimension), 0.25)
            assert g.evaluator(x) == f.evaluator(x)


class TestFamilyConstruction:
    def test_separable_rational_values(self):
        f = separable_rational((1.25,))
        x = np.array([[0.5], [-1.0]])
        assert np.allclose(f.evaluator(x), [1.0 / 0.75, 1.0 / 2.25])

    def test_separable_pole_inside_domain_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            separable_rational((0.5,))

    def test_entire_is_unbounded_admissible(self):
        f = entire_exponential((1.0, -0.5))
        assert all(math.isinf(r) for r in f.admissible_rho)

    def test_nonseparable_slack_split(self):
        """c=2, beta=(1,) on [-1,1]: slack 1, so a=2 and rho_max=2+sqrt(3)."""
        f = nonseparable_rational(2.0, (1.0,))
        assert np.isclose(f.admissible_rho[0], 2.0 + math.sqrt(3.0), atol=1e-14)

    def test_nonseparable_domain_pullback(self):
        # same singular plane, domain [0, 1]: center 0.5, halfwidth 0.5
        # c' = 2 - 0.5 = 1.5, |beta'| = 0.5, slack 1, a = 1 + 1/0.5 = 3
        f = nonseparable_rational(2.0, (1.0,), Hyperrectangle(((0.0, 1.0),)))
        assert np.isclose(f.admissible_rho[0], 3.0 + math.sqrt(8.0), atol=1e-13)

    def test_nonseparable_plane_through_domain_rejected(self):
        with pytest.raises(ValueError, match="touches"):
            nonseparable_rational(1.0, (1.0, 1.0))

    def test_polynomial_exact_degrees(self):
        f = polynomial_product(2)
        assert f.exact_degrees == (3, 3)
        x = np.array([0.5, -0.25])
        q = lambda t: t**3 - 0.5 * t + 0.25
        assert np.isclose(f.evaluator(x), q(0.5) * q(-0.25))


class TestSupError:
    def test_polynomial_is_reproduced(self):
        f = builtin_function("poly-cubic-d2")
        interp = interpolate(f.evaluator, f.domain, NodeBudget((3, 3)))
        assert sup_error(f, interp, 65) < 1e-13

    def test_underresolved_interpolant_has_error(self):
        f = builtin_function("sep-rational-d1")
        interp = interpolate(f.evaluator, f.domain, NodeBudget((4,)))
        assert sup_error(f, interp, 129) > 1e-3

    def test_probe_sets_nest_under_doubling(self):
        small = set(np.round(_axis_probes(129), 15))
        large = set(np.round(_axis_probes(258), 15))
        assert small <= large

    def test_probe_levels_cascade(self):
        assert _probe_levels(513) == [513, 256, 128, 64]
        assert _probe_levels(65) == [65]
        assert _probe_levels(129) == [129, 64]

    @pytest.mark.parametrize(
        "seed",
        [PROBE_SEED, 0, 2**32 + 1, 2**64 + 5, 2**160 + 3],
        ids=["probe-seed", "0", "2^32+1", "2^64+5", "2^160+3"],
    )
    def test_random_probes_are_numpys_pcg64_stream(self, seed):
        """The package's copy of PCG64 draws numpy's doubles bit for bit.

        ``numpy.random`` is the reference here only.  The last three seeds
        take two, three and six 32-bit words of entropy; past the pool's
        four words, the seed hash mixes the rest in separately.
        """
        for d in range(1, 13):
            expected = np.random.default_rng(seed).random((100 * d, d))
            got = np.array(_pcg64_doubles(seed, 100 * d * d)).reshape(100 * d, d)
            assert np.array_equal(got, expected), d

    def test_resolution_floor(self):
        f = builtin_function("poly-cubic-d1")
        interp = interpolate(f.evaluator, f.domain, NodeBudget((3,)))
        with pytest.raises(ValueError, match="resolution"):
            sup_error(f, interp, 32)

    def test_domain_mismatch(self):
        f = builtin_function("poly-cubic-d1")
        other = builtin_function("poly-cubic-d1", domain=Hyperrectangle(((0.0, 2.0),)))
        interp = interpolate(f.evaluator, f.domain, NodeBudget((3,)))
        with pytest.raises(ValueError, match="domain"):
            sup_error(other, interp, 65)

    def test_slabs_match_one_whole_grid(self, monkeypatch):
        """Slabbing the first probe axis changes nothing, bit for bit, at budget 6 per axis.

        Probing three budgets in one pass gives each the value it gets alone.
        At other budgets the last bits of the error can follow the slab shape,
        since ``evaluate_grid`` contracts each slab through BLAS; so the
        pinned ``verify`` bytes follow ``_PROBE_BLOCK`` and the host's BLAS.
        """
        for f in builtin_families(2) + builtin_families(3):
            interps = [
                interpolate(f.evaluator, f.domain, NodeBudget((n,) * f.dimension))
                for n in (6, 4, 9)
            ]
            monkeypatch.setattr(verification_module, "_PROBE_BLOCK", 10**9)
            whole = sup_error(f, interps[0], 65)
            monkeypatch.setattr(verification_module, "_PROBE_BLOCK", 1000)  # ragged last slab
            assert sup_error(f, interps[0], 65) == whole
            assert _sup_errors(f, interps, 65) == [sup_error(f, i, 65) for i in interps]

    def test_memory_bounded_in_three_dimensions(self):
        """Four budgets in one pass hold neither the 65^3 probe points (~21 MB) nor their exact values (2.2 MB) whole."""
        for function_id in ("exp-d3", "sep-rational-d3"):
            f = builtin_function(function_id)
            interps = [
                interpolate(f.evaluator, f.domain, NodeBudget((n,) * 3)) for n in (8, 10, 12, 14)
            ]
            tracemalloc.start()
            try:
                _sup_errors(f, interps, 65)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, function_id


class TestGridForm:
    #: a shifted, scaled box that keeps every builtin's singularities off-domain
    SHIFTED = ((-2.0, 0.5), (0.25, 1.25), (-3.0, 1.0))

    @pytest.mark.parametrize("function_id", [f.id for f in builtin_families()])
    def test_on_grid_equals_evaluator_on_meshgrid(self, function_id):
        """Bit for bit, on the default probe axes of the unit box and a shifted box."""
        unit = builtin_function(function_id)
        d = unit.dimension
        shifted = builtin_function(function_id, domain=Hyperrectangle(self.SHIFTED[:d]))
        ref = _axis_probes(DEFAULT_PROBE_RESOLUTION[d])
        for f in (unit, shifted):
            axes = [(lo + hi) / 2.0 + (hi - lo) / 2.0 * ref for lo, hi in f.domain.axes]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            assert np.array_equal(f.on_grid(axes), f.evaluator(pts))

    def test_factors_only_for_separable_families(self):
        for f in builtin_families():
            separable = f.family in ("separable-rational", "polynomial")
            assert (f.factors is not None) == separable, f.id
            assert f.factors is None or len(f.factors) == f.dimension

    @pytest.mark.parametrize("function_id", ["exp-d2", "nonsep-rational-d2"])
    def test_without_factors_the_evaluator_sees_the_meshgrid(self, function_id):
        f = builtin_function(function_id)
        seen = []

        def recording(points):
            seen.append(points.shape)
            return f.evaluator(points)

        axes = [np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 7)]
        g = verification_module.TestFunction(
            f.id,
            f.domain,
            recording,
            f.admissible_rho,
            f.family,
            f.description,
            f.exact_degrees,
            f.factors,
        )
        values = g.on_grid(axes)
        assert seen == [(5, 7, 2)]
        assert values.shape == (5, 7)


class TestVerifyDomination:
    def test_records_pass_and_carry_inputs(self):
        f = builtin_function("sep-rational-d1")
        records = verify_domination(f, [(1.9,)], [(5,), (10,)], probe_resolution=129)
        assert len(records) == 2
        for r in records:
            assert r.function_id == "sep-rational-d1"
            assert r.radii == (1.9,)
            assert r.passed
            assert r.empirical_error <= r.bound_combined
            assert r.bound_combined == min(r.bound_a, r.bound_b)
            assert r.v_estimate > 0

    def test_margin_enforced_before_computation(self):
        f = builtin_function("sep-rational-d1")
        calls = []
        probe = f.evaluator

        def counting(points):
            calls.append(1)
            return probe(points)

        g = type(f)(
            id=f.id, domain=f.domain, evaluator=counting,
            admissible_rho=f.admissible_rho, family=f.family,
            description=f.description,
        )
        # 1.97 > 0.98 * 2.0: rejected without a single function evaluation
        with pytest.raises(ValueError, match="admissible"):
            verify_domination(g, [(1.97,)], [(5,)])
        assert calls == []

    def test_dimension_mismatch_rejected(self):
        f = builtin_function("sep-rational-d2")
        with pytest.raises(ValueError, match="radii"):
            verify_domination(f, [(1.5,)], [(5, 5)])

    def test_fractional_order_rejected(self):
        """A budget order of 2.5 is refused, not truncated to 2."""
        f = builtin_function("exp-d1")
        with pytest.raises(ValueError, match="integers"):
            verify_domination(f, [(2.0,)], [(2.5,)])

    def test_explicit_zero_resolutions_are_not_defaults(self):
        """A resolution of 0 reaches the probe or the V scan and is refused there."""
        f = builtin_function("exp-d1")
        with pytest.raises(ValueError, match="resolution must be >= 33"):
            verify_domination(f, [(2.0,)], [(5,)], probe_resolution=0)
        with pytest.raises(ValueError, match="at least 8 angles"):
            verify_domination(f, [(2.0,)], [(5,)], v_resolution=0)

    def test_each_budget_probed_once(self, monkeypatch):
        """One interpolant per budget; f once per probe slab for all budgets and radii."""
        radii = [(2.0, 2.4, 3.0), (1.5, 1.5, 1.5)]
        budgets = [(4, 4, 4), (6, 5, 4), (5, 5, 5)]
        interpolated, slab_rows = [], []
        real_interpolate = verification_module.interpolate
        real_on_grid = verification_module.TestFunction.on_grid

        def counting_interpolate(fn, domain, budget):
            interpolated.append(budget.degrees)
            return real_interpolate(fn, domain, budget)

        def counting_on_grid(self, axes_points):
            slab_rows.append(len(axes_points[0]))
            return real_on_grid(self, axes_points)

        monkeypatch.setattr(verification_module, "interpolate", counting_interpolate)
        monkeypatch.setattr(verification_module.TestFunction, "on_grid", counting_on_grid)
        probes = len(_axis_probes(DEFAULT_PROBE_RESOLUTION[3]))
        rows = verification_module._PROBE_BLOCK // probes**2
        # one separable family (per-axis factors) and one on the meshgrid path
        for function_id in ("sep-rational-d3", "exp-d3"):
            f = builtin_function(function_id)
            interpolated.clear()
            slab_rows.clear()
            records = verify_domination(f, radii, budgets)
            assert interpolated == budgets
            assert len(slab_rows) == math.ceil(probes / rows) > 1
            assert sum(slab_rows) == probes

            assert [(r.radii, r.budget) for r in records] == [
                (rad, budget) for rad in radii for budget in budgets
            ]
            expected = [
                sup_error(f, interpolate(f.evaluator, f.domain, NodeBudget(budget)), 65)
                for budget in budgets
            ]
            assert [r.empirical_error for r in records] == expected * len(radii)

    def test_missing_default_resolution_names_the_keyword(self):
        """Past d=3 there is no default resolution; the error says what to pass."""
        f = separable_rational((2.0,) * 4)
        with pytest.raises(ValueError, match=r"dimension 4; pass probe_resolution="):
            verify_domination(f, [(1.5,) * 4], [(3,) * 4])
        with pytest.raises(ValueError, match=r"dimension 4; pass v_resolution="):
            verify_domination(f, [(1.5,) * 4], [(3,) * 4], probe_resolution=33)
        [record] = verify_domination(
            f, [(1.5,) * 4], [(3,) * 4], probe_resolution=33, v_resolution=8
        )
        assert record.passed

    def test_quick_suite_green(self):
        records = quick_suite()
        assert len(records) >= 4
        assert all(r.passed for r in records)


#: (function_id, radii, budget) of every default_suite() record, in order;
#: the scaled radii are float products of closed-form admissible radii
DEFAULT_SUITE_COMPOSITION = [
    ('sep-rational-d1', (1.9,), (5,)),
    ('sep-rational-d1', (1.9,), (8,)),
    ('sep-rational-d1', (1.9,), (11,)),
    ('sep-rational-d1', (1.9,), (14,)),
    ('sep-rational-d1', (1.9,), (17,)),
    ('sep-rational-d1', (1.9,), (20,)),
    ('sep-rational-d1', (1.9,), (23,)),
    ('sep-rational-d1', (1.9,), (26,)),
    ('sep-rational-d1-wide', (5.0,), (3,)),
    ('sep-rational-d1-wide', (5.0,), (6,)),
    ('sep-rational-d1-wide', (5.0,), (9,)),
    ('sep-rational-d1-wide', (5.0,), (12,)),
    ('exp-d1', (2.0,), (5,)),
    ('exp-d1', (2.0,), (10,)),
    ('exp-d1', (2.0,), (15,)),
    ('exp-d1', (8.0,), (5,)),
    ('exp-d1', (8.0,), (10,)),
    ('exp-d1', (8.0,), (15,)),
    ('exp-d1', (20.0,), (5,)),
    ('exp-d1', (20.0,), (10,)),
    ('exp-d1', (20.0,), (15,)),
    ('nonsep-rational-d1', (3.0,), (4,)),
    ('nonsep-rational-d1', (3.0,), (8,)),
    ('nonsep-rational-d1', (3.0,), (12,)),
    ('nonsep-rational-d1', (3.0,), (16,)),
    ('poly-cubic-d1', (4.0,), (3,)),
    ('poly-cubic-d1', (4.0,), (5,)),
    ('poly-cubic-d1', (4.0,), (8,)),
    ('sep-rational-d2', (1.9175961476626269, 2.564099639711712), (4, 4)),
    ('sep-rational-d2', (1.9175961476626269, 2.564099639711712), (8, 8)),
    ('sep-rational-d2', (1.9175961476626269, 2.564099639711712), (12, 12)),
    ('sep-rational-d2', (1.9175961476626269, 2.564099639711712), (10, 6)),
    ('sep-rational-d2', (1.0653311931459037, 1.42449979983984), (4, 4)),
    ('sep-rational-d2', (1.0653311931459037, 1.42449979983984), (8, 8)),
    ('sep-rational-d2', (1.0653311931459037, 1.42449979983984), (12, 12)),
    ('sep-rational-d2', (1.0653311931459037, 1.42449979983984), (10, 6)),
    ('sep-rational-d2-wide', (3.0, 5.0), (4, 6)),
    ('sep-rational-d2-wide', (3.0, 5.0), (8, 10)),
    ('sep-rational-d2-wide', (3.0, 5.0), (10, 4)),
    ('sep-rational-d2-wide', (3.0, 5.0), (12, 8)),
    ('exp-d2', (3.0, 3.0), (6, 6)),
    ('exp-d2', (3.0, 3.0), (10, 8)),
    ('exp-d2', (6.0, 2.0), (6, 6)),
    ('exp-d2', (6.0, 2.0), (10, 8)),
    ('nonsep-rational-d2', (3.0, 3.0), (6, 6)),
    ('nonsep-rational-d2', (3.0, 3.0), (10, 10)),
    ('nonsep-rational-d2', (3.0, 3.0), (12, 5)),
    ('poly-cubic-d2', (2.5, 2.5), (3, 3)),
    ('poly-cubic-d2', (2.5, 2.5), (5, 4)),
    ('poly-cubic-d2', (2.5, 2.5), (4, 6)),
    ('sep-rational-d3', (1.9175961476626269, 2.564099639711712, 3.743632614803889), (4, 4, 4)),
    ('sep-rational-d3', (1.9175961476626269, 2.564099639711712, 3.743632614803889), (8, 6, 5)),
    ('sep-rational-d3', (1.9175961476626269, 2.564099639711712, 3.743632614803889), (6, 6, 6)),
    ('sep-rational-d3', (2.0, 2.4, 3.0), (7, 6, 5)),
    ('exp-d3', (2.5, 2.5, 2.5), (5, 5, 5)),
    ('exp-d3', (2.5, 2.5, 2.5), (8, 6, 4)),
    ('exp-d3', (2.5, 2.5, 2.5), (6, 5, 4)),
    ('nonsep-rational-d3', (2.6, 2.6, 2.6), (5, 5, 5)),
    ('nonsep-rational-d3', (2.6, 2.6, 2.6), (7, 6, 5)),
    ('nonsep-rational-d3', (2.6, 2.6, 2.6), (4, 4, 4)),
    ('poly-cubic-d3', (2.0, 2.0, 2.0), (3, 3, 3)),
    ('poly-cubic-d3', (2.0, 2.0, 2.0), (4, 3, 5)),
]

QUICK_SUITE_COMPOSITION = [
    ('sep-rational-d1', (1.9,), (5,)),
    ('sep-rational-d1', (1.9,), (15,)),
    ('sep-rational-d1', (1.9,), (25,)),
    ('exp-d2', (3.0, 3.0), (6, 6)),
    ('sep-rational-d2', (1.9175961476626269, 2.564099639711712), (8, 8)),
    ('poly-cubic-d1', (4.0,), (3,)),
]


class TestSuiteComposition:
    """Each shipped suite runs the same rows, in the same order."""

    def test_default_suite(self):
        records = default_suite()
        assert [(r.function_id, r.radii, r.budget) for r in records] == (
            DEFAULT_SUITE_COMPOSITION
        )
        assert len(records) == 62

    def test_quick_suite(self):
        records = quick_suite()
        assert [(r.function_id, r.radii, r.budget) for r in records] == (
            QUICK_SUITE_COMPOSITION
        )
        assert len(records) == 6


class TestCoefficientDecay:
    def test_builtin_univariate_schedules(self):
        for f in builtin_families(1):
            rho = 4.0 if math.isinf(f.admissible_rho[0]) else 0.98 * f.admissible_rho[0]
            for n in (10, 20, 30):
                assert coefficient_decay_check(f, rho, n)

    def test_wide_rational_reference_case(self):
        f = separable_rational((3.0,))
        assert coefficient_decay_check(f, 5.0, 30)

    def test_overstated_radius_fails(self):
        """The pole at 1.25 allows rho = 2; declared entire and checked at rho = 3, the
        coefficients decay like 2^-k and break the 3^-k envelope."""
        f = builtin_function("sep-rational-d1")
        entire = verification_module.TestFunction(**{**f._asdict(), "admissible_rho": (math.inf,)})
        assert not coefficient_decay_check(entire, 3.0, 20)

    def test_multivariate_rejected(self):
        f = builtin_function("exp-d2")
        with pytest.raises(ValueError, match="univariate"):
            coefficient_decay_check(f, 2.0, 10)

    def test_degree_floor(self):
        f = builtin_function("exp-d1")
        with pytest.raises(ValueError, match="degree"):
            coefficient_decay_check(f, 2.0, 0)


class TestCrossoverScan:
    def test_single_flip_on_reference_range(self):
        records = crossover_scan(10, 2, 1.1, 20.0, steps=120)
        crossings = [r for r in records if r.winner == "CROSSOVER"]
        assert len(crossings) == 1
        grid = [r for r in records if r.winner != "CROSSOVER"]
        winners = [r.winner for r in grid]
        assert winners[0] == "B" and winners[-1] == "A"
        flip_positions = [
            i for i in range(1, len(winners)) if winners[i] != winners[i - 1]
        ]
        assert len(flip_positions) == 1

    def test_crossover_is_bisected(self):
        records = crossover_scan(10, 2, 1.1, 20.0, steps=60)
        crossing = records[-1]
        assert crossing.winner == "CROSSOVER"
        # at the crossing the two bounds agree to bisection accuracy
        assert abs(crossing.a - crossing.b) / crossing.a < 1e-5

    def test_winner_column_invariant_under_v(self):
        base = crossover_scan(8, 2, 1.3, 10.0, steps=40)
        doubled = crossover_scan(8, 2, 1.3, 10.0, steps=40, v_bound=2.0)
        assert [r.winner for r in base] == [r.winner for r in doubled]
        assert all(
            np.isclose(d.a, 2 * b.a) and np.isclose(d.b, 2 * b.b)
            for b, d in zip(base, doubled)
        )

    @pytest.mark.parametrize("d", range(1, 13))
    def test_a_is_the_minimum_over_orders_without_a_search(self, d, monkeypatch):
        """Equal radii and degrees: every order ties, so the scan evaluates one."""

        def no_search(*args, **kwargs):
            raise AssertionError("crossover_scan searched the axis orders")

        steps = 12 if d <= 6 else 3
        with monkeypatch.context() as patch:
            patch.setattr(bounds_module, "_minimise_over_orders", no_search)
            # A overtakes B below rho = 1e5 up to 12 axes, so a crossing is bisected
            records = crossover_scan(10, d, 1.1, 1e5, steps=steps)
        assert records[-1].winner == "CROSSOVER"
        for record in records:
            inputs = BoundInputs(EllipseRadii((record.rho,) * d), NodeBudget((10,) * d), 1.0)
            assert record.a == bound_a(inputs)[0]
            assert record.b == bound_b(inputs)

    def test_validation(self):
        with pytest.raises(ValueError, match="rho_lo"):
            crossover_scan(10, 2, 0.9, 5.0)
        with pytest.raises(ValueError, match="steps"):
            crossover_scan(10, 2, 1.5, 5.0, steps=1)
        for rho_hi in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                crossover_scan(10, 2, 1.1, rho_hi)

    def test_grid_is_math_exp_of_linspace(self):
        """Each grid rho is libm exp of numpy.linspace's exponent, within 1 ulp of e^x."""
        rng = np.random.default_rng(13)
        draws = [(1.1, 20.0, 2), (1.5, 1.5000001, 3)]
        for _ in range(30):
            lo = 1.0 + rng.uniform(1e-6, 4.0)
            hi = lo * (1.0 + rng.uniform(1e-6, 50.0))
            draws.append((lo, hi, int(rng.integers(2, 60))))
        for lo, hi, steps in draws:
            exponents = np.linspace(math.log(lo), math.log(hi), steps).tolist()
            records = crossover_scan(3, 1, lo, hi, steps)
            grid = [r.rho for r in records if r.winner != "CROSSOVER"]
            assert grid == [math.exp(x) for x in exponents]
            for rho, x in zip(grid, exponents):
                assert abs(rho - hp.exp(x)) <= math.ulp(rho)


class TestReportsAndCsv:
    def test_reference_report_rows(self):
        rows = reference_report()
        cases = {row["case"] for row in rows}
        assert "bound-b rho=(2.3,1.8) n=(10,10) v=1" in cases
        assert "crossover equal-rho n=10 d=2" in cases
        by_case = {row["case"]: row for row in rows}
        assert by_case["bound-b rho=(2.3,1.8) n=(10,10) v=1"]["published"] == 0.0018
        assert np.isclose(
            by_case["bound-b rho=(2.3,1.8) n=(10,10) v=1"]["computed"],
            0.015017225907659782,
        )
        assert by_case["crossover equal-rho n=10 d=2"]["published"] == 2.800882

    def test_records_csv_shape(self):
        f = builtin_function("poly-cubic-d1")
        records = verify_domination(f, [(4.0,)], [(3,)], probe_resolution=65)
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == RECORD_CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "poly-cubic-d1"
        assert cells[-1] == "true"

    def test_scan_csv_shape(self):
        text = scan_to_csv(crossover_scan(10, 2, 1.5, 3.0, steps=5))
        lines = text.strip().split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert len(lines) >= 6
        assert lines[1].split(",")[3] in {"A", "B", "TIE"}
