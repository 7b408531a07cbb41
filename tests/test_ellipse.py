"""Tests for the generalized ellipse geometry and magnitude estimation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chebbound import ellipse as ellipse_module
from chebbound.ellipse import (
    V_SAFETY,
    EllipseRadii,
    GeneralizedBernsteinEllipse,
    contains,
    ellipse_boundary_point,
    estimate_V,
    joukowski,
    rho_for_real_singularity,
    transform_tau,
)
from chebbound.interpolation import Hyperrectangle
from chebbound.verification import builtin_families, builtin_function, separable_rational


def _traced_peak(call, *args, **kwargs):
    """``call(*args, **kwargs)`` and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEllipseRadii:
    def test_basic(self):
        radii = EllipseRadii((2.0, 3.5))
        assert radii.dimension == 2
        assert tuple(radii) == (2.0, 3.5)

    def test_rejects_radius_one(self):
        with pytest.raises(ValueError, match="radius must be"):
            EllipseRadii((1.0,))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EllipseRadii((math.inf,))


class TestJoukowski:
    def test_unit_circle_collapses_to_interval(self):
        theta = np.linspace(0, 2 * np.pi, 37)
        w = joukowski(np.exp(1j * theta))
        assert np.allclose(w.imag, 0.0, atol=1e-15)
        assert np.all(np.abs(w.real) <= 1.0 + 1e-15)

    def test_semi_axes(self):
        rho = 2.0
        w = joukowski(np.array([rho, rho * 1j]))
        assert np.isclose(w[0].real, (rho + 1 / rho) / 2)
        assert np.isclose(abs(w[1].imag), (rho - 1 / rho) / 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            joukowski(np.array([0.0]))


class TestBoundaryGeometry:
    def test_boundary_point_at_angle_zero(self):
        z = ellipse_boundary_point(2.0, 0.0)
        assert np.isclose(z.real, 1.25) and np.isclose(z.imag, 0.0)

    def test_transform_tau_endpoints(self):
        # tau maps [-1, 1] onto the interval
        assert np.isclose(transform_tau((2.0, 6.0), -1.0).real, 2.0)
        assert np.isclose(transform_tau((2.0, 6.0), 1.0).real, 6.0)

    def test_axis_boundary_uses_interval(self):
        box = Hyperrectangle(((0.0, 2.0), (-1.0, 1.0)))
        ell = GeneralizedBernsteinEllipse(box, EllipseRadii((2.0, 3.0)))
        z = ell.axis_boundary(0, 0.0)
        # axis 0 has center 1, halfwidth 1: rightmost point is 1 + 1.25
        assert np.isclose(z.real, 2.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="axes but"):
            GeneralizedBernsteinEllipse(Hyperrectangle.unit(2), EllipseRadii((2.0,)))


class TestContains:
    def test_interval_itself_is_inside(self):
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((1.5,)))
        for x in (-1.0, -0.3, 0.0, 0.99, 1.0):
            assert contains(ell, np.array([complex(x)]))

    def test_semi_axis_boundary(self):
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((2.0,)))
        assert contains(ell, np.array([1.25 + 0j]))
        assert not contains(ell, np.array([1.2501 + 0j]))

    def test_product_region(self):
        box = Hyperrectangle(((0.0, 2.0), (-1.0, 1.0)))
        ell = GeneralizedBernsteinEllipse(box, EllipseRadii((2.0, 2.0)))
        assert contains(ell, np.array([1.0 + 0.7j, 0.0 + 0.7j]))
        assert not contains(ell, np.array([1.0 + 0.8j, 0.0 + 0.0j]))


class TestRhoForRealSingularity:
    def test_reference_value(self):
        # u = 1.25 on [-1, 1]: rho = 1.25 + sqrt(1.25^2 - 1) = 2 exactly
        assert np.isclose(rho_for_real_singularity(1.25, (-1.0, 1.0)), 2.0, atol=1e-15)

    def test_left_singularity_symmetric(self):
        r_left = rho_for_real_singularity(-1.25, (-1.0, 1.0))
        assert np.isclose(r_left, 2.0, atol=1e-15)

    def test_respects_interval_scaling(self):
        # pole at 2.5 over [0, 2] pulls back to u = 1.5
        expected = 1.5 + math.sqrt(1.5**2 - 1.0)
        assert np.isclose(rho_for_real_singularity(2.5, (0.0, 2.0)), expected)

    def test_inside_interval_raises(self):
        with pytest.raises(ValueError, match="inside"):
            rho_for_real_singularity(0.5, (-1.0, 1.0))


class TestEstimateV:
    def test_exponential_closed_form(self):
        """max |exp(z)| over the ellipse is exp(semi-major axis)."""
        rho = 3.0
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((rho,)))
        v = estimate_V(lambda z: np.exp(z[..., 0]), ell, resolution=512)
        truth = math.exp((rho + 1 / rho) / 2)
        assert truth <= v <= 1.011 * truth

    def test_rational_closed_form(self):
        # max |1/(c - z)| over the ellipse sits at the right real vertex
        rho, c = 1.9, 1.25
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((rho,)))
        v = estimate_V(lambda z: 1.0 / (c - z[..., 0]), ell, resolution=1024)
        truth = 1.0 / (c - (rho + 1 / rho) / 2)
        assert truth <= v <= 1.011 * truth

    def test_product_function(self):
        box = Hyperrectangle.unit(2)
        ell = GeneralizedBernsteinEllipse(box, EllipseRadii((2.0, 2.0)))
        v = estimate_V(lambda z: np.exp(z[..., 0] + z[..., 1]), ell, resolution=128)
        truth = math.exp(2 * 1.25)
        assert truth <= v <= 1.011 * truth

    def test_safety_factor_over_boundary_maximum(self):
        """V is 1.01 times the largest |f| over the sampled boundary angles."""
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((2.0,)))
        curve = ell.axis_boundary(0, 2.0 * np.pi * np.arange(16) / 16)
        assert np.isclose(curve[0].real, 1.25)
        best = float(np.abs(np.exp(curve)).max())
        v = estimate_V(lambda z: np.exp(z[..., 0]), ell, resolution=16)
        assert np.isclose(v, 1.01 * best)

    def test_too_few_angles_raise(self):
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((2.0,)))
        with pytest.raises(ValueError, match="at least 8 angles"):
            estimate_V(lambda z: np.exp(z[..., 0]), ell, resolution=7)

    def test_singularity_on_region_raises(self):
        # pole at 1.25 is ON the rho=2 ellipse
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((2.0,)))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="singularity"):
                estimate_V(lambda z: 1.0 / (1.25 - z[..., 0]), ell)

    def test_overflow_raises_without_a_warning(self):
        """exp is entire, but at rho=2000 it overflows on the boundary: one ValueError."""
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((2000.0,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                estimate_V(lambda z: np.exp(z[..., 0]), ell)

    def test_blocks_match_whole_torus_scan(self, monkeypatch):
        """Blocking the torus index changes nothing: V equals one whole-torus scan."""
        monkeypatch.setattr(ellipse_module, "_SCAN_BLOCK", 1000)  # ragged last block
        for d, resolution in ((1, 2500), (2, 48), (3, 16)):
            for f in builtin_families(d):
                radii = EllipseRadii(
                    tuple(0.9 * r if math.isfinite(r) else 3.0 for r in f.admissible_rho)
                )
                ell = GeneralizedBernsteinEllipse(f.domain, radii)
                curves = [
                    ell.axis_boundary(i, 2.0 * np.pi * np.arange(resolution) / resolution)
                    for i in range(d)
                ]
                pts = np.stack(np.meshgrid(*curves, indexing="ij"), axis=-1)
                whole = V_SAFETY * float(np.abs(f.evaluator(pts)).max())
                assert estimate_V(f.evaluator, ell, resolution=resolution) == whole

    def test_memory_bounded_in_four_dimensions(self):
        """16.8 M boundary points in bounded memory (a whole-torus scan takes ~1 GB)."""
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(4), EllipseRadii((1.5,) * 4))
        f = separable_rational((2.0,) * 4)
        v, peak = _traced_peak(estimate_V, f.evaluator, ell, resolution=64)
        assert peak < 2 * 2**20
        # the maximum sits at the real vertex 13/12 of every axis ellipse
        assert v == pytest.approx(V_SAFETY / (2.0 - 13.0 / 12.0) ** 4, rel=1e-12)

    def test_memory_of_the_suite_scan_in_three_dimensions(self):
        """The d=3 suite's V scan (32 angles per axis) stays under 1 MB."""
        f = builtin_function("sep-rational-d3")
        radii = EllipseRadii(tuple(0.9 * r for r in f.admissible_rho))
        ell = GeneralizedBernsteinEllipse(f.domain, radii)
        _, peak = _traced_peak(estimate_V, f.evaluator, ell, resolution=32)
        assert peak < 2**20

    def test_deterministic(self):
        ell = GeneralizedBernsteinEllipse(Hyperrectangle.unit(1), EllipseRadii((1.7,)))
        a = estimate_V(lambda z: np.exp(z[..., 0]), ell, resolution=256)
        b = estimate_V(lambda z: np.exp(z[..., 0]), ell, resolution=256)
        assert a == b

