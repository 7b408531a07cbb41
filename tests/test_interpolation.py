"""Tests for the tensor-product Chebyshev interpolation core."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from chebbound import interpolation as interpolation_module
from chebbound.interpolation import (
    ChebyshevInterpolant,
    Hyperrectangle,
    NodeBudget,
    alias_index,
    chebyshev_T,
    compute_coefficients,
    evaluate,
    evaluate_grid,
    evaluate_reference,
    grid_points,
    interpolate,
    map_affine,
    map_affine_inv,
    sample_on_grid,
    univariate_nodes,
)
from chebbound.verification import builtin_function


class TestHyperrectangle:
    def test_unit_cube(self):
        box = Hyperrectangle.unit(3)
        assert box.dimension == 3
        assert box.axes == ((-1.0, 1.0),) * 3

    def test_centers_and_halfwidths(self):
        box = Hyperrectangle(((0.0, 4.0), (-3.0, 1.0)))
        assert np.allclose(box.centers, [2.0, -1.0])
        assert np.allclose(box.halfwidths, [2.0, 2.0])

    def test_rejects_degenerate_axis(self):
        with pytest.raises(ValueError, match="lo < hi"):
            Hyperrectangle(((1.0, 1.0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one axis"):
            Hyperrectangle(())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Hyperrectangle(((0.0, math.inf),))


class TestNodeBudget:
    def test_grid_shape(self):
        budget = NodeBudget((3, 0, 5))
        assert budget.grid_shape == (4, 1, 6)
        assert budget.grid_points == 24

    def test_zero_order_allowed(self):
        assert NodeBudget((0,)).grid_points == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NodeBudget((-1,))


class TestNodes:
    def test_endpoints_and_count(self):
        nodes = univariate_nodes(8)
        assert len(nodes) == 9
        # cos(0) first, cos(pi) last
        assert nodes[0] == 1.0
        assert nodes[-1] == -1.0

    def test_order_zero(self):
        nodes = univariate_nodes(0)
        assert len(nodes) == 1
        assert nodes[0] == 1.0

    def test_nodes_are_extrema(self):
        n = 12
        nodes = univariate_nodes(n)
        # T_n at its extrema alternates between +1 and -1
        tn = chebyshev_T(n, nodes)
        assert np.allclose(tn, [(-1.0) ** k for k in range(n + 1)], atol=1e-13)

    def test_grid_points_product_layout(self):
        box = Hyperrectangle(((0.0, 1.0), (-2.0, 0.0)))
        pts = grid_points(box, NodeBudget((2, 1)))
        assert pts.shape == (3, 2, 2)
        assert np.all(pts[..., 0] >= 0.0) and np.all(pts[..., 0] <= 1.0)
        assert np.all(pts[..., 1] >= -2.0) and np.all(pts[..., 1] <= 0.0)


class TestAffineMaps:
    def test_round_trip(self):
        box = Hyperrectangle(((2.0, 5.0), (-1.0, 7.0)))
        x = np.array([[2.7, 3.3], [5.0, -1.0]])
        assert np.allclose(map_affine(box, map_affine_inv(box, x)), x)

    def test_reference_corners(self):
        box = Hyperrectangle(((2.0, 5.0),))
        assert np.allclose(map_affine(box, np.array([[-1.0], [1.0]])), [[2.0], [5.0]])


class TestChebyshevT:
    def test_matches_cosine_definition(self):
        theta = np.linspace(0.0, np.pi, 57)
        x = np.cos(theta)
        for k in (0, 1, 2, 7, 16):
            assert np.allclose(chebyshev_T(k, x), np.cos(k * theta), atol=1e-12)

    def test_outside_interval(self):
        # three-term recurrence must also hold off [-1, 1]
        x = np.array([1.5, -2.0])
        assert np.allclose(chebyshev_T(2, x), 2 * x**2 - 1)


class TestCoefficients:
    def test_polynomial_recovered_exactly(self):
        """T_3 interpolated with N=5 gives c_3 = 1, everything else 0."""
        box = Hyperrectangle.unit(1)
        samples = sample_on_grid(lambda x: chebyshev_T(3, x[..., 0]), box, NodeBudget((5,)))
        coeffs = compute_coefficients(samples)
        expected = np.zeros(6)
        expected[3] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-14)

    # a zero-order axis holds one sample, which both transforms leave as it is
    @pytest.mark.parametrize(
        "degrees",
        [(7, 9), (0, 9), (7, 0), (1,), (1024,), (16, 16, 16)],
        ids=["7x9", "0x9", "7x0", "1", "1024", "16x16x16"],
    )
    def test_direct_and_dct_agree(self, degrees, monkeypatch):
        # the DCT needs numpy alone
        monkeypatch.setitem(sys.modules, "scipy", None)
        # exp(x_0) / (4 - x_last), times cos of the middle coordinates
        middle = ((-0.5, 1.5),) * (len(degrees) - 2)
        box = Hyperrectangle(((0.0, 2.0), *middle, (-1.0, 3.0))[: len(degrees)])
        f = lambda x: np.exp(x[..., 0]) / (4.0 - x[..., -1]) * np.cos(x[..., 1:-1]).prod(axis=-1)
        samples = sample_on_grid(f, box, NodeBudget(degrees))
        assert samples.shape == NodeBudget(degrees).grid_shape
        direct = compute_coefficients(samples, method="direct")
        dct = compute_coefficients(samples, method="dct")
        assert dct.flags.c_contiguous
        assert np.allclose(direct, dct, atol=1e-13)

    def test_transform_keeps_no_matrix(self):
        """Interpolating at orders around 200 leaves no (n+1) x (n+1) matrix behind
        (one is 8 (n+1)^2 bytes, about 0.3 MiB)."""
        f = lambda x: np.exp(x[..., 0]) / (4.0 - x[..., 0])
        box = Hyperrectangle(((-1.0, 3.0),))
        interpolate(f, box, NodeBudget((190,)))  # warm numpy's own first-call allocations
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for n in range(195, 206):
                interpolate(f, box, NodeBudget((n,)))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 2**10

    def test_unknown_method(self):
        box = Hyperrectangle.unit(1)
        samples = sample_on_grid(lambda x: x[..., 0], box, NodeBudget((2,)))
        with pytest.raises(ValueError, match="method"):
            compute_coefficients(samples, method="fft3")

    def test_constant_function(self):
        box = Hyperrectangle.unit(2)
        samples = sample_on_grid(lambda x: np.full(x.shape[:-1], 2.5), box, NodeBudget((4, 4)))
        coeffs = compute_coefficients(samples)
        assert np.isclose(coeffs[0, 0], 2.5, atol=1e-14)
        assert np.allclose(coeffs.ravel()[1:], 0.0, atol=1e-14)


class TestInterpolant:
    @pytest.mark.parametrize("degrees", [(6, 5), (0, 9), (7, 0)], ids=["6x5", "0x9", "7x0"])
    def test_interpolates_at_nodes(self, degrees):
        """The interpolant reproduces the samples at every grid node."""
        box = Hyperrectangle(((-2.0, 1.0), (0.0, 1.0)))
        budget = NodeBudget(degrees)
        f = lambda x: np.sin(x[..., 0]) * np.exp(x[..., 1])
        interp = interpolate(f, box, budget)
        pts = grid_points(box, budget)
        assert np.allclose(evaluate(interp, pts), f(pts), atol=1e-13)

    def test_cubic_exact_with_order_three(self):
        box = Hyperrectangle(((0.5, 2.0),))
        f = lambda x: x[..., 0] ** 3 - 0.5 * x[..., 0] + 0.25
        interp = interpolate(f, box, NodeBudget((3,)))
        x = np.linspace(0.5, 2.0, 101)[:, None]
        assert np.max(np.abs(evaluate(interp, x) - f(x))) < 1e-13

    def test_geometric_convergence(self):
        box = Hyperrectangle.unit(1)
        f = lambda x: 1.0 / (1.25 - x[..., 0])
        errors = []
        probe = np.linspace(-1.0, 1.0, 313)[:, None]
        for n in (5, 10, 20):
            interp = interpolate(f, box, NodeBudget((n,)))
            errors.append(np.max(np.abs(evaluate(interp, probe) - f(probe))))
        assert errors[0] > errors[1] > errors[2]
        # singularity at 1.25 gives rho = 2, so each extra 5 orders buys ~2^-5
        assert errors[1] / errors[0] < 0.1

    def test_single_point_and_batch(self):
        box = Hyperrectangle.unit(2)
        interp = interpolate(lambda x: x[..., 0] + x[..., 1], box, NodeBudget((1, 1)))
        single = evaluate(interp, np.array([0.25, 0.5]))
        assert isinstance(single, float)
        assert np.isclose(single, 0.75, atol=1e-14)
        batch = evaluate(interp, np.array([[0.25, 0.5], [-1.0, 1.0]]))
        assert batch.shape == (2,)

    def test_call_is_evaluate(self):
        box = Hyperrectangle(((-2.0, 1.0), (0.0, 1.0)))
        interp = interpolate(lambda x: np.sin(x[..., 0]) * np.exp(x[..., 1]), box, NodeBudget((6, 5)))
        point = np.array([0.3, 0.7])
        points = np.array([[0.3, 0.7], [-1.5, 0.1], [1.0, 1.0]])
        assert interp(point) == evaluate(interp, point)
        assert np.array_equal(interp(points), evaluate(interp, points))

    def test_clenshaw_matches_reference_sum(self, monkeypatch):
        """evaluate() agrees with the naive basis-product sum in every shape."""
        box = Hyperrectangle(((0.0, 3.0), (-1.0, 1.0)))
        f = lambda x: np.cos(x[..., 0]) + x[..., 1] ** 2
        interps = [interpolate(f, box, NodeBudget((8, 4)))]
        rng = np.random.default_rng(7)
        # d = 1..4, mixed degrees, each with a zero-degree axis past d = 1
        for degrees in ((9,), (0,), (5, 0), (4, 7, 0), (3, 0, 2, 5)):
            box = Hyperrectangle(tuple((-1.0 - k, 2.0 + k) for k in range(len(degrees))))
            coeffs = rng.uniform(-1.0, 1.0, NodeBudget(degrees).grid_shape)
            interps.append(ChebyshevInterpolant(box, NodeBudget(degrees), coeffs))

        def check(interp, pts):
            fast = evaluate(interp, pts)
            assert np.shape(fast) == pts.shape[:-1]
            flat = pts.reshape(-1, interp.domain.dimension)
            slow = np.array([evaluate_reference(interp, p) for p in flat])
            assert np.allclose(np.ravel(fast), slow, rtol=0.0, atol=1e-13)

        for interp in interps:
            lo, hi = np.array(interp.domain.axes).T
            d = interp.domain.dimension
            pts = lo + (hi - lo) * rng.random((2, 3, 4, d))
            for batch in (pts[0, 0, 0], pts[:0, 0, 0], pts[0], pts[:, :, 0], pts):
                check(interp, batch)
            # a budget of 3 points' partial sums: 24 points cross eight chunks
            budget = 3 * interp.coefficients.size // interp.coefficients.shape[-1]
            monkeypatch.setattr(interpolation_module, "_EVAL_BLOCK", budget)
            check(interp, pts)
            monkeypatch.undo()

    @pytest.mark.parametrize("points", [500, 4000])
    def test_evaluate_memory_flat_in_points(self, points):
        """The peak stays under one ceiling whatever the point count (a per-point
        broadcast of the coefficients takes ~390 MB at 4000 points)."""
        f = builtin_function("exp-d3")
        interp = interpolate(f.evaluator, f.domain, NodeBudget((64,) * 3))
        x = map_affine(f.domain, np.random.default_rng(3).uniform(-1.0, 1.0, (points, 3)))
        tracemalloc.start()
        try:
            evaluate(interp, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_evaluate_grid_matches_pointwise(self):
        box = Hyperrectangle.unit(2)
        interp = interpolate(lambda x: np.exp(x[..., 0] - x[..., 1]), box, NodeBudget((6, 6)))
        ax = [np.linspace(-1, 1, 11), np.linspace(-1, 1, 7)]
        mesh = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)
        assert np.allclose(evaluate_grid(interp, ax), evaluate(interp, mesh), atol=1e-13)

    def test_boundary_clamp_and_rejection(self):
        box = Hyperrectangle.unit(1)
        interp = interpolate(lambda x: x[..., 0], box, NodeBudget((1,)))
        # a hair outside is clamped ...
        assert np.isclose(evaluate(interp, np.array([1.0 + 1e-13])), 1.0)
        # ... but a real excursion raises
        with pytest.raises(ValueError, match="outside"):
            evaluate(interp, np.array([1.1]))

    def test_json_round_trip(self):
        box = Hyperrectangle(((0.0, 1.0), (2.0, 3.0)))
        interp = interpolate(lambda x: x[..., 0] * x[..., 1], box, NodeBudget((2, 3)))
        doc = json.loads(interp.to_json())
        clone = ChebyshevInterpolant.from_json(json.dumps(doc))
        assert clone.domain == interp.domain
        assert clone.budget == interp.budget
        assert np.array_equal(clone.coefficients, interp.coefficients)

    def test_json_rejects_wrong_count(self):
        box = Hyperrectangle.unit(1)
        interp = interpolate(lambda x: x[..., 0], box, NodeBudget((2,)))
        doc = json.loads(interp.to_json())
        doc["coefficients"] = doc["coefficients"][:-1]
        with pytest.raises(ValueError, match="coefficients"):
            ChebyshevInterpolant.from_json(json.dumps(doc))


class TestAliasIndex:
    def test_reference_values(self):
        # m(k, N) = |(k + N - 1) mod 2N - (N - 1)|
        assert alias_index(0, 4) == 0
        assert alias_index(4, 4) == 4
        assert alias_index(5, 4) == 3
        assert alias_index(8, 4) == 0
        assert alias_index(11, 4) == 3
        assert alias_index(16, 4) == 0

    def test_range(self):
        for n in range(1, 9):
            for k in range(4 * n + 1):
                assert 0 <= alias_index(k, n) <= n

    def test_identity_on_nodes(self):
        """T_k and T_{m(k,N)} agree on the order-N extrema grid."""
        worst = 0.0
        for n in range(1, 17):
            nodes = univariate_nodes(n)
            for k in range(4 * n + 1):
                diff = np.max(np.abs(chebyshev_T(k, nodes) - chebyshev_T(alias_index(k, n), nodes)))
                worst = max(worst, diff)
        assert worst <= 1e-12
