"""Tensorized Chebyshev interpolation on hyperrectangles.

Interpolants use the extrema grid ``x_k = cos(pi k / N)`` per axis and the
product basis ``T_j(x) = prod_i T_{j_i}(x_i)``.  :func:`sample_on_grid`
returns the grid values as a plain array of shape ``(N_1+1, ..., N_D+1)``,
and :func:`compute_coefficients` reads the orders from that shape.
Coefficients come from the trapezoid-weighted cosine sums, directly or by a
DCT-I through ``numpy.fft`` that must agree.
Both evaluators contract them one axis at a time with Chebyshev-Vandermonde
rows ``T_0(u) .. T_N(u)``: per grid coordinate in :func:`evaluate_grid`, per
point in chunks of bounded memory in :func:`evaluate`.
:func:`evaluate_reference` sums the basis products naively, as the check.

All classes are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from . import jsonio
from .inputs import NodeBudget, Record

__all__ = [
    "Hyperrectangle",
    "NodeBudget",
    "ChebyshevInterpolant",
    "chebyshev_T",
    "univariate_nodes",
    "map_affine",
    "map_affine_inv",
    "sample_on_grid",
    "compute_coefficients",
    "interpolate",
    "evaluate",
    "evaluate_grid",
    "evaluate_reference",
    "alias_index",
]

#: points this close to the reference boundary (in [-1,1] coordinates) are clamped
BOUNDARY_SLACK = 1e-12

COEFFICIENT_LAYOUT = "lex-last-fastest"

#: partial sums per chunk of points in :func:`evaluate`; caps its working memory
_EVAL_BLOCK = 2**20


class Hyperrectangle(Record):
    """Axis-aligned box ``prod_i [lo_i, hi_i]`` with strictly positive widths."""

    __slots__ = ("axes",)

    def __init__(self, axes: tuple[tuple[float, float], ...]) -> None:
        axes = tuple((float(lo), float(hi)) for lo, hi in axes)
        if not axes:
            raise ValueError("hyperrectangle needs at least one axis")
        for i, (lo, hi) in enumerate(axes):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"axis {i}: bounds must be finite, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError(f"axis {i}: need lo < hi, got [{lo}, {hi}]")
        self._init(axes)

    @classmethod
    def unit(cls, dimension: int) -> "Hyperrectangle":
        """The reference cube [-1, 1]^d."""
        return cls(((-1.0, 1.0),) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def centers(self) -> NDArray[np.float64]:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.axes])

    @property
    def halfwidths(self) -> NDArray[np.float64]:
        return np.array([(hi - lo) / 2.0 for lo, hi in self.axes])


def chebyshev_T(k: int, x):
    """Chebyshev polynomial of the first kind via the three-term recurrence.

    Parameters
    ----------
    k : int
        Degree, >= 0.
    x : scalar or array_like
        Evaluation points; real or complex.

    Returns
    -------
    Value(s) of T_k(x), matching the shape of ``x``.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x)
    t_prev = np.ones_like(x)
    if k == 0:
        return t_prev[()] if t_prev.ndim == 0 else t_prev
    t_cur = x.copy()
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, 2 * x * t_cur - t_prev
    return t_cur[()] if t_cur.ndim == 0 else t_cur


def univariate_nodes(n: int) -> NDArray[np.float64]:
    """Extrema nodes cos(pi k / n), k = 0..n, descending from 1 to -1.

    A zero-order axis degenerates to the single node 1.0.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return np.array([1.0])
    return np.cos(np.pi * np.arange(n + 1) / n)


def map_affine(domain: Hyperrectangle, u) -> NDArray[np.float64]:
    """Map reference coordinates in [-1, 1]^d onto the domain.

    Accepts a single point of shape ``(d,)`` or a batch ``(..., d)``.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (domain.dimension,):
        raise ValueError(
            f"expected last axis of size {domain.dimension}, got shape {u.shape}"
        )
    if np.any(np.abs(u) > 1.0 + BOUNDARY_SLACK):
        raise ValueError("reference coordinates fall outside [-1, 1]")
    u = np.clip(u, -1.0, 1.0)
    return domain.centers + domain.halfwidths * u


def map_affine_inv(domain: Hyperrectangle, x) -> NDArray[np.float64]:
    """Map domain points back to [-1, 1]^d, clamping 1e-12 boundary spill."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (domain.dimension,):
        raise ValueError(
            f"expected last axis of size {domain.dimension}, got shape {x.shape}"
        )
    u = (x - domain.centers) / domain.halfwidths
    if np.any(np.abs(u) > 1.0 + BOUNDARY_SLACK):
        bad = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        raise ValueError(f"point outside domain at index {bad[:-1]}: {x[bad[:-1]]}")
    return np.clip(u, -1.0, 1.0)


def grid_axes(domain: Hyperrectangle, budget: NodeBudget) -> list[NDArray[np.float64]]:
    """Per-axis node coordinates in the domain."""
    centers, halfs = domain.centers, domain.halfwidths
    return [
        centers[i] + halfs[i] * univariate_nodes(n)
        for i, n in enumerate(budget.degrees)
    ]


def grid_points(domain: Hyperrectangle, budget: NodeBudget) -> NDArray[np.float64]:
    """All grid nodes as an array of shape ``grid_shape + (d,)``, lexicographic."""
    axes = grid_axes(domain, budget)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def sample_on_grid(
    f: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    domain: Hyperrectangle,
    budget: NodeBudget,
) -> NDArray[np.float64]:
    """Values of ``f`` on the full tensor grid, shape ``budget.grid_shape``.

    ``f`` receives an array of points with the coordinate on the last axis
    and must return matching values.  Non-finite samples are rejected with
    the offending node named.
    """
    if domain.dimension != budget.dimension:
        raise ValueError("domain and budget dimensions differ")
    pts = grid_points(domain, budget)
    values = np.asarray(f(pts), dtype=float)
    if values.shape != budget.grid_shape:
        raise ValueError(
            f"function returned shape {values.shape}, expected {budget.grid_shape}"
        )
    if not np.all(np.isfinite(values)):
        bad = tuple(int(v) for v in np.argwhere(~np.isfinite(values))[0])
        raise ValueError(
            f"non-finite sample at node index {bad}, coordinates {pts[bad]}"
        )
    return values


def _axis_transform_matrix(n: int) -> NDArray[np.float64]:
    """The order-n coefficient transform: C[j, k] = pref(j) * w(k) * cos(pi j k / n).

    ``w`` halves the first and last summand; ``pref`` is 2/n for interior j
    and 1/n at j in {0, n}.  The cosine argument is reduced with the exact
    integer period 2n before calling cos, so entries are accurate to ~1 ulp
    even for large j*k.  Built afresh per call: no matrix outlives the
    transform that uses it.
    """
    j = np.arange(n + 1)
    jk = np.outer(j, j) % (2 * n)
    mat = np.cos(np.pi * jk / n)
    weights = np.ones(n + 1)
    weights[0] = weights[-1] = 0.5
    pref = np.full(n + 1, 2.0 / n)
    pref[0] = pref[-1] = 1.0 / n
    return pref[:, None] * mat * weights[None, :]


def compute_coefficients(samples, method: str = "direct") -> NDArray[np.float64]:
    """Coefficient tensor of the interpolant through ``samples``.

    Parameters
    ----------
    samples : array_like
        Values on the tensor grid, as :func:`sample_on_grid` returns them;
        axis ``i`` has length ``N_i + 1``, which sets the order ``N_i``.
    method : {"direct", "dct"}
        "direct" evaluates the trapezoid-weighted cosine sums as written
        (the reference path).  "dct" routes through a type-I DCT per axis,
        computed with ``numpy.fft.hfft``, and must match the reference to
        1e-12 relative.

    Notes
    -----
    Axes with ``N_i = 0`` carry a single sample and stay untouched: the
    interpolant is constant in those variables.  The strict transform is
    only defined for ``N_i >= 1``.
    """
    if method not in ("direct", "dct"):
        raise ValueError(f"unknown method {method!r}")
    coeffs = np.asarray(samples, dtype=float)
    for axis, n in enumerate(d - 1 for d in coeffs.shape):
        if n == 0:
            continue
        if method == "direct":
            mat = _axis_transform_matrix(n)
            coeffs = np.moveaxis(np.tensordot(mat, coeffs, axes=(1, axis)), 0, axis)
        else:
            # the DCT-I of f, y_j = f_0 + (-1)^j f_n + 2 sum_{0<k<n} f_k cos(pi j k/n),
            # is the real even signal of length 2n whose half spectrum is f;
            # y_j is twice the halved-endpoint sum, so scale by pref(j) / 2
            scale = np.full(n + 1, 1.0 / n)
            scale[0] = scale[-1] = 0.5 / n
            signal = np.fft.hfft(np.moveaxis(coeffs, axis, -1), 2 * n)
            coeffs = np.moveaxis(signal[..., : n + 1] * scale, -1, axis)
    return np.ascontiguousarray(coeffs)


class ChebyshevInterpolant(Record):
    """Immutable interpolant ``sum_j c_j T_j`` on a hyperrectangle.

    Equality and hash are by identity: the coefficients are an array.
    """

    __slots__ = ("domain", "budget", "coefficients")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, domain: Hyperrectangle, budget: NodeBudget, coefficients: NDArray[np.float64]
    ) -> None:
        if domain.dimension != budget.dimension:
            raise ValueError("domain and budget dimensions differ")
        coeffs = np.asarray(coefficients, dtype=float)
        if coeffs.shape != budget.grid_shape:
            raise ValueError(
                f"coefficient shape {coeffs.shape} != grid shape {budget.grid_shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        self._init(domain, budget, coeffs)

    def __call__(self, x):
        return evaluate(self, x)

    def to_json(self) -> str:
        """Serialize to a JSON document; floats keep 17 significant digits."""
        return jsonio.dumps(
            {
                "domain": [list(ax) for ax in self.domain.axes],
                "degrees": list(self.budget.degrees),
                "layout": COEFFICIENT_LAYOUT,
                "coefficients": [float(c) for c in self.coefficients.ravel(order="C")],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ChebyshevInterpolant":
        doc = json.loads(text)
        try:
            domain = Hyperrectangle(tuple((lo, hi) for lo, hi in doc["domain"]))
            budget = NodeBudget(tuple(doc["degrees"]))
            layout = doc["layout"]
            flat = np.asarray(doc["coefficients"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed interpolant document: {exc}") from exc
        if layout != COEFFICIENT_LAYOUT:
            raise ValueError(f"unsupported coefficient layout {layout!r}")
        if flat.size != budget.grid_points:
            raise ValueError(
                f"expected {budget.grid_points} coefficients, got {flat.size}"
            )
        return cls(domain, budget, flat.reshape(budget.grid_shape, order="C"))


def interpolate(
    f: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    domain: Hyperrectangle,
    budget: NodeBudget,
) -> ChebyshevInterpolant:
    """Sample ``f`` on the tensor grid and build its interpolant."""
    samples = sample_on_grid(f, domain, budget)
    return ChebyshevInterpolant(domain, budget, compute_coefficients(samples))


def _vander(u: NDArray[np.float64], n: int) -> NDArray[np.float64]:
    # rows T_0(u)..T_n(u), shape (len(u), n + 1), by the three-term recurrence
    vander = np.empty((len(u), n + 1))
    vander[:, 0] = 1.0
    if n >= 1:
        vander[:, 1] = u
    for j in range(2, n + 1):
        vander[:, j] = 2.0 * u * vander[:, j - 1] - vander[:, j - 2]
    return vander


def evaluate(interpolant: ChebyshevInterpolant, x):
    """Evaluate at one point ``(d,)`` or a batch ``(..., d)`` inside the domain.

    One matmul contracts the last axis for a chunk of points, then each
    earlier axis is contracted row by row; chunks hold at most
    ``_EVAL_BLOCK`` partial sums.  Points within 1e-12 of the domain
    boundary are clamped onto it; anything farther out raises.
    """
    u = map_affine_inv(interpolant.domain, x)
    flat = u.reshape(-1, interpolant.domain.dimension)
    coeffs, degrees = interpolant.coefficients, interpolant.budget.degrees
    out = np.empty(len(flat))
    step = max(1, _EVAL_BLOCK * coeffs.shape[-1] // coeffs.size)
    for start in range(0, len(flat), step):
        pts = flat[start : start + step]
        vals = coeffs @ _vander(pts[:, -1], degrees[-1]).T
        for axis in range(len(degrees) - 2, -1, -1):
            vals = np.einsum("...jp,pj->...p", vals, _vander(pts[:, axis], degrees[axis]))
        out[start : start + step] = vals
    return float(out[0]) if u.ndim == 1 else out.reshape(u.shape[:-1])


def evaluate_grid(
    interpolant: ChebyshevInterpolant, axes_points: Sequence[np.ndarray]
) -> NDArray[np.float64]:
    """Evaluate on the product grid of the given per-axis domain coordinates.

    The same Chebyshev-Vandermonde rows as :func:`evaluate`, built once per
    axis coordinate instead of once per point: the coefficient tensor is
    contracted with one matrix per axis.
    """
    d = interpolant.domain.dimension
    if len(axes_points) != d:
        raise ValueError(f"expected {d} coordinate axes, got {len(axes_points)}")
    vals = interpolant.coefficients
    centers, halfs = interpolant.domain.centers, interpolant.domain.halfwidths
    for axis in range(d):
        pts = np.asarray(axes_points[axis], dtype=float)
        u = (pts - centers[axis]) / halfs[axis]
        if np.any(np.abs(u) > 1.0 + BOUNDARY_SLACK):
            raise ValueError(f"axis {axis}: evaluation points outside domain")
        u = np.clip(u, -1.0, 1.0)
        # contract leading axis, cycle it to the back; after d steps the
        # axis order is restored
        vals = np.tensordot(vals, _vander(u, interpolant.budget.degrees[axis]), axes=([0], [1]))
    return vals


def evaluate_reference(interpolant: ChebyshevInterpolant, x) -> float:
    """Naive basis-product summation, kept as the correctness anchor for evaluate()."""
    u = map_affine_inv(interpolant.domain, np.asarray(x, dtype=float))
    if u.ndim != 1:
        raise ValueError("reference evaluation takes a single point")
    total = 0.0
    for j in np.ndindex(*interpolant.budget.grid_shape):
        term = float(interpolant.coefficients[j])
        for i, ji in enumerate(j):
            term *= float(chebyshev_T(ji, u[i]))
        total += term
    return total


def alias_index(k: int, n: int) -> int:
    """Index to which T_k aliases on the order-n extrema grid.

    m(k, n) = |((k + n - 1) mod 2n) - (n - 1)|, so T_k and T_{m(k,n)} agree
    at every grid node.
    """
    if n < 1:
        raise ValueError("grid order must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    return abs((k + n - 1) % (2 * n) - (n - 1))
