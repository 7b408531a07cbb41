"""Generalized Bernstein ellipses over hyperrectangles.

A radius ``rho > 1`` describes the image of the circle ``|z| = rho`` under
the Joukowski map ``(z + 1/z)/2``: an ellipse with semi-axes
``(rho ± 1/rho)/2`` around [-1, 1].  The generalized region for a box is
the product of per-axis ellipses, each pushed onto its interval by the
affine transform.  Magnitude estimates for analytic functions only need the
distinguished boundary (the product of the per-axis boundary curves), which
is what :func:`estimate_V` scans.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .inputs import MIN_RADIUS, EllipseRadii, Record
from .interpolation import Hyperrectangle

__all__ = [
    "EllipseRadii",
    "GeneralizedBernsteinEllipse",
    "joukowski",
    "ellipse_boundary_point",
    "transform_tau",
    "contains",
    "rho_for_real_singularity",
    "estimate_V",
]

#: multiplicative safety applied to boundary-scan maxima
V_SAFETY = 1.01

_CONTAINS_SLACK = 1e-12

#: boundary points per block in :func:`estimate_V`; caps its working memory.
#: At 4096 points a block's temporaries stay under 1 MB up to d = 4, and a
#: fresh process scans faster than at 2**16, whose multi-MB temporaries
#: outgrow the CPU caches and are mapped afresh, page by page.
_SCAN_BLOCK = 2**12


class GeneralizedBernsteinEllipse(Record):
    """Product of per-axis Bernstein ellipses attached to a hyperrectangle."""

    __slots__ = ("domain", "radii")

    def __init__(self, domain: Hyperrectangle, radii: EllipseRadii) -> None:
        if domain.dimension != radii.dimension:
            raise ValueError(
                f"domain has {domain.dimension} axes but {radii.dimension} radii were given"
            )
        self._init(domain, radii)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def axis_boundary(self, axis: int, theta) -> NDArray[np.complex128]:
        """Boundary curve of the axis ellipse at angle(s) theta, in domain coordinates."""
        rho = self.radii.values[axis]
        return transform_tau(self.domain.axes[axis], ellipse_boundary_point(rho, theta))


def joukowski(z):
    """(z + 1/z) / 2, elementwise."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("joukowski map undefined at 0")
    w = (z + 1.0 / z) / 2.0
    return w[()] if w.ndim == 0 else w


def ellipse_boundary_point(rho: float, theta):
    """Point of the reference Bernstein ellipse boundary at angle theta.

    Equals ``joukowski(rho * exp(i theta))``; the real and imaginary
    semi-axes are (rho + 1/rho)/2 and (rho - 1/rho)/2.
    """
    if rho < MIN_RADIUS:
        raise ValueError(f"radius must be >= {MIN_RADIUS}, got {rho}")
    theta = np.asarray(theta, dtype=float)
    return joukowski(rho * np.exp(1j * theta))


def transform_tau(interval: tuple[float, float], z):
    """Push a reference point (real or complex) onto the given interval.

    The real part maps affinely so that 1 lands on ``hi`` and -1 on ``lo``;
    the imaginary part scales by the halfwidth.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    z = np.asarray(z, dtype=complex)
    w = center + half * z
    return w[()] if w.ndim == 0 else w


def _reference_modulus(w) -> NDArray[np.float64]:
    # modulus of the Joukowski preimage root with |z| >= 1
    w = np.asarray(w, dtype=complex)
    root = np.sqrt(w * w - 1.0)
    z = w + root
    mod = np.abs(z)
    with np.errstate(divide="ignore"):
        mod = np.maximum(mod, np.where(mod > 0, 1.0 / mod, np.inf))
    return mod


def contains(ellipse: GeneralizedBernsteinEllipse, point) -> bool:
    """Whether a complex point lies in the closed product region.

    Componentwise test: the Joukowski preimage modulus of each coordinate
    (pulled back to reference coordinates) must not exceed the axis radius.
    """
    point = np.asarray(point, dtype=complex)
    if point.shape != (ellipse.dimension,):
        raise ValueError(f"expected a point of shape ({ellipse.dimension},)")
    for axis in range(ellipse.dimension):
        lo, hi = ellipse.domain.axes[axis]
        center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        w = (point[axis] - center) / half
        if _reference_modulus(w) > ellipse.radii.values[axis] * (1.0 + _CONTAINS_SLACK):
            return False
    return True


def rho_for_real_singularity(c: float, interval: tuple[float, float]) -> float:
    """Largest admissible radius for a real singularity at ``c``.

    Pulls ``c`` back to reference coordinates ``u`` and returns
    ``|u| + sqrt(u^2 - 1)``, the radius whose ellipse passes through the
    singularity.  A singularity at an interval endpoint returns the
    degenerate radius 1.0 (no admissible ellipse); one strictly inside the
    interval is an error.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    u = (2.0 * float(c) - (lo + hi)) / (hi - lo)
    if abs(u) < 1.0:
        raise ValueError(f"singularity {c} lies inside [{lo}, {hi}]")
    return abs(u) + math.sqrt(u * u - 1.0)


def estimate_V(
    f: Callable[[NDArray[np.complex128]], NDArray[np.complex128]],
    ellipse: GeneralizedBernsteinEllipse,
    resolution: int = 256,
) -> float:
    """Upper estimate of ``max |f|`` over the closed product region.

    Scans the distinguished boundary torus (per-axis uniform angle grids,
    default 256 angles per dimension — every grid contains theta = 0 and
    pi, where the builtin families peak) and multiplies the observed
    maximum by the 1.01 safety factor.  By the iterated maximum-modulus
    principle the torus maximum equals the region maximum for analytic f.

    Raises if any sampled value is non-finite, which signals that f
    overflows or reaches a singularity inside the scanned region (the
    ellipse is too large for this f).  f is evaluated with numpy's
    overflow, divide and invalid warnings silenced, so that error is the
    only report.
    """
    resolution = int(resolution)
    if resolution < 8:
        raise ValueError("boundary resolution must be at least 8 angles per axis")
    angles = 2.0 * np.pi * np.arange(resolution) / resolution
    curves = [ellipse.axis_boundary(i, angles) for i in range(ellipse.dimension)]
    shape = tuple(c.size for c in curves)
    total = math.prod(shape)
    best = 0.0
    # blocks of the flattened torus index keep memory bounded for every
    # dimension and resolution; the maximum does not depend on the blocking
    for start in range(0, total, _SCAN_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _SCAN_BLOCK, total)), shape)
        pts = np.stack([c[i] for c, i in zip(curves, index)], axis=-1)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = np.abs(np.asarray(f(pts)))
        if not np.all(np.isfinite(vals)):
            raise ValueError(
                "non-finite value on the ellipse boundary: f overflows or reaches "
                "a singularity in the region (reduce the radii)"
            )
        best = max(best, float(vals.max()))
    return V_SAFETY * best

