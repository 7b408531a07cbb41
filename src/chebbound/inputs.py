"""Value types the bounds and the planner take: ellipse radii and node budgets.

Both are plain validated tuples.  This module needs only the standard
library, so ``chebbound bound`` and ``chebbound plan`` start without
importing numpy; :mod:`chebbound.ellipse` and :mod:`chebbound.interpolation`
re-export these classes under their historical names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["EllipseRadii", "NodeBudget", "MIN_RADIUS"]

#: radii this close to 1 are degenerate; the constructor refuses them
MIN_RADIUS = 1.0 + 1e-9


@dataclass(frozen=True)
class EllipseRadii:
    """Per-axis ellipse radii, strictly greater than 1."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(r) for r in self.values)
        if not values:
            raise ValueError("need at least one radius")
        for i, r in enumerate(values):
            if not math.isfinite(r) or r < MIN_RADIUS:
                raise ValueError(f"axis {i}: radius must be >= {MIN_RADIUS}, got {r}")
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class NodeBudget:
    """Per-axis interpolation orders ``N_i >= 0``.

    The grid has ``N_i + 1`` nodes along axis ``i``; construction refuses
    budgets whose total grid size cannot be addressed as a tensor.
    """

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        degrees = tuple(int(n) for n in self.degrees)
        if not degrees:
            raise ValueError("node budget needs at least one axis")
        if any(n != q or q < 0 for n, q in zip(self.degrees, degrees)):
            raise ValueError(f"degrees must be integers >= 0, got {self.degrees!r}")
        total = 1
        for n in degrees:
            total *= n + 1
            # sys.maxsize is the largest numpy index, np.iinfo(np.intp).max
            if total > sys.maxsize:
                raise ValueError("total grid size exceeds addressable tensor size")
        object.__setattr__(self, "degrees", degrees)

    @property
    def dimension(self) -> int:
        return len(self.degrees)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.degrees)

    @property
    def grid_points(self) -> int:
        return math.prod(n + 1 for n in self.degrees)
