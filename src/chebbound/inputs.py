"""Value types the bounds and the planner take: ellipse radii and node budgets.

Every value type of the package derives from :class:`Record`: an immutable
object whose fields live in ``__slots__``, compared, hashed and printed by
value, with validation in ``__init__``.  Copying and pickling go back
through the constructor, so a copy is validated like the original.
``_asdict()`` returns the fields in order; the types are not dataclasses, so
``dataclasses.asdict``, ``replace`` and ``fields`` do not apply to them.

This module needs only the standard library, so ``chebbound bound`` and
``chebbound plan`` start without importing numpy; :mod:`chebbound.ellipse`
and :mod:`chebbound.interpolation` re-export these classes under their
historical names.
"""

from __future__ import annotations

import math
import sys

__all__ = ["Record", "FrozenInstanceError", "EllipseRadii", "NodeBudget", "MIN_RADIUS"]

#: radii this close to 1 are degenerate; the constructor refuses them
MIN_RADIUS = 1.0 + 1e-9


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a :class:`Record`."""


class Record:
    """Immutable value type with the fields named in ``__slots__``, in order.

    A subclass lists its fields in ``__slots__`` and sets each one in
    ``__init__`` with ``object.__setattr__``.  Equality and hash compare the
    field values, and only between instances of the same class.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self) -> dict:
        """The fields as a dict, in field order; values are not copied."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, which validates
        return self.__class__, self._astuple()


class EllipseRadii(Record):
    """Per-axis ellipse radii, strictly greater than 1."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[float, ...]) -> None:
        values = tuple(float(r) for r in values)
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


class NodeBudget(Record):
    """Per-axis interpolation orders ``N_i >= 0``.

    The grid has ``N_i + 1`` nodes along axis ``i``; construction refuses
    budgets whose total grid size cannot be addressed as a tensor.
    """

    __slots__ = ("degrees",)

    def __init__(self, degrees: tuple[int, ...]) -> None:
        given = degrees
        degrees = tuple(int(n) for n in given)
        if not degrees:
            raise ValueError("node budget needs at least one axis")
        if any(n != q or q < 0 for n, q in zip(given, degrees)):
            raise ValueError(f"degrees must be integers >= 0, got {given!r}")
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
