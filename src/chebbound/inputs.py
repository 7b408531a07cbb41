"""Value types the bounds and the planner take: ellipse radii and node budgets.

Every value type of the package derives from :class:`Record`: an immutable
object whose fields are named once, in ``__slots__``, and compared, hashed
and printed by value.  A type that defines no ``__init__`` gets one built
from its fields; a validating type checks its arguments in its own
``__init__`` and then stores them with :meth:`Record._init`.  Copying and
pickling go back through the constructor, so a copy is validated like the
original.  ``_asdict()`` returns the fields in order; the types are not
dataclasses, so ``dataclasses.asdict``, ``replace`` and ``fields`` do not
apply to them.

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


def _constructor(cls):
    """A real ``__init__`` taking the fields of ``cls`` in order, built once.

    Like ``collections.namedtuple``, it compiles source text, so the
    signature lists the fields and a missing argument is reported by name;
    ``cls._defaults`` gives the defaults of the trailing fields.
    """
    fields = cls._fields
    if len(cls._defaults) > len(fields):
        raise TypeError(f"{cls.__qualname__}: more defaults than fields")
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):{body or ' pass'}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = cls._defaults or None
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """Immutable value type with the fields named in ``__slots__``, in order.

    ``_fields`` lists the slots of the class and its bases, bases first.  A
    subclass that defines no ``__init__``, and inherits none, gets one
    taking its fields in order, with defaults for the last
    ``len(_defaults)`` of them.  A validating subclass writes its own
    ``__init__`` and stores the checked values with :meth:`_init`.  Equality
    and hash compare the field values, and only between instances of the
    same class.
    """

    __slots__ = ()

    _fields: tuple[str, ...] = ()
    #: defaults of the trailing fields, for the generated constructor
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *cls.__dict__.get("__slots__", ()))
        if cls.__init__ is object.__init__:
            cls.__init__ = _constructor(cls)

    def _init(self, *values) -> None:
        """Store ``values`` as the fields, in field order."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        """The fields as a dict, in field order; values are not copied."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
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
        self._init(values)

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
        self._init(degrees)

    @property
    def dimension(self) -> int:
        return len(self.degrees)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.degrees)

    @property
    def grid_points(self) -> int:
        return math.prod(n + 1 for n in self.degrees)
