"""Value semantics shared by every value type: chebbound.inputs.Record."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from chebbound.bounds import BoundInputs, BoundReport, MParams, ScanRecord, bound_combined
from chebbound.ellipse import GeneralizedBernsteinEllipse
from chebbound.inputs import EllipseRadii, FrozenInstanceError, NodeBudget, Record
from chebbound.interpolation import ChebyshevInterpolant, Hyperrectangle, interpolate
from chebbound.planner import Plan, PlanComparison, PlanRequest, compare_plans, plan_nodes
from chebbound import verification
from chebbound.verification import VerificationRecord, builtin_function, verify_domination

#: one function object, so every build of it holds the same evaluator;
#: exp has no per-axis factors, whose partials a deep copy would duplicate
EXP = builtin_function("exp-d1")


def _build(name):
    """A fresh instance of the named value type, equal by value on every call."""
    radii = EllipseRadii((2.0, 3.0))
    budget = NodeBudget((3, 4))
    inputs = BoundInputs(radii, budget, 1.5)
    request = PlanRequest(radii, 1.0, 1e-4, "B")
    box = Hyperrectangle(((-1.0, 1.0), (0.0, 2.0)))
    return {
        "EllipseRadii": lambda: radii,
        "NodeBudget": lambda: budget,
        "BoundInputs": lambda: inputs,
        "MParams": lambda: MParams(0.25),
        "BoundReport": lambda: bound_combined(inputs),
        "ScanRecord": lambda: ScanRecord(2.5, 1e-3, 2e-3, "A"),
        "PlanRequest": lambda: request,
        "Plan": lambda: plan_nodes(request),
        "PlanComparison": lambda: compare_plans(radii, 1.0, 1e-4),
        "Hyperrectangle": lambda: box,
        "ChebyshevInterpolant": lambda: interpolate(
            lambda x: x[..., 0] * x[..., 1], box, budget
        ),
        "GeneralizedBernsteinEllipse": lambda: GeneralizedBernsteinEllipse(box, radii),
        "TestFunction": lambda: EXP,
        "VerificationRecord": lambda: verify_domination(EXP, [(3.0,)], [(5,)])[0],
    }[name]()


TYPES = {
    cls.__name__: cls
    for cls in (
        EllipseRadii,
        NodeBudget,
        BoundInputs,
        MParams,
        BoundReport,
        ScanRecord,
        PlanRequest,
        Plan,
        PlanComparison,
        Hyperrectangle,
        ChebyshevInterpolant,
        GeneralizedBernsteinEllipse,
        verification.TestFunction,  # not imported by name: pytest would collect it
        VerificationRecord,
    )
}
#: compared and hashed by identity: the coefficients are an array
BY_IDENTITY = {"ChebyshevInterpolant"}
#: a field is a dict, so the value has no hash
UNHASHABLE = {"PlanComparison"}
#: fields hold local functions, which do not pickle
UNPICKLABLE = {"TestFunction"}

names = pytest.mark.parametrize("name", sorted(TYPES))


def _fields_equal(a, b) -> bool:
    for x, y in zip(a._astuple(), b._astuple()):
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@names
def test_fields_are_slots_in_constructor_order(name):
    cls = TYPES[name]
    value = _build(name)
    assert isinstance(value, Record)
    assert not hasattr(value, "__dict__")
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    assert list(value._asdict()) == list(cls.__slots__)


@names
def test_keyword_construction_gives_an_equal_value(name):
    value = _build(name)
    clone = TYPES[name](**value._asdict())
    if name in BY_IDENTITY:
        assert clone != value
        assert _fields_equal(clone, value)
    else:
        assert clone == value
        assert not clone != value


@names
def test_equality_and_hash(name):
    a, b = _build(name), _build(name)
    if name in BY_IDENTITY:
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
    elif name in UNHASHABLE:
        assert a == b
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@names
def test_unequal_to_another_type_with_the_same_fields(name):
    cls = TYPES[name]
    value = _build(name)
    twin = object.__new__(type("Twin", (Record,), {"__slots__": cls.__slots__}))
    for field, field_value in value._asdict().items():
        object.__setattr__(twin, field, field_value)
    assert value != twin
    assert twin != value
    assert value != value._astuple()
    assert value.__eq__(twin) is NotImplemented


@names
def test_repr_names_every_field(name):
    value = _build(name)
    fields = ", ".join(f"{k}={v!r}" for k, v in value._asdict().items())
    assert repr(value) == f"{name}({fields})"


def test_repr_examples():
    assert repr(EllipseRadii((2, 3.5))) == "EllipseRadii(values=(2.0, 3.5))"
    assert repr(MParams()) == "MParams(epsilon=0.0)"
    assert repr(ScanRecord(2.5, 1e-3, 2e-3, "A")) == (
        "ScanRecord(rho=2.5, a=0.001, b=0.002, winner='A')"
    )


@names
def test_fields_cannot_be_assigned_or_deleted(name):
    value = _build(name)
    field = value.__slots__[0]
    before = getattr(value, field)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, before)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) is before
    assert issubclass(FrozenInstanceError, AttributeError)


@names
def test_copies_rebuild_an_equal_value(name):
    value = _build(name)
    copies = [copy.copy(value), copy.deepcopy(value)]
    if name not in UNPICKLABLE:
        copies.append(pickle.loads(pickle.dumps(value)))
    for clone in copies:
        assert type(clone) is TYPES[name]
        if name in BY_IDENTITY:
            assert clone is not value and _fields_equal(clone, value)
        else:
            assert clone == value


def test_defaults():
    assert MParams().epsilon == 0.0
    report = bound_combined(BoundInputs(EllipseRadii((2.0,)), NodeBudget((3,)), 1.0))
    assert BoundReport(*report._astuple()[:-1]).underflow == ()
    assert PlanRequest(EllipseRadii((2.0,)), 1.0, 0.1).selector == "COMBINED"
    f = EXP
    g = verification.TestFunction(
        f.id, f.domain, f.evaluator, f.admissible_rho, f.family, f.description
    )
    assert g.exact_degrees is None and g.factors is None


def _forged(cls, **fields):
    """An instance holding ``fields`` unvalidated, as no constructor would build it."""
    value = object.__new__(cls)
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)
    return value


FORGED = {
    "EllipseRadii": lambda: _forged(EllipseRadii, values=(0.5,)),
    "NodeBudget": lambda: _forged(NodeBudget, degrees=(-1,)),
    "BoundInputs": lambda: _forged(
        BoundInputs, radii=EllipseRadii((2.0,)), budget=NodeBudget((3, 3)), v_bound=1.0
    ),
    "MParams": lambda: _forged(MParams, epsilon=-1.0),
    "PlanRequest": lambda: _forged(
        PlanRequest, radii=EllipseRadii((2.0,)), v_bound=1.0, epsilon_target=0.1, selector="C"
    ),
    "Hyperrectangle": lambda: _forged(Hyperrectangle, axes=((1.0, -1.0),)),
    "ChebyshevInterpolant": lambda: _forged(
        ChebyshevInterpolant,
        domain=Hyperrectangle.unit(1),
        budget=NodeBudget((2,)),
        coefficients=np.array([1.0, np.nan, 0.0]),
    ),
    "GeneralizedBernsteinEllipse": lambda: _forged(
        GeneralizedBernsteinEllipse, domain=Hyperrectangle.unit(2), radii=EllipseRadii((2.0,))
    ),
}


@pytest.mark.parametrize("name", sorted(FORGED))
def test_copies_validate_their_fields(name):
    forged = FORGED[name]()
    for round_trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError):
            round_trip(forged)


def test_plan_types_keep_their_documents():
    comparison = compare_plans(EllipseRadii((2.0, 3.0)), 1.0, 1e-4)
    assert isinstance(comparison, PlanComparison)
    assert all(isinstance(p, Plan) for p in comparison.plans.values())
    assert copy.deepcopy(comparison).to_json() == comparison.to_json()
    record = _build("VerificationRecord")
    assert isinstance(record, VerificationRecord)
    assert list(record.to_json_dict()) == list(VerificationRecord.__slots__)


class Pair(Record):
    __slots__ = ("left", "right")
    _defaults = (0,)


class Labelled(Pair):
    __slots__ = ()


class Empty(Record):
    __slots__ = ()


def test_a_type_without_init_gets_one_taking_its_fields():
    pair = Pair(1, right=2)
    assert (pair.left, pair.right) == (1, 2)
    assert Pair(1) == Pair(left=1, right=0)
    assert str(inspect.signature(Pair)) == "(left, right=0)"
    assert Pair.__init__.__qualname__ == "Pair.__init__"
    assert Empty() == Empty() and repr(Empty()) == "Empty()"
    with pytest.raises(TypeError):
        Empty(1)


def test_a_subclass_keeps_the_generated_constructor():
    assert Labelled.__init__ is Pair.__init__
    value = Labelled(3, 4)
    assert value._fields == Pair.__slots__
    assert repr(value) == "Labelled(left=3, right=4)"
    assert value == Labelled(3, 4) and value != Labelled(3, 5)
    assert value != Pair(3, 4)


@pytest.mark.parametrize(
    "cls, args, kwargs, field",
    [
        (ScanRecord, (2.5, 1e-3, 2e-3), {}, "winner"),
        (ScanRecord, (2.5, 1e-3, 2e-3, "A"), {"loser": "B"}, "loser"),
        (Pair, (), {"right": 2}, "left"),
        (Pair, (1,), {"left": 1}, "left"),
    ],
    ids=["missing", "unknown", "missing-keyword", "twice"],
)
def test_arity_errors_name_the_field(cls, args, kwargs, field):
    with pytest.raises(TypeError, match=f"{cls.__name__}.__init__.*'{field}'"):
        cls(*args, **kwargs)


def test_too_many_positional_arguments_are_refused():
    with pytest.raises(TypeError, match="ScanRecord.__init__"):
        ScanRecord(2.5, 1e-3, 2e-3, "A", "B")


def test_defaults_cover_only_the_trailing_fields():
    for cls, defaults in [
        (BoundReport, ((),)),
        (verification.TestFunction, (None, None)),
        (ScanRecord, None),
        (Plan, None),
    ]:
        assert cls.__init__.__defaults__ == defaults
        parameters = list(inspect.signature(cls).parameters.values())
        with_default = [p.name for p in parameters if p.default is not p.empty]
        assert with_default == list(cls.__slots__[len(cls.__slots__) - len(defaults or ()):])
    with pytest.raises(TypeError, match="more defaults than fields"):
        type("TooMany", (Record,), {"__slots__": ("x",), "_defaults": (1, 2)})
