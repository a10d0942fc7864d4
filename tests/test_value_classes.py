"""The package's value classes behave as frozen dataclasses would: equal
fields give equal objects with equal hashes, fields cannot be reassigned or
deleted, the repr is ``Name(field=value, ...)``, and objects of different
classes never compare equal.  ``lattice.invariant`` caches on them."""

import pytest

from pexpfan import catalog
from pexpfan.fan import Cone, Fan, SubdivisionMap
from pexpfan.ktheory import PairingMatrix
from pexpfan.lattice import QuotientLattice, invariant, value_class
from pexpfan.laurent import LaurentPoly, LocalizationSum
from pexpfan.pexp import CartierData, GkmReport, GkmViolation, PiecewiseExponential


def _p1():
    return catalog.projective_line()


def _one():
    return LaurentPoly(1, (((0,), 1),))


# each factory builds fresh field values, so two calls give equal, distinct fields
FIELDS = {
    QuotientLattice: lambda: (((1, 0),), ((1,), (0,))),
    LaurentPoly: lambda: (2, (((0, 1), 3), ((1, 0), -1))),
    LocalizationSum: lambda: (1, ((_one(), ((1,),)),)),
    Cone: lambda: (2, ((0, 1), (1, 0))),
    Fan: lambda: (1, ((1,), (-1,)), ((0,), (1,))),
    SubdivisionMap: lambda: (_p1(), _p1(), (0, 1)),
    GkmViolation: lambda: (0, 1, (), _one(), LaurentPoly(1, ())),
    GkmReport: lambda: (True, None, ()),
    PiecewiseExponential: lambda: (_p1(), (_one(), _one())),
    CartierData: lambda: (((0,), (1,)),),
    PairingMatrix: lambda: (("f",), ("0",), ((_one(),),)),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    names = tuple(cls.__annotations__)
    fields = FIELDS[cls]()
    a, b = cls(*fields), cls(*FIELDS[cls]())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert cls(**dict(zip(names, fields))) == a
    for name, value in zip(names, fields):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields))
    assert repr(a) == f"{cls.__qualname__}({body})"
    others = [other(*FIELDS[other]()) for other in FIELDS if other is not cls]
    assert all((a == other) is False for other in others)
    assert a != fields


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_wrong_argument_lists_raise_type_error(cls):
    names = tuple(cls.__annotations__)
    fields = FIELDS[cls]()
    for args, kwargs in [
        (fields[:-1], {}),  # a field missing
        ((*fields, 0), {}),  # one argument too many
        (fields, {"extra": 0}),  # an unknown keyword
        (fields, {names[0]: fields[0]}),  # a field given twice
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_subdivision_map_checks_its_assignment():
    with pytest.raises(ValueError, match="assignment length"):
        SubdivisionMap(_p1(), _p1(), (0,))
    with pytest.raises(ValueError, match="assignment length"):
        SubdivisionMap(fine=_p1(), coarse=_p1(), assignment=(0, 1, 1))


def test_cached_properties_cache_on_the_instance():
    fan, fresh = Fan(*FIELDS[Fan]()), Fan(*FIELDS[Fan]())
    assert "walls" not in fan.__dict__
    walls = fan.walls
    assert fan.walls is walls and fan.__dict__["walls"] is walls
    assert "walls" not in fresh.__dict__ and fan == fresh and hash(fan) == hash(fresh)
    cone = Cone(2, ((0, 1), (1, 0)))
    assert "_scaled_inverse" not in cone.__dict__
    weights = cone._scaled_inverse
    assert cone._scaled_inverse is weights and cone.__dict__["_scaled_inverse"] is weights
    assert cone == Cone(2, ((0, 1), (1, 0)))


def test_an_invariant_is_computed_once_and_kept_in_vars():
    """A value class's invariant runs its method on the first read only,
    keeps the value in ``vars()`` beside the fields, where it shadows the
    descriptor, and leaves the instance refusing assignment."""
    calls = []

    @value_class
    class Pair:
        a: int
        b: int

        @invariant
        def total(self) -> int:
            """a + b."""
            calls.append(self)
            return self.a + self.b

    pair = Pair(2, 3)
    assert Pair.total.func.__name__ == "total" and Pair.total.__doc__ == "a + b." and "total" not in vars(pair)
    assert pair.total == 5 and pair.total == 5 and calls == [pair]
    assert vars(pair) == {"a": 2, "b": 3, "total": 5}
    with pytest.raises(AttributeError):
        pair.total = 6
    with pytest.raises(AttributeError):
        pair.a = 6
    assert pair == Pair(2, 3) and pair.total == 5 and calls == [pair]
    assert Pair(2, 3).total == 5 and len(calls) == 2
    assert isinstance(Cone.__dict__["_scaled_inverse"], invariant) and isinstance(Fan.__dict__["walls"], invariant)
