"""`Record`, the base of every value class: construction, value semantics, immutability.

The oracle for repr, equality and the constructor signature is a frozen
dataclass built here with the same name, fields and defaults: the records
replaced such dataclasses and must behave like them wherever it is visible.
"""
import dataclasses
import inspect
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

import cf_lattice.cli  # noqa: F401  (loads every library module, so every record class exists)
from cf_lattice import (
    Isometry,
    Lattice,
    RootSystemLabel,
    Sublattice,
    discriminant_data,
    standard_lattice,
)
from cf_lattice._record import Record
from cf_lattice.period import HyperplaneClass
from cf_lattice.report import VerificationReport, jsonable, make_report
from cf_lattice.spectra import QhSingularity


RECORD_CLASSES = sorted(
    (c for c in Record.__subclasses__() if c.__module__.startswith("cf_lattice.")),
    key=lambda c: (c.__module__, c.__qualname__))
A2 = ((2, -1), (-1, 2))


def _bare(cls, values):
    """An instance of `cls` holding `values`, made without running its validation."""
    obj = cls.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj


def _dataclass_twin(cls):
    specs = [(f, object, dataclasses.field(default=getattr(cls, f))) if hasattr(cls, f)
             else (f, object) for f in cls._fields]
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def test_every_value_class_is_a_record():
    assert len(RECORD_CLASSES) == 22
    names = {c.__qualname__ for c in RECORD_CLASSES}
    assert {"Lattice", "Sublattice", "FiniteQuadraticForm", "VerificationReport", "E6Split",
            "SpectrumMultiset", "RootSystemLabel", "GluedLattice"} <= names


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
def test_record_matches_a_frozen_dataclass(cls):
    twin = _dataclass_twin(cls)
    params = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    assert params == [(p.name, p.default) for p in inspect.signature(twin).parameters.values()]
    values = tuple(range(len(cls._fields)))
    record = _bare(cls, values)
    if "__repr__" not in cls.__dict__:
        assert repr(record) == repr(twin(*values))
        if "__str__" not in cls.__dict__:
            assert str(record) == jsonable(record) == repr(twin(*values))
    assert record == _bare(cls, values) and hash(record) == hash(_bare(cls, values))
    assert record != _bare(cls, (-1,) + values[1:])
    assert record != values and values != record
    assert record != twin(*values)


def test_equality_holds_only_within_a_class():
    # two library classes given the same values never compare equal
    records = [_bare(cls, tuple(range(len(cls._fields)))) for cls in RECORD_CLASSES]
    for a, b in combinations(records, 2):
        assert a != b and not a == b
    lat = Lattice(A2)

    class Twin(Record):
        gram: tuple
        name: str | None = None

    assert Twin(A2) != lat and lat != Twin(A2)
    assert lat != (A2, None) and lat != (A2,) and (A2, None) != lat
    assert lat.__eq__((A2, None)) is NotImplemented
    assert lat == Lattice(A2) and lat != Lattice(A2, name="A2")


def test_construction_by_position_keyword_and_default():
    assert HyperplaneClass(6, "other") == HyperplaneClass(family="other", det=6)
    assert Lattice(A2).name is None and Lattice(A2, "A2").name == "A2"
    report = VerificationReport("c", "pass", 1, 1)
    assert (report.witnesses, report.paper_ref, report.elapsed_ms) == ((), "", 0)
    assert make_report("c", 1, 1) == report
    assert list(inspect.signature(VerificationReport).parameters) == [
        "check", "status", "expected", "actual", "witnesses", "paper_ref", "elapsed_ms"]
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'family'"):
        HyperplaneClass(6)
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        HyperplaneClass(6, "other", colour="red")
    with pytest.raises(TypeError):
        HyperplaneClass(6, "other", "extra")
    with pytest.raises(TypeError, match="follows one with"):
        class Bad(Record):
            a: int = 0
            b: int


def test_equal_values_give_equal_hashes():
    assert hash(Lattice(A2)) == hash(Lattice(tuple(map(tuple, [[2, -1], [-1, 2]]))))
    assert hash(RootSystemLabel.parse("E6+A1")) == hash(RootSystemLabel.parse("A1+E6"))
    classes = {HyperplaneClass(6, "other"), HyperplaneClass(6, "other"), HyperplaneClass(3, "")}
    assert len(classes) == 2
    one, two = (discriminant_data(standard_lattice("E6")) for _ in range(2))
    assert one == two and one is not two and hash(one.form) == hash(two.form)


def test_assignment_and_deletion_raise_attribute_error():
    lat = Lattice(A2, "A2")
    with pytest.raises(AttributeError, match="cannot assign to field 'name'"):
        lat.name = "other"
    with pytest.raises(AttributeError):
        lat.colour = "red"
    with pytest.raises(AttributeError, match="cannot delete field 'gram'"):
        del lat.gram
    lat.det()
    with pytest.raises(AttributeError):
        del lat._elimination
    assert lat.name == "A2" and lat.gram == A2 and not hasattr(lat, "colour")


def test_cached_property_caches_on_a_lattice():
    lat = standard_lattice("E8")
    assert "_elimination" not in vars(lat)
    assert lat.det() == 1
    cached = vars(lat)["_elimination"]
    assert lat.signature() == (8, 0) and lat._elimination is cached
    # the cache is not a field: no effect on equality, hash or a replaced copy
    fresh = Lattice(lat.gram, lat.name)
    assert fresh == lat and hash(fresh) == hash(lat)
    assert "_elimination" not in vars(lat.replace(name="E8'"))


def test_replace_builds_a_new_validated_record():
    lat = Lattice(A2)
    named = lat.replace(name="A2")
    assert (named.gram, named.name, lat.name) == (A2, "A2", None)
    assert lat.replace() == lat and lat.replace() is not lat
    with pytest.raises(ValueError, match="symmetric"):
        lat.replace(gram=((2, -1), (0, 2)))
    with pytest.raises(ValueError, match="between 0 and 1"):
        QhSingularity((Fraction(1, 2),) * 3).replace(weights=(Fraction(1, 2), Fraction(1)))
    with pytest.raises(TypeError, match="unexpected keyword argument 'rank'"):
        lat.replace(rank=3)


def test_post_init_validators_fire():
    with pytest.raises(ValueError, match="square"):
        Lattice(((2, 1),))
    with pytest.raises(ValueError, match="symmetric"):
        Lattice(((2, 1), (0, 2)))
    with pytest.raises(ValueError, match="independent"):
        Sublattice(Lattice(A2), ((1, 0), (2, 0)))
    with pytest.raises(ValueError, match="length"):
        Sublattice(Lattice(A2), ((1, 0, 0),))
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="between 0 and 1"):
            QhSingularity((Fraction(1, 2), bad, Fraction(1, 3)))
    with pytest.raises(ValueError, match="preserve"):
        Isometry(Lattice(A2), ((1, 1), (0, 1)))
    assert Isometry(Lattice(A2), ((0, 1), (1, 0))).det() == -1


def test_records_round_trip_through_pickle():
    data = discriminant_data(standard_lattice("E6"))
    for value in (Lattice(A2, "A2"), data, RootSystemLabel.parse("E6^4"), make_report("c", 1, 1)):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
        with pytest.raises(AttributeError):
            back.extra = 1
