"""The immutable records: constructors, equality, hashing, immutability,
repr, pickling, and the construction hook of ``Filling``."""

from __future__ import annotations

import pickle

import pytest

from ctrect.jeu_de_taquin import SlideStep, SlideTrace
from ctrect.polynomials import Polynomial
from ctrect.tableaux import Filling, Violation
from ctrect.verify import Counterexample, VerifyReport, _Property

STEP = SlideStep((2, 1), (1, 1), 5, "up")

# Per class: the field names in constructor order, the field values of one
# record and of a record that differs from it in the last field.
CASES = {
    Filling: (("rows",), (((1,), (2,)),), (((1,), (3,)),)),
    Violation: (("rule", "cell", "message"), ("shape", (2, 1), "m"), ("shape", (2, 1), "n")),
    SlideStep: (
        ("from_cell", "to_cell", "entry", "direction"),
        ((2, 1), (1, 1), 5, "up"),
        ((2, 1), (1, 1), 5, "left"),
    ),
    SlideTrace: (
        ("removed_entry", "steps", "vacated_cell"),
        (7, (STEP,), (2, 1)),
        (7, (STEP,), (2, 2)),
    ),
    Polynomial: (("nvars", "terms"), (2, {(1, 0): 1}), (2, {(1, 0): 2})),
    Counterexample: (("instance", "expected", "actual"), ("i", "e", "a"), ("i", "e", "b")),
    VerifyReport: (
        ("name", "max_cells", "max_entry", "k_range", "instances", "counterexamples", "seconds"),
        ("roundtrip", 2, 2, None, 12, [], 0.5),
        ("roundtrip", 2, 2, None, 12, [], 0.25),
    ),
    _Property: (("kinds", "takes_k", "check"), (("ct",), True, repr), (("ct",), True, str)),
}
HASHABLE = {Filling, Violation, SlideStep, SlideTrace, Counterexample, _Property}
CLASSES = list(CASES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_only_to_the_same_class_with_equal_fields(cls):
    names, values, other = CASES[cls]
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b
    assert a != cls(*other) and not a == cls(*other)
    assert tuple(getattr(a, name) for name in names) == values
    assert a != values and values != a
    assert a != tuple(values) and not a == tuple(values)
    assert a != None  # noqa: E711


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hashing(cls):
    _, values, _ = CASES[cls]
    a, b = cls(*values), cls(*values)
    if cls in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_read_only_except_on_reports(cls):
    names, values, other = CASES[cls]
    record = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not _Property], ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    _, values, _ = CASES[cls]
    record = cls(*values)
    assert pickle.loads(pickle.dumps(record)) == record


def test_reprs():
    assert repr(Filling([[1]])) == "Filling(rows=((1,),))"
    assert repr(Filling()) == "Filling(rows=())"
    assert repr(Violation("shape", (2, 1), "m")) == "Violation(rule='shape', cell=(2, 1), message='m')"
    assert repr(STEP) == "SlideStep(from_cell=(2, 1), to_cell=(1, 1), entry=5, direction='up')"
    assert repr(SlideTrace(7, (), (1, 1))) == "SlideTrace(removed_entry=7, steps=(), vacated_cell=(1, 1))"
    assert repr(Polynomial(2, {(1, 0): 1, (0, 1): 0})) == "Polynomial(nvars=2, terms={(1, 0): 1})"
    assert repr(Counterexample("i", "e", "a")) == "Counterexample(instance='i', expected='e', actual='a')"
    assert repr(VerifyReport("p", 1, 2, (1, 1), 3, [], 0.5)) == (
        "VerifyReport(name='p', max_cells=1, max_entry=2, k_range=(1, 1), instances=3,"
        " counterexamples=[], seconds=0.5)"
    )


def test_filling_fields_cannot_be_deleted():
    f = Filling([[1]])
    with pytest.raises(AttributeError, match="^cannot delete field 'rows'$"):
        del f.rows
    assert f.rows == ((1,),)


def test_strs_are_the_text_renderings():
    assert str(Filling([[3, 2], [1]])) == "3 2\n1"
    assert str(Polynomial(2, {(0, 1): 1, (1, 0): 2})) == "2: 1,0\n1: 0,1"


def test_constructors_normalise_and_validate():
    assert Filling() == Filling(()) == Filling(rows=[])
    assert Filling([[1, None]]).rows == ((1, None),)
    with pytest.raises(ValueError, match="does not have 2 entries"):
        Polynomial(2, {(1,): 1})


def test_polynomial_replace_and_make_check_and_clean_terms():
    p = Polynomial(2, {(1, 0): 1})
    with pytest.raises(ValueError, match=r"exponent vector \(1,\) does not have 2 entries"):
        p._replace(terms={(1,): 0, (-1, 5, 5): 3})
    with pytest.raises(ValueError, match="negative exponent"):
        p._replace(terms={(-1, 5): 3})
    assert p._replace(terms={(0, 1): 0, (1, 1): 2}) == Polynomial(2, {(1, 1): 2})
    assert p._replace(terms={(0, 1): 0, (1, 1): 2}).terms == {(1, 1): 2}
    assert Polynomial._make([2, {(1, 1): 0}]) == Polynomial.zero(2)


def test_construction_hook_sees_validated_fillings_only():
    # What the benchmark's traced run does to count constructions: wrap the
    # class attribute, construct, put the original back.
    original = Filling.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        original(self)

    Filling.__post_init__ = counted
    try:
        Filling([[1]])
        assert len(calls) == 1
        Filling._trusted([[1]])
        assert len(calls) == 1
        with pytest.raises(ValueError):
            Filling([["1"]])
        assert len(calls) == 2
    finally:
        Filling.__post_init__ = original
    assert Filling([[1]]).rows == ((1,),)
    assert len(calls) == 2
