"""The record classes: value semantics of the cache keys, fresh list
defaults, and the repr that reaches users through error messages."""

import copy
import pickle

import pytest

from sphecke.arch import GammaFactorResult
from sphecke.errors import WindowError
from sphecke.lseries import VerifyReport
from sphecke.rootdata import (
    RepSpec,
    build_gl,
    build_preset,
    datum_from_json,
    datum_to_json,
)
from sphecke.satake import CELLS, GradedElement, Window


# (a, b, other, a field): a and b equal but built apart, other different
TWINS = pytest.mark.parametrize(
    "a, b, other, name",
    [
        (build_preset("b2"), datum_from_json(datum_to_json(build_preset("b2"))), build_gl(3),
         "positive_roots"),
        (RepSpec((1, 0)), RepSpec((1, 0)), RepSpec((2, -1)), "highest_weight"),
        (Window(None, 3), Window(None, 3), Window(0, 3), "lo"),
    ],
    ids=["RootDatum", "RepSpec", "Window"],
)


@TWINS
def test_value_equality_and_hash(a, b, other, name):
    assert a is not b
    assert a == b and not a != b
    assert a != other
    assert hash(a) == hash(b) == hash(a)
    assert len({a, b, other}) == 2


@TWINS
def test_value_is_read_only(a, b, other, name):
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, before)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, name) is before and a == b


@TWINS
def test_value_copies_and_pickles(a, b, other, name):
    for back in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert back == a and hash(back) == hash(a)


def test_equality_is_same_class_only():
    # a tuple with the same fields is not a window: the cache keys stay typed
    assert Window(None, 3) != (None, 3)
    assert RepSpec((1, 0)) != ((1, 0),)
    assert Window(1, 0) != RepSpec(1)


def test_window_repr_reaches_window_errors():
    assert repr(Window(None, 3)) == "Window(lo=None, hi=3)"
    assert str(Window(0, None)) == "Window(lo=0, hi=None)"
    element = GradedElement(build_gl(1), CELLS, {}, Window(None, 3))
    with pytest.raises(WindowError, match=r"known window Window\(lo=None, hi=3\)$"):
        element.coefficient(4, (4,))


def test_list_defaults_are_fresh_per_instance():
    a, b = VerifyReport("a"), VerifyReport("b")
    a.check("part", 0, 0, None)
    assert a.checks == [{"part": "part", "grades": [0, 0], "ok": True}] and b.checks == []
    assert GammaFactorResult(1, 1, 0.0).flags is not GammaFactorResult(1, 1, 0.0).flags


def test_mutable_records_compare_by_fields_and_do_not_hash():
    assert VerifyReport("a") == VerifyReport("a", "PASS", [], None)
    assert VerifyReport("a") != VerifyReport("a", "FAIL")
    assert repr(VerifyReport("a")) == (
        "VerifyReport(name='a', status='PASS', checks=[], first_mismatch=None)"
    )
    with pytest.raises(TypeError):
        hash(VerifyReport("a"))
