"""Value semantics of the package's immutable records.

Diagrams, bases, coordinate vectors and the small result records are
compared, hashed and rebuilt by their fields; these tests pin that
behaviour independently of how the classes are written.
"""

import copy
import pickle

import pytest

from tanglepoly.diagram import (TangleDiagram, ValidationReport,
                                edge_occurrences, replace, validate)
from tanglepoly.laurent import ONE, Q, ZERO
from tanglepoly.moves import MovePair, PairResult, SpliceSite
from tanglepoly.pairing import PairingMatrix, pairing_matrix
from tanglepoly.skein import Basis, CoordinateVector, enumerate_basis

SAMPLE = dict(m=2, n=2, crossings=((3, 4, 1, 2),), trivalent=[(7, 5, 6)],
              circles=[9], bottom=[1, 2], top=[3, 4], thick=[5])


def test_diagrams_equal_and_hash_alike_across_rotated_codes():
    a = TangleDiagram(**SAMPLE)
    b = TangleDiagram(**{**SAMPLE, "crossings": ((1, 2, 3, 4),),
                         "trivalent": ((6, 7, 5),), "thick": frozenset({5})})
    assert a == b and hash(a) == hash(b)
    assert a != TangleDiagram(**{**SAMPLE, "crossings": ((2, 3, 4, 1),)})
    assert a != replace(a, thick=frozenset())
    assert len({a, b, TangleDiagram(0, 0)}) == 2
    assert a.__eq__(tuple(SAMPLE.values())) is NotImplemented


def test_diagram_fields_cannot_be_assigned():
    d = TangleDiagram(**SAMPLE)
    with pytest.raises(AttributeError):
        d.m = 4
    with pytest.raises(AttributeError):
        del d.crossings
    assert d.m == 2


def test_replace_renormalises_like_the_constructor():
    d = TangleDiagram(**SAMPLE)
    assert replace(d) == d
    changed = replace(d, crossings=[(3, 4, 1, 2), (8, 9, 6, 7)], top=[4, 3])
    assert changed.crossings == ((1, 2, 3, 4), (6, 7, 8, 9))
    assert changed.top == (4, 3) and changed.circles == d.circles
    with pytest.raises(TypeError):
        replace(d, colour=1)


def test_diagram_repr_lists_every_field():
    assert repr(TangleDiagram(**SAMPLE)) == (
        "TangleDiagram(m=2, n=2, crossings=((1, 2, 3, 4),), "
        "trivalent=((5, 6, 7),), fourvalent=(), circles=(9,), "
        "bottom=(1, 2), top=(3, 4), thick=frozenset({5}))")
    assert repr(TangleDiagram(0, 0)) == (
        "TangleDiagram(m=0, n=0, crossings=(), trivalent=(), fourvalent=(), "
        "circles=(), bottom=(), top=(), thick=frozenset())")


def test_the_cached_index_and_report_are_no_fields():
    d = TangleDiagram(**SAMPLE)
    fresh = TangleDiagram(**SAMPLE)
    text, key = repr(d), hash(d)
    edge_occurrences(d)
    validate(d)
    assert d._occurrences is not None and d._report is not None
    assert d == fresh and fresh == d
    assert hash(d) == key == hash(fresh)
    assert repr(d) == text == repr(fresh)
    assert replace(d)._report is None


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_diagrams_copy_and_pickle_without_their_caches(how):
    d = TangleDiagram(**SAMPLE)
    report = validate(d)
    twin = COPIES[how](d)
    assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
    assert twin._occurrences is None and twin._report is None
    assert validate(twin) == report
    assert d._report is report


@pytest.mark.parametrize("how", sorted(COPIES))
def test_bases_and_vectors_copy_and_pickle(how):
    basis = enumerate_basis(2, 2)
    twin = COPIES[how](basis)
    assert twin == basis and hash(twin) == hash(basis)
    assert twin.index_of(basis.elements[1]) == 1
    u = CoordinateVector(basis, (ONE, Q))
    v = COPIES[how](u)
    assert v == u and hash(v) == hash(u) and v.as_dict() == u.as_dict()


def test_bases_and_vectors_compare_by_value():
    basis = enumerate_basis(2, 2)
    twin = Basis(2, 2, basis.elements)
    assert twin == basis and hash(twin) == hash(basis)
    assert twin.index_of(basis.elements[1]) == 1
    assert basis != Basis(2, 2, basis.elements[::-1])
    assert basis != enumerate_basis(1, 3)
    u = CoordinateVector(basis, (ONE, Q))
    v = CoordinateVector(twin, (ONE, Q))
    assert u == v and hash(u) == hash(v)
    assert u != CoordinateVector(basis, (ONE, ZERO))
    with pytest.raises(ValueError):
        CoordinateVector(basis, (ONE,))


def test_records_compare_field_by_field():
    assert ValidationReport(True, ()) == ValidationReport(ok=True, problems=())
    assert ValidationReport(False, ("x",)).problems == ("x",)
    assert SpliceSite(1, 0, 2, 1) == SpliceSite(edge_a=1, end_a=0,
                                                edge_b=2, end_b=1)
    assert SpliceSite(1, 0, 2, 1) != SpliceSite(1, 0, 2, 0)
    pair = MovePair("r2", "a.tng", "b.tng", "R2", "exact")
    assert pair == MovePair(name="r2", file_a="a.tng", file_b="b.tng",
                            move="R2", expected="exact")
    assert hash(pair) == hash(MovePair(*"r2 a.tng b.tng R2 exact".split()))
    assert PairResult("r2", "R2", "exact", True).detail == ""
    assert PairResult("r2", "R2", "exact", True) == PairResult(
        "r2", "R2", "exact", ok=True, detail="")
    assert PairResult("r2", "R2", "exact", False, "x") != PairResult(
        "r2", "R2", "exact", False, "y")
    matrix = pairing_matrix(2, 2)
    assert matrix == PairingMatrix(enumerate_basis(2, 2), matrix.entries)
    assert matrix.basis.m == 2 and len(matrix.entries) == 2
