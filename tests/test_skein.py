import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from tanglepoly.diagram import TangleDiagram, load_tng
from tanglepoly.errors import DomainError, InvalidDiagramError
from tanglepoly.generate import mirror, random_tangle
from tanglepoly.laurent import DELTA, LaurentPoly, ONE, delta_power
from tanglepoly.skein import (CoordinateVector, bracket, bracket_oracle,
                              circular_position, enumerate_basis,
                              format_matching, is_noncrossing, resolve_flat,
                              vector_bar)

CATALAN = {0: 1, 1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}


def test_circular_positions():
    # bottom runs left to right, the top is numbered from the right
    assert circular_position(2, 2, "bot", 0) == 1
    assert circular_position(2, 2, "bot", 1) == 2
    assert circular_position(2, 2, "top", 0) == 4
    assert circular_position(2, 2, "top", 1) == 3
    assert circular_position(3, 1, "top", 0) == 4


def test_is_noncrossing():
    assert is_noncrossing(((1, 2), (3, 4)))
    assert is_noncrossing(((1, 4), (2, 3)))
    assert not is_noncrossing(((1, 3), (2, 4)))
    assert is_noncrossing(())


def test_basis_counts_are_catalan():
    for m in range(0, 7):
        for n in range(0, 7):
            if (m + n) % 2 or (m + n) // 2 > 6:
                continue
            assert len(enumerate_basis(m, n)) == CATALAN[(m + n) // 2]


def test_the_basis_cache_is_bounded():
    bound = enumerate_basis.cache_info().maxsize
    assert bound is not None and bound < 64
    shapes = [(m, k - m) for k in range(0, 14, 2) for m in range(k + 1)]
    assert len(shapes) >= 3 * bound
    for m, n in shapes:
        enumerate_basis(m, n)
    assert enumerate_basis.cache_info().currsize <= bound


def test_basis_22_order_and_formatting():
    basis = enumerate_basis(2, 2)
    assert [format_matching(mt) for mt in basis.elements] == \
        ["(1,2)(3,4)", "(1,4)(2,3)"]


def test_basis_elements_are_sorted_noncrossing_matchings():
    basis = enumerate_basis(3, 3)
    assert len(basis) == 5
    for mt in basis.elements:
        assert is_noncrossing(mt)
        assert mt == tuple(sorted(mt))
    assert list(basis.elements) == sorted(basis.elements)


def test_basis_rejects_odd_or_negative_boundaries():
    with pytest.raises(DomainError):
        enumerate_basis(1, 2)
    with pytest.raises(DomainError):
        enumerate_basis(-2, 2)


def test_basis_and_bracket_refuse_wide_boundaries():
    with pytest.raises(DomainError, match=r"\(m\+n\)/2 <= 11"):
        enumerate_basis(12, 12)
    strands = tuple(range(1, 13))
    with pytest.raises(DomainError, match=r"\(m\+n\)/2 <= 11"):
        bracket(TangleDiagram(m=12, n=12, bottom=strands, top=strands))


def test_coordinate_vector_shape_is_checked():
    basis = enumerate_basis(2, 2)
    with pytest.raises(ValueError):
        CoordinateVector(basis, (ONE,))


def test_resolve_flat_identity():
    d = load_tng(fixture_path("identity_22.tng"))
    matching, circles = resolve_flat(d)
    assert matching == ((1, 4), (2, 3))
    assert circles == 0


def test_resolve_flat_counts_circles():
    d = load_tng(fixture_path("two_circles.tng"))
    assert resolve_flat(d) == ((), 2)


def test_resolve_flat_rejects_crossings():
    with pytest.raises(InvalidDiagramError):
        resolve_flat(load_tng(fixture_path("sigma.tng")))


def test_bracket_identity_is_a_basis_vector():
    vec = bracket(load_tng(fixture_path("identity_22.tng")))
    assert vec.as_dict() == {((1, 4), (2, 3)): ONE}


def test_bracket_one_crossing():
    vec = bracket(load_tng(fixture_path("one_crossing.tng")))
    assert vec.coords == (LaurentPoly({1: 1}), LaurentPoly({-1: 1}))


def test_bracket_of_a_circle_is_delta():
    assert bracket(load_tng(fixture_path("circle.tng"))).coords == (DELTA,)
    assert bracket(load_tng(fixture_path("two_circles.tng"))).coords == \
        (delta_power(2),)


def test_bracket_triple_crossing_identity():
    # <sigma^3> has coordinates (q - q^-3 + q^-7, q^3) on the (2,2) basis
    vec = bracket(load_tng(fixture_path("sigma_cubed.tng")))
    assert vec.coords == (LaurentPoly({1: 1, -3: -1, -7: 1}),
                          LaurentPoly({3: 1}))


def test_bracket_mirror_conjugates_coordinates():
    for name in ("sigma", "sigma_cubed", "trefoil"):
        d = load_tng(fixture_path(f"{name}.tng"))
        flipped = bracket(mirror(d))
        assert flipped.coords == vector_bar(bracket(d)).coords


def test_vector_bar_is_an_involution():
    vec = bracket(load_tng(fixture_path("sigma_cubed.tng")))
    assert vector_bar(vector_bar(vec)).coords == vec.coords


def test_bracket_rejects_graph_diagrams():
    with pytest.raises(DomainError):
        bracket(load_tng(fixture_path("theta.tng")))
    with pytest.raises(DomainError):
        bracket(load_tng(fixture_path("pattern_identity.tng")))
    with pytest.raises(DomainError):
        bracket_oracle(load_tng(fixture_path("pattern_identity.tng")))


def test_bracket_of_the_arc():
    d = TangleDiagram(m=1, n=1, crossings=(), bottom=(1,), top=(1,))
    assert bracket(d).as_dict() == {((1, 2),): ONE}


def test_bracket_rejects_thick_sets():
    # a thick edge must join two trivalent vertices: the set makes the
    # diagram invalid before the bracket's strand check sees it
    d = TangleDiagram(m=1, n=1, crossings=(), bottom=(1,), top=(1,),
                      thick=frozenset({1}))
    with pytest.raises(InvalidDiagramError):
        bracket(d)


def test_oracle_matches_on_fixtures(fixtures_dir):
    checked = 0
    for path in sorted(fixtures_dir.rglob("*.tng")):
        if path.parent.name == "bad":
            continue
        d = load_tng(path)
        if d.trivalent or d.fourvalent or d.thick:
            continue
        assert bracket(d).coords == bracket_oracle(d).coords, path.name
        checked += 1
    assert checked >= 21


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_oracle_matches_on_random_diagrams(seed):
    d = random_tangle(random.Random(seed), max_crossings=8)
    assert bracket(d).coords == bracket_oracle(d).coords


def test_closed_diagram_coordinates_are_scalars():
    vec = bracket(load_tng(fixture_path("trefoil.tng")))
    assert len(vec.basis) == 1
    assert vec.basis.elements == ((),)
    # |scalar|^2 at the admissible roots is the pairing value 9
    squared = vec.coords[0] * vec.coords[0].bar()
    for k in (1, 5, 7, 11, 13, 17, 19, 23):
        assert abs(squared.eval_root(k) - 9.0) < 1e-9
