import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from tanglepoly.diagram import TangleDiagram, is_isomorphic, load_tng
from tanglepoly.enhanced import (STATE_PATTERNS, check_enhancement, contract,
                                 enhancements_by_vertex_sums,
                                 enumerate_enhancements, expand_states,
                                 invariant_rho, invariant_rho_poly,
                                 invariant_total, invariant_total_poly,
                                 state_polys)
from tanglepoly.errors import DomainError, InvalidDiagramError
from tanglepoly.generate import random_trivalent
from tanglepoly.laurent import LaurentPoly, ROOT_INDICES, ZERO, delta_power
from tanglepoly.moves import insert_kink
from tanglepoly.pairing import p_poly


def D(**kw):
    kw.setdefault("m", 0)
    kw.setdefault("n", 0)
    return TangleDiagram(**kw)


def theta():
    return load_tng(fixture_path("theta.tng"))


def handcuff():
    return load_tng(fixture_path("handcuff.tng"))


def test_enhancement_counts_on_fixtures():
    assert enumerate_enhancements(theta()) == (
        frozenset({1}), frozenset({2}), frozenset({3}))
    assert enumerate_enhancements(handcuff()) == (frozenset({2}),)
    assert enumerate_enhancements(load_tng(fixture_path("circle.tng"))) == \
        (frozenset(),)
    assert enumerate_enhancements(
        load_tng(fixture_path("all_external.tng"))) == ()


def test_subset_oracle_agrees_on_fixtures():
    for name in ("theta", "handcuff", "circle", "all_external"):
        d = load_tng(fixture_path(f"{name}.tng"))
        assert enumerate_enhancements(d) == enhancements_by_vertex_sums(d), name


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_subset_oracle_agrees_on_random_graphs(seed):
    d = random_trivalent(random.Random(seed), max_vertices=6)
    assert enumerate_enhancements(d) == enhancements_by_vertex_sums(d)


def test_vertex_sum_rule_loops_count_twice():
    # the handcuff loops force value 1, so the middle edge must be thick
    assert enhancements_by_vertex_sums(handcuff()) == (frozenset({2}),)
    # a disjoint union matches componentwise: one choice per handcuff
    dumbbell = D(trivalent=((1, 1, 2), (2, 3, 3), (4, 4, 5), (5, 6, 6)))
    assert enumerate_enhancements(dumbbell) == (frozenset({2, 5}),)
    assert enhancements_by_vertex_sums(dumbbell) == (frozenset({2, 5}),)


def test_crossed_strand_between_vertices_is_rejected():
    kinked = insert_kink(theta(), 2)
    with pytest.raises(DomainError):
        enumerate_enhancements(kinked)


def test_loop_through_crossings_back_to_its_vertex_is_thin():
    # lobe of the loop poked by a boundary strand: still enumerable
    d = load_tng(fixture_path("pairs/r4_a.tng"))
    assert enumerate_enhancements(d) == (frozenset({2}),)


def test_check_enhancement_errors():
    with pytest.raises(DomainError):
        check_enhancement(theta(), frozenset({2, 3}))  # doubly covered vertex
    with pytest.raises(DomainError):
        check_enhancement(theta(), frozenset())  # uncovered vertex
    with pytest.raises(DomainError):
        check_enhancement(theta(), frozenset({9}))  # no such edge
    with pytest.raises(DomainError):
        check_enhancement(handcuff(), frozenset({1}))  # loop
    with pytest.raises(DomainError):
        check_enhancement(
            load_tng(fixture_path("all_external.tng")), frozenset({1}))


def test_contract_theta_gives_one_fourvalent_vertex():
    c = contract(theta(), frozenset({2}))
    assert not c.trivalent
    assert not c.thick
    assert len(c.fourvalent) == 1
    assert is_isomorphic(c, D(fourvalent=((1, 2, 2, 1),)))


def test_contract_handcuff_keeps_both_loops():
    c = contract(handcuff(), frozenset({2}))
    assert len(c.fourvalent) == 1
    assert is_isomorphic(c, D(fourvalent=((1, 1, 2, 2),)))


def test_contract_checks_the_enhancement():
    with pytest.raises(DomainError):
        contract(theta(), frozenset({1, 2}))


def test_contract_leaves_strand_diagrams_alone():
    d = load_tng(fixture_path("trefoil.tng"))
    assert contract(d, frozenset()) == d


def test_expand_states_counts():
    assert len(list(expand_states(D(circles=(1,))))) == 1
    one_f = contract(theta(), frozenset({2}))
    assert len(list(expand_states(one_f))) == 4
    two_f = load_tng(fixture_path("pairs/n4_a.tng"))
    assert len(list(expand_states(two_f))) == 16


def test_expand_states_requires_contraction():
    with pytest.raises(InvalidDiagramError):
        list(expand_states(theta()))


def test_expand_states_pattern_semantics():
    d = load_tng(fixture_path("pattern_identity.tng"))
    by_pattern = {patterns[0]: state for patterns, state in expand_states(d)}
    assert set(by_pattern) == set(STATE_PATTERNS)
    # T- keeps the code's under-pair, T+ the rotated one
    assert by_pattern["T-"].crossings == ((1, 2, 4, 3),)
    assert by_pattern["T+"].crossings == ((2, 4, 3, 1),)
    # T0 joins adjacent ends pairwise, Tinf the other way
    assert p_poly(by_pattern["T0"]) == delta_power(4)
    assert p_poly(by_pattern["Tinf"]) == delta_power(2)
    assert not by_pattern["T0"].crossings
    assert not by_pattern["Tinf"].crossings


def test_state_polys_sum_to_the_rho_invariant():
    for rho in enumerate_enhancements(theta()):
        contracted = contract(theta(), rho)
        total = ZERO
        for _, poly in state_polys(contracted):
            total = total + poly
        assert total == invariant_rho_poly(theta(), rho)


def test_theta_rho_invariants_agree_by_symmetry():
    polys = {invariant_rho_poly(theta(), rho)
             for rho in enumerate_enhancements(theta())}
    assert len(polys) == 1


def test_invariant_rho_matches_handcuff_total():
    # contracting theta on any edge and the handcuff on its middle edge
    # both yield a single 4-valent vertex with two loops' worth of states
    assert invariant_rho_poly(theta(), frozenset({2})) == \
        invariant_total_poly(handcuff())


GOLDEN_TOTALS = {
    "circle": LaurentPoly({4: 1, 0: 2, -4: 1}),
    "theta": LaurentPoly({8: 3, 4: 21, 0: 36, -4: 21, -8: 3}),
    "handcuff": LaurentPoly({8: 1, 4: 7, 0: 12, -4: 7, -8: 1}),
    "all_external": ZERO,
}

GOLDEN_ROOT_VALUES = {"circle": 3.0, "theta": 54.0, "handcuff": 18.0,
                      "all_external": 0.0}


def test_invariant_total_polynomial_goldens():
    for name, expected in GOLDEN_TOTALS.items():
        d = load_tng(fixture_path(f"{name}.tng"))
        assert invariant_total_poly(d) == expected, name


def test_invariant_total_root_values():
    for name, expected in GOLDEN_ROOT_VALUES.items():
        d = load_tng(fixture_path(f"{name}.tng"))
        for k in ROOT_INDICES:
            z = invariant_total(d, k)
            assert abs(z - expected) < 1e-9, (name, k)


def test_invariant_functions_validate_the_root_index():
    d = load_tng(fixture_path("circle.tng"))
    with pytest.raises(DomainError):
        invariant_total(d, 3)
    with pytest.raises(DomainError):
        invariant_rho(d, frozenset(), 4)


def test_invariant_of_pure_strand_diagram_is_its_pairing():
    d = load_tng(fixture_path("trefoil.tng"))
    assert invariant_total_poly(d) == p_poly(d)


def test_fourvalent_diagrams_have_the_empty_enhancement():
    d = load_tng(fixture_path("pattern_identity.tng"))
    assert enumerate_enhancements(d) == (frozenset(),)
    total = invariant_total_poly(d)
    states = state_polys(d)
    assert len(states) == 4
    summed = ZERO
    for _, poly in states:
        summed = summed + poly
    assert total == summed
