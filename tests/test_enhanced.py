import glob
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_path
from tanglepoly import enhanced, pairing, skein
from tanglepoly.diagram import (TangleDiagram, _min_rotation, edge_occurrences,
                                ensure_valid, load_tng, max_label, merge_edges,
                                parse_tng, read_text, replace)
from tanglepoly.enhanced import (STATE_PATTERNS, check_enhancement, contract,
                                 enhancements_by_vertex_sums,
                                 enumerate_enhancements, expand_states,
                                 invariant_rho_poly, invariant_total_poly,
                                 state_polys)
from tanglepoly.errors import DomainError, InvalidDiagramError
from tanglepoly.generate import (MAX_ACTIVE, SpliceSite, _MorseBuilder,
                                 braid_pattern, insert_kink, is_isomorphic,
                                 random_splice_site, random_tangle,
                                 random_trivalent, reflect, relabeled,
                                 splice_22, tensor)
from tanglepoly.laurent import LaurentPoly, ROOT_INDICES, ZERO, delta_power
from tanglepoly.pairing import p_poly
from test_cli import _ladder, _ladder_and_claws


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


def test_no_enhancement_is_searched_for_once_the_count_is_zero(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enhancements searched")

    d = ensure_valid(_ladder_and_claws(24))
    monkeypatch.setattr(enhanced, "_matchings", refuse)
    assert enumerate_enhancements(d) == ()


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


def test_enumeration_and_contraction_validate_first():
    # labels 1 and 4 occur once each
    d = D(trivalent=((1, 2, 3), (3, 2, 4)))
    with pytest.raises(InvalidDiagramError, match="label 1 occurs 1"):
        enumerate_enhancements(d)
    with pytest.raises(InvalidDiagramError, match="label 1 occurs 1"):
        contract(d, frozenset({2}))


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
            z = invariant_total_poly(d).eval_root(k)
            assert abs(z - expected) < 1e-9, (name, k)


def test_invariant_functions_validate_the_root_index():
    d = load_tng(fixture_path("circle.tng"))
    with pytest.raises(DomainError):
        invariant_total_poly(d).eval_root(3)
    with pytest.raises(DomainError):
        invariant_rho_poly(d, frozenset()).eval_root(4)


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


def _oracle_rho_poly(d, rho):
    return sum((poly for _, poly in state_polys(contract(d, rho))), ZERO)


def _assert_matches_oracle(d, name):
    rhos = [frozenset(d.thick)] if d.thick else enumerate_enhancements(d)
    for rho in rhos:
        assert invariant_rho_poly(d, rho) == _oracle_rho_poly(d, rho), (name, rho)
    return len(rhos)


def test_flat_states_match_the_state_oracle_on_fixtures():
    checked = 0
    for path in sorted(glob.glob(str(FIXTURES / "*.tng"))
                       + glob.glob(str(FIXTURES / "pairs" / "*.tng"))):
        d = load_tng(path)
        try:
            checked += _assert_matches_oracle(d, path)
        except DomainError:
            # a strand through crossings joins two vertices: not enumerable
            assert not d.thick and d.crossings
    assert checked >= 30


def _splice_braids(rng, d):
    """d with up to two random braid patterns spliced in."""
    for _ in range(rng.randint(1, 2)):
        site = random_splice_site(rng, d)
        if site is None:
            break
        signs = [rng.choice((1, -1)) for _ in range(rng.randint(1, 3))]
        d = splice_22(d, site, braid_pattern(*signs))
    return d


def _check_spliced(seed):
    """Check a random graph with braids spliced in before and after each
    contraction; returns the number of checked enhancements with crossings."""
    rng = random.Random(seed)
    graph = random_trivalent(rng, max_vertices=6)
    checked = 0
    spliced = _splice_braids(rng, graph)
    try:
        enumerate_enhancements(spliced)
    except DomainError:
        pass  # a strand through crossings joins two vertices
    else:
        checked += _assert_matches_oracle(spliced, seed) if spliced.crossings else 0
    for rho in enumerate_enhancements(graph):
        c = _splice_braids(rng, contract(graph, rho))
        if c.crossings:
            checked += _assert_matches_oracle(c, (seed, sorted(rho)))
    return checked


def test_flat_states_match_the_state_oracle_on_spliced_graphs():
    assert sum(_check_spliced(seed) for seed in range(40)) >= 40


@settings(max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_flat_states_match_the_state_oracle_on_drawn_seeds(seed):
    _check_spliced(seed)


def _braid_graph(seed, strands, boundary, length, vertices):
    """(boundary, boundary) graph tangle from a seeded braid word on strands
    strands: `vertices` of its crossings become 4-valent vertices, and the
    strands right of the boundary are capped off in pairs at both ends."""
    rng = random.Random(seed)
    ends = list(range(1, strands + 1))
    nodes = []
    for k in range(length):
        i = rng.randrange(strands - 1)
        x, y = ends[i], ends[i + 1]
        u, v = strands + 2 * k + 1, strands + 2 * k + 2
        nodes.append((y, v, u, x) if rng.random() < 0.5 else (x, y, v, u))
        ends[i], ends[i + 1] = u, v
    picks = set(rng.sample(range(length), vertices))
    d = D(m=boundary, n=boundary,
          crossings=tuple(t for k, t in enumerate(nodes) if k not in picks),
          fourvalent=tuple(t for k, t in enumerate(nodes) if k in picks),
          bottom=tuple(range(1, boundary + 1)), top=tuple(ends[:boundary]))
    caps = list(zip(range(boundary + 1, strands, 2),
                    range(boundary + 2, strands + 1, 2)))
    caps += zip(ends[boundary::2], ends[boundary + 1::2])
    return ensure_valid(merge_edges(d, caps))


@pytest.mark.parametrize("boundary", [1, 2, 3, 4])
def test_coupled_sweep_matches_the_state_oracle_on_braid_graphs(boundary):
    for seed in range(6):
        d = _braid_graph(seed, boundary + 2, boundary, 6, 3)
        assert (d.m, d.n, len(d.fourvalent)) == (boundary, boundary, 3)
        _assert_matches_oracle(d, (boundary, seed))


def test_coupled_sweep_matches_the_state_oracle_at_a_wide_boundary():
    # the shape that took minutes through the pairing matrix, at 4 vertices
    d = _braid_graph(3, 8, 8, 12, 4)
    assert (d.m, len(d.crossings), len(d.fourvalent)) == (8, 8, 4)
    _assert_matches_oracle(d, "wide")


def test_doubled_closure_is_the_plat_closure_of_d_beside_its_reflection():
    # tensor and reflect build D (x) reflect(D) as a diagram: the oracle of
    # the closure _doubled_closure reads off D's label tuples
    paths = sorted(FIXTURES.glob("*.tng")) + sorted(FIXTURES.glob("pairs/*.tng"))
    diagrams = [load_tng(str(path)) for path in paths]
    for seed in range(50):
        diagrams.append(random_tangle(random.Random(seed), max_crossings=8))
        diagrams.append(random_trivalent(random.Random(seed)))
    assert len(diagrams) >= 135
    for d in diagrams:
        crossings, circles, caps = enhanced._doubled_closure(d, max_label(d))
        t = tensor(d, reflect(d))
        assert sorted(_min_rotation(c, (0, 2)) for c in crossings) == \
            sorted(_min_rotation(c, (0, 2)) for c in t.crossings), d
        assert circles == len(t.circles), d
        assert caps == pairing._caps(t.bottom, t.top), d


def test_state_sum_builds_no_basis_and_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a basis, matrix or bracket vector was built")

    cases = [(contract(theta(), frozenset({2})), GOLDEN_TOTALS["handcuff"])]
    for boundary in (1, 4):
        d = _braid_graph(boundary, boundary + 2, boundary, 6, 3)
        cases.append((d, _oracle_rho_poly(d, frozenset())))
    for owner, name in ((skein, "enumerate_basis"), (skein, "bracket"),
                        (pairing, "enumerate_basis"), (pairing, "bracket"),
                        (pairing, "pairing_matrix"), (pairing, "pair"),
                        (pairing, "p_poly"), (enhanced, "p_poly")):
        monkeypatch.setattr(owner, name, refuse)
    for c, expected in cases:
        assert invariant_total_poly(c) == expected


def _count_sweeps(monkeypatch):
    """Count the frontier sweeps of the state sums, and refuse every route
    that lists, contracts or expands enhancements."""
    sweeps = []
    original = enhanced._frontier_states

    def counted(*args, **kwargs):
        sweeps.append(len(kwargs.get("options", ())))
        return original(*args, **kwargs)

    def refuse(*args):
        raise AssertionError("an enhancement was listed, contracted or expanded")

    monkeypatch.setattr(enhanced, "_frontier_states", counted)
    for name in ("enumerate_enhancements", "contract", "expand_states",
                 "state_polys"):
        monkeypatch.setattr(enhanced, name, refuse)
    return sweeps


def _plan(monkeypatch, compute, d):
    """The one sweep's absorbed entries, in order: each entry's labels (its
    first smoothing's arcs, flattened), its cover and its done set, as
    vertex indices (None for a node)."""
    plans = []
    original = skein._absorption_order

    def recorded(*args):
        plans.append(original(*args))
        return plans[-1]

    with monkeypatch.context() as patch:
        patch.setattr(skein, "_absorption_order", recorded)
        compute(d)
    (plan,) = plans
    return [(tuple(x for arc in smoothings[0][0] for x in arc),
             None if cover is None else sorted(cover), sorted(done))
            for smoothings, cover, done in plan]


# The greedy order sets the sweep's width, and a change to it can widen
# the sweep, so it must be deliberate: these plans are frozen.
PINNED_PLANS = {
    "ladder": [
        ((5, 11, 11, 8, 17, 23, 23, 20), [0, 1], []),
        ((1, 5, 8, 1, 13, 17, 20, 13), [0, 1], []),
        ((11, 1, 2, 6, 23, 13, 14, 18), [0, 4], [0]),
        ((1, 11, 9, 2, 13, 23, 21, 14), [1, 5], [1]),
        ((6, 5, 8, 9, 18, 17, 20, 21), [4, 5], []),
        ((5, 2, 3, 7, 17, 14, 15, 19), [4, 6], [4]),
        ((2, 8, 10, 3, 14, 20, 22, 15), [5, 7], [5]),
        ((7, 6, 9, 10, 19, 18, 21, 22), [6, 7], []),
        ((4, 12, 6, 3, 16, 24, 18, 15), [2, 6], [6]),
        ((12, 4, 3, 9, 24, 16, 15, 21), [3, 7], [7]),
        ((12, 7, 10, 12, 24, 19, 22, 24), [2, 3], []),
        ((7, 4, 4, 10, 19, 16, 16, 22), [2, 3], [2, 3]),
    ],
    "trefoil": [
        ((2, 4, 3, 1), None, []),
        ((4, 6, 5, 3), None, []),
        ((1, 5, 6, 2), None, []),
    ],
    "random": [
        ((11, 6, 13, 13, 25, 20, 27, 27), [4, 5], [4, 5]),
        ((3, 6, 11, 10, 17, 20, 25, 24), [1, 3], []),
        ((1, 4, 6, 5, 15, 18, 20, 19), [0, 1], [1]),
        ((4, 1, 5, 11, 18, 15, 19, 25), [2, 3], [3]),
        ((4, 3, 10, 4, 18, 17, 24, 18), [0, 2], []),
        ((3, 1, 1, 10, 17, 15, 15, 24), [0, 2], [0, 2]),
    ],
    # the crossing's label 4 is a self-loop: the kink and its twin are
    # removed before the planner
    "kink": [
        ((5, 1, 3, 3, 10, 6, 8, 8), [0, 1], [0, 1]),
    ],
    # an F vertex's twin node shares the sweep with the options
    "twin": [
        ((4, 5, 5, 3, 9, 10, 10, 8), None, []),
        ((1, 1, 3, 4, 6, 6, 8, 9), [0, 1], [0, 1]),
    ],
    # the count sweep: options that lay no arcs
    "count": [
        ((), [0, 1], []),
        ((), [0, 1], []),
        ((), [0, 4], [0]),
        ((), [1, 5], [1]),
        ((), [4, 5], []),
        ((), [4, 6], [4]),
        ((), [5, 7], [5]),
        ((), [6, 7], []),
        ((), [2, 6], [6]),
        ((), [3, 7], [7]),
        ((), [2, 3], []),
        ((), [2, 3], [2, 3]),
    ],
    # a label opened between two vertices gains +1 for the options over
    # both and +2 for the other options at its far end
    "shared": [
        ((), [0, 2], [0]),
        ((), [1, 3], [1]),
        ((), [2, 3], []),
        ((), [2, 4], [2]),
        ((), [3, 4], [3]),
        ((), [4, 5], [4, 5]),
    ],
}


# loops at vertices 0 and 1 leave each of them one link
SHARED = D(trivalent=((1, 1, 2), (3, 3, 4), (2, 6, 5), (4, 7, 6), (5, 7, 9),
                      (9, 10, 10)))


def test_the_sweep_plans_are_pinned(monkeypatch):
    graph = random_trivalent(random.Random(5), max_vertices=6)
    assert len(graph.trivalent) == 6
    cases = {"ladder": (invariant_total_poly, _ladder(4)),
             "trefoil": (p_poly, load_tng(fixture_path("trefoil.tng"))),
             "random": (invariant_total_poly, graph),
             "kink": (invariant_total_poly, insert_kink(handcuff(), 1)),
             "twin": (invariant_total_poly,
                      D(trivalent=((1, 1, 2), (2, 3, 4)),
                        fourvalent=((4, 5, 5, 3),))),
             "count": (enumerate_enhancements, _ladder(4)),
             # every traced link: peeling would force this graph's matching
             "shared": (lambda d: enhanced._count_matchings(
                 d, enhanced._traced_vertex_links(d)), SHARED)}
    for name, (compute, d) in cases.items():
        assert _plan(monkeypatch, compute, d) == PINNED_PLANS[name], name


def test_kinks_and_bigons_of_a_graph_reach_no_planner(monkeypatch):
    # a kink on the handcuff's loop 1, and a bigon spliced across that
    # loop and the other one: I(G) is exact, and the planner gets only
    # the thick edge's option
    d = insert_kink(handcuff(), 1)
    d = splice_22(d, SpliceSite(1, 0, 3, 1), braid_pattern(1, -1))
    assert len(d.crossings) == 3
    rhos = enumerate_enhancements(d)
    expected = sum((_oracle_rho_poly(d, rho) for rho in rhos), ZERO)
    ((_, cover, _),) = _plan(monkeypatch, invariant_total_poly, d)
    assert cover is not None  # an option, not a crossing
    assert invariant_total_poly(d) == expected


def test_peeling_takes_the_forced_edges_only():
    # the loops force edges 2 and 4, which kill 5, 6 and 7 and force 9
    assert [link[0] for link in enhanced._peeled_links(SHARED)] == [2, 4, 9]
    assert enumerate_enhancements(SHARED) == (frozenset({2, 4, 9}),)
    # nothing forced: a ladder's links all stay
    ladder = _ladder(4)
    assert enhanced._peeled_links(ladder) == \
        enhanced._traced_vertex_links(ladder)


def test_the_plan_is_built_once_per_graph(monkeypatch):
    d = ensure_valid(_ladder(4))
    rhos = enumerate_enhancements(d)
    assert len(rhos) == 13
    expected = sum((_oracle_rho_poly(d, rho) for rho in rhos), ZERO)
    sweeps = _count_sweeps(monkeypatch)
    assert invariant_total_poly(d) == expected
    # one sweep, every direct edge of the ladder an option
    assert sweeps == [3 * 4]


def test_a_rho_sweep_is_the_sweep_of_the_contracted_graph(monkeypatch):
    # I_rho(G) = I(G/rho): contract makes rho's edges 4-valent vertices,
    # so the sweep plans nodes only and has no matching to choose
    d = ensure_valid(_ladder(4))
    rho = enumerate_enhancements(d)[5]
    contracted = []
    original = enhanced.contract

    def counted(*args):
        contracted.append(args)
        return original(*args)

    monkeypatch.setattr(enhanced, "contract", counted)
    plan = _plan(monkeypatch, lambda g: invariant_rho_poly(g, rho), d)
    assert contracted == [(d, rho)]
    assert len(plan) == len(rho)
    assert all(cover is None for _, cover, _ in plan)
    assert invariant_rho_poly(d, rho) == _oracle_rho_poly(d, rho)


def test_a_ten_rung_ladder_is_one_sweep(monkeypatch):
    d = ensure_valid(_ladder(10))
    rhos = enumerate_enhancements(d)
    assert len(rhos) == 233
    # 4^10 states per enhancement are out of the oracle's reach: the
    # restricted sweeps, checked against it on the fixtures, stand in
    expected = sum((invariant_rho_poly(d, rho) for rho in rhos), ZERO)
    sweeps = _count_sweeps(monkeypatch)
    assert invariant_total_poly(d) == expected
    assert sweeps == [3 * 10]


def test_an_edge_in_no_perfect_matching_is_no_option(monkeypatch):
    # edge 7 must be thick, so edges 4 and 5 never are
    d = ensure_valid(D(trivalent=((2, 4, 3), (2, 3, 5), (4, 7, 5), (6, 6, 7))))
    assert len(enhanced._traced_vertex_links(d)) == 5
    assert [link[0] for link in enhanced._peeled_links(d)] == [2, 3, 7]
    rhos = enumerate_enhancements(d)
    assert rhos == (frozenset({2, 7}), frozenset({3, 7}))
    expected = sum((_oracle_rho_poly(d, rho) for rho in rhos), ZERO)
    sweeps = _count_sweeps(monkeypatch)
    assert invariant_total_poly(d) == expected
    assert sweeps == [3]


@pytest.mark.parametrize("d", [
    load_tng(fixture_path("all_external.tng")),
    # a claw: every link holds the centre, so two leaves stay uncovered
    D(m=6, trivalent=((1, 2, 3), (1, 4, 5), (2, 6, 7), (3, 8, 9)),
      bottom=(4, 5, 6, 7, 8, 9)),
], ids=["no-links", "claw"])
def test_a_graph_without_perfect_matching_sums_to_zero_unswept(d, monkeypatch):
    assert d.trivalent and not enumerate_enhancements(d)
    sweeps = _count_sweeps(monkeypatch)
    assert invariant_total_poly(d) == ZERO
    assert sweeps == []


def test_the_total_sweep_sums_the_restricted_sweeps_on_fixtures():
    checked = 0
    for path in sorted(glob.glob(str(FIXTURES / "*.tng"))
                       + glob.glob(str(FIXTURES / "pairs" / "*.tng"))):
        d = load_tng(path)
        try:
            rhos = enumerate_enhancements(d)
        except DomainError:
            with pytest.raises(DomainError):
                invariant_total_poly(d)
            continue
        assert invariant_total_poly(d) == sum(
            (invariant_rho_poly(d, rho) for rho in rhos), ZERO), path
        checked += len(rhos)
    assert checked >= 30


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_the_total_sweep_sums_the_restricted_sweeps_on_random_graphs(seed):
    # two random graphs side by side: up to 16 trivalent vertices
    rng = random.Random(seed)
    d = tensor(random_trivalent(rng), random_trivalent(rng))
    rhos = enumerate_enhancements(d)
    assert len(rhos) == len(set(rhos))
    # the listing and the total both read the peeled links, so the oracle
    # searches every traced link, unpeeled
    nv = len(d.trivalent)
    by_vertex = enhanced._links_by_vertex(nv, enhanced._traced_vertex_links(d))
    assert set(rhos) == set(enhanced._matchings(by_vertex, [False] * nv, []))
    assert invariant_total_poly(d) == sum(
        (invariant_rho_poly(d, rho) for rho in rhos), ZERO)


def test_a_link_in_no_perfect_matching_is_peeled_not_searched(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enhancements searched")

    # the ladder's links all lie in perfect matchings of the ladder alone,
    # but the claws make every link one that lies in none
    monkeypatch.setattr(enhanced, "_matchings", refuse)
    assert invariant_total_poly(ensure_valid(_ladder_and_claws(9))) == ZERO
    # linear in the links: a search per link grows about x3.2 per two rungs
    d = ensure_valid(_ladder_and_claws(24))
    start = time.perf_counter()
    assert enhanced._peeled_links(d) is None
    assert time.perf_counter() - start < 0.5


def test_state_sum_never_calls_the_state_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the 4^n state route was called")

    for owner, name in ((enhanced, "expand_states"), (enhanced, "state_polys"),
                        (enhanced, "p_poly"), (pairing, "p_poly")):
        monkeypatch.setattr(owner, name, refuse)
    for name in ("theta", "handcuff"):
        d = load_tng(fixture_path(f"{name}.tng"))
        assert invariant_total_poly(d) == GOLDEN_TOTALS[name]


def test_state_sums_still_reject_a_nonplanar_graph():
    # both vertices share one rotation: the theta graph on a torus
    d = D(trivalent=((1, 2, 3), (1, 2, 3)))
    with pytest.raises(InvalidDiagramError):
        invariant_rho_poly(d, frozenset({1}))
    with pytest.raises(InvalidDiagramError):
        invariant_total_poly(d)


@pytest.mark.parametrize("path", sorted(map(str, FIXTURES.glob("*.tng"))))
def test_a_diagram_builds_its_label_index_once(path):
    d = parse_tng(read_text(path))
    occ = d._occurrences  # built by the parse's label checks
    assert occ is not None
    ensure_valid(d)
    invariant_total_poly(d)
    if not (d.trivalent or d.fourvalent):
        p_poly(d)
    assert edge_occurrences(d) is occ
    # the index is no field: a copy compares equal and has its own
    same = replace(d)
    assert same == d and hash(same) == hash(d) and repr(same) == repr(d)
    assert edge_occurrences(same) == occ
    assert edge_occurrences(same) is not occ


def test_total_invariant_validates_before_enumerating():
    # labels 2 and 4 occur once: the enumerator would trace a missing end
    d = D(trivalent=((1, 1, 2), (3, 3, 4)))
    with pytest.raises(InvalidDiagramError, match="label 2 occurs 1"):
        invariant_total_poly(d)


def test_rho_invariant_validates_before_checking_the_enhancement():
    # the same malformed diagram: a bad file, not a bad enhancement
    d = D(trivalent=((1, 1, 2), (3, 3, 4)))
    with pytest.raises(InvalidDiagramError, match="label 2 occurs 1"):
        invariant_rho_poly(d, frozenset({2}))


def test_state_vertex_limit_is_checked_before_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enhancements searched or swept")

    monkeypatch.setattr(enhanced, "MAX_STATE_VERTICES", 1)
    monkeypatch.setattr(enhanced, "enumerate_enhancements", refuse)
    monkeypatch.setattr(enhanced, "_matchings", refuse)
    one_f = load_tng(fixture_path("pattern_identity.tng"))
    assert invariant_rho_poly(one_f, frozenset()) == \
        _oracle_rho_poly(one_f, frozenset())
    monkeypatch.setattr(enhanced, "_frontier_states", refuse)
    two_f = load_tng(fixture_path("pairs/n4_a.tng"))
    with pytest.raises(DomainError, match="at most 1 4-valent"):
        invariant_total_poly(two_f)
    with pytest.raises(DomainError, match="at most 1 4-valent"):
        invariant_rho_poly(two_f, frozenset())
    # two thick edges to come: theta has one, a pair of thetas two
    two_thetas = D(trivalent=((1, 2, 3), (3, 2, 1), (4, 5, 6), (6, 5, 4)))
    with pytest.raises(DomainError, match="got 2"):
        invariant_total_poly(two_thetas)


def _graph_tangle(seed):
    """Seeded Morse tangle on 0-3 bottom strands drawn from 2-8 cup, cap,
    cross, split and merge rows, with at most 3 crossings and 4 trivalent
    vertices before the parity fix: boundary, crossings and trivalent
    vertices together."""
    rng = random.Random(seed)
    b = _MorseBuilder(rng.randint(0, 3))
    crossings, vertices = 3, 4
    for _ in range(rng.randint(2, 8)):
        width = len(b.active)
        ops = ["cup"] if width + 2 <= MAX_ACTIVE else []
        if width >= 1 and vertices > 0 and width < MAX_ACTIVE:
            ops.append("split")
        if width >= 2:
            ops.append("cap")
            if crossings > 0:
                ops.append("cross")
            if vertices > 0:
                ops.append("merge")
        op = rng.choice(ops or ["cup"])
        if op == "cup":
            b.cup(rng.randint(0, width))
        elif op == "cap":
            b.cap(rng.randrange(width - 1))
        elif op == "cross":
            b.cross(rng.randrange(width - 1), rng.choice((1, -1)))
            crossings -= 1
        elif op == "split":
            b.split(rng.randrange(width))
            vertices -= 1
        else:
            b.merge(rng.randrange(width - 1))
            vertices -= 1
    if (len(b.bottom) + len(b.active)) % 2:
        if not b.active:
            b.cup(0)
        if len(b.active) == 1:
            b.split(0)
        else:
            b.merge(rng.randrange(len(b.active) - 1))
    return b.finish()


def _check_graph_tangle(seed):
    """Planner against the state oracle on one seeded graph tangle; returns
    the tangle and its enhancement count, None when both sides refuse it."""
    d = _graph_tangle(seed)
    try:
        rhos = enumerate_enhancements(d)
    except DomainError as exc:
        # a strand through crossings joins two vertices: the planner agrees
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            invariant_total_poly(d)
        return d, None
    variants = [d]
    if d.trivalent and rhos:
        # a thick edge on the largest label: the reflected copy is shifted
        # past it although no contraction keeps it
        variants.append(relabeled(d, {min(rhos[0]): max_label(d) + 1}))
    for g in variants:
        expected = sum((_oracle_rho_poly(g, rho)
                        for rho in enumerate_enhancements(g)), ZERO)
        assert invariant_total_poly(g) == expected, seed
    return d, len(rhos)


def test_planner_matches_the_state_oracle_on_graph_tangles():
    shapes = refused = 0
    for seed in range(300):
        d, checked = _check_graph_tangle(seed)
        if checked is None:
            refused += 1
        elif checked and d.m + d.n and d.crossings and d.trivalent:
            shapes += 1
    assert shapes >= 40
    assert refused >= 1


@settings(max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_planner_matches_the_state_oracle_on_drawn_graph_tangles(seed):
    _check_graph_tangle(seed)
