import copy
import glob
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_path
from tanglepoly import enhanced, pairing, skein
from tanglepoly.diagram import (TangleDiagram, all_labels, edge_occurrences,
                                ensure_valid, load_tng, max_label,
                                merge_edges, parse_tng, read_text, replace)
from tanglepoly.enhanced import (STATE_PATTERNS, check_enhancement, contract,
                                 enhancements_by_vertex_sums,
                                 enumerate_enhancements, expand_states,
                                 invariant_rho_poly, invariant_total_poly,
                                 state_polys)
from tanglepoly.errors import DomainError, InvalidDiagramError
from tanglepoly.generate import (MAX_ACTIVE, SpliceSite, _MorseBuilder,
                                 braid_pattern, insert_kink, is_isomorphic,
                                 random_splice_site, random_tangle,
                                 random_trivalent, relabeled, splice_22,
                                 tensor)
from tanglepoly.laurent import LaurentPoly, ROOT_INDICES, ZERO, delta_power
from tanglepoly.moves import comparison_poly
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


def _two_half_sum(d):
    """The state sum of a strand diagram d by the two-half sweep of its
    crossings, circles and plat caps, each crossing pick (s, t) of weight
    w_s * bar(w_t), with the extra delta of an odd boundary."""
    states, loops = skein._frontier_states(
        d.crossings, len(d.circles), pairing._caps(d.bottom, d.top),
        halves=2)
    return delta_power(2 * loops + d.m % 2) * next(iter(states.values()),
                                                   ZERO)


def test_invariant_of_pure_strand_diagram_is_its_pairing():
    # a strand diagram has the one enhancement, the empty thick set, and
    # its one state is itself: the two-half sweep of its crossings is
    # P(D).  The state sum reads P(D) off p_poly's one half, so the
    # crossings' two-half picks are checked here, swept directly
    paths = sorted(FIXTURES.glob("*.tng")) + sorted(FIXTURES.glob("pairs/*.tng"))
    diagrams = [d for d in map(load_tng, map(str, paths))
                if not (d.trivalent or d.fourvalent)]
    diagrams += [random_tangle(random.Random(seed), max_crossings=10)
                 for seed in range(300)]
    assert len(diagrams) == 321
    assert sum(d.m % 2 for d in diagrams) == 154
    for d in diagrams:
        assert _two_half_sum(d) == p_poly(d), d


def _closure(strands, vertices=0):
    """The (strands, strands) tangle of 10 * strands positive crossings,
    each on a seeded pair of neighbouring strands, which p_poly closes by
    its plat caps; the seeded `vertices` of its crossings are made
    4-valent vertices."""
    rng = random.Random(0)
    b = _MorseBuilder(strands)
    for _ in range(10 * strands):
        b.cross(rng.randrange(strands - 1), 1)
    d = b.finish()
    picks = set(random.Random(1).sample(range(len(d.crossings)), vertices))
    return ensure_valid(replace(
        d, crossings=tuple(t for k, t in enumerate(d.crossings)
                           if k not in picks),
        fourvalent=tuple(t for k, t in enumerate(d.crossings) if k in picks)))


@pytest.mark.parametrize("strands, peak", [(8, 14), (10, 42), (12, 132)])
def test_a_vertex_free_diagram_is_swept_in_one_half(strands, peak,
                                                    monkeypatch):
    # its one state is itself, so every route reads P(D) off p_poly's
    # one-half sweep, whose widest table is Catalan(strands / 2); two
    # halves would read its square, 17424 states at 12 strands
    d = _closure(strands)
    lands = skein._lands

    def refuse(by_mask, state, covered):
        if by_mask[covered][4] is skein._two_half_miss:
            raise AssertionError("a two-half step ran")
        return lands(by_mask, state, covered)

    expected, widest = _peak_table(monkeypatch, p_poly, d)
    assert widest == peak
    monkeypatch.setattr(skein, "_lands", refuse)
    for compute in (invariant_total_poly, comparison_poly,
                    lambda d: invariant_rho_poly(d, frozenset())):
        assert _peak_table(monkeypatch, compute, d) == (expected, peak)


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
        nodes = kwargs.get("nodes", ())
        vertex_nodes = [node for node in nodes if node[2]]
        # (plain nodes, links): the nodes of F vertices and forced links,
        # and the links of the vertex nodes, each held at both its ends
        sweeps.append((len(nodes) - len(vertex_nodes),
                       sum(len(node[1]) for node in vertex_nodes) // 2))
        return original(*args, **kwargs)

    def refuse(*args):
        raise AssertionError("an enhancement was listed, contracted or expanded")

    monkeypatch.setattr(enhanced, "_frontier_states", counted)
    for name in ("enumerate_enhancements", "contract", "expand_states",
                 "state_polys"):
        monkeypatch.setattr(enhanced, name, refuse)
    return sweeps


def _plan(monkeypatch, compute, d):
    """The one sweep's absorbed nodes, in order: each node's labels, then
    None and [] for a plain node, and for a vertex node its vertex index
    and the partners of the links it keeps, those not absorbed before it.
    """
    plans = []
    original = skein._absorption_order

    def recorded(*args):
        plans.append(original(*args))
        return plans[-1]

    with monkeypatch.context() as patch:
        patch.setattr(skein, "_absorption_order", recorded)
        compute(d)
    (plan,) = plans
    out, absorbed = [], 0
    for labels, links, vertex in plan:
        if not vertex:
            out.append((tuple(labels), None, []))
            continue
        absorbed |= vertex
        out.append((labels, vertex.bit_length() - 1,
                    [v.bit_length() - 1 for v, _ in links
                     if not v & absorbed]))
    return out


# The greedy order sets the sweep's width, and a change to it can widen
# the sweep, so it must be deliberate: these plans are frozen.
PINNED_PLANS = {
    # a vertex node keeps its links to the vertices still unabsorbed, a
    # doubled rung twice; vertex 3 comes last, with no link left, so only
    # the states that matched it ahead pass it
    "ladder": [
        ((1, 5, 11), 0, [1, 4, 1]),
        ((1, 11, 8), 1, [5]),
        ((2, 6, 5), 4, [5, 6]),
        ((2, 8, 9), 5, [7]),
        ((3, 7, 6), 6, [2, 7]),
        ((3, 9, 10), 7, [3]),
        ((4, 12, 7), 2, [3, 3]),
        ((4, 10, 12), 3, []),
    ],
    "trefoil": [
        ((2, 4, 3, 1), None, []),
        ((4, 6, 5, 3), None, []),
        ((1, 5, 6, 2), None, []),
    ],
    # the loop at vertex 5 forces its link to vertex 4, which is the plain
    # node of the 4-valent vertex its contraction makes
    "random": [
        ((11, 6, 13, 13), None, []),
        ((3, 6, 5), 1, [0, 3]),
        ((5, 11, 10), 3, [2]),
        ((1, 4, 3), 0, [2, 2]),
        ((1, 10, 4), 2, []),
    ],
    # the crossing's label 4 is a self-loop: the kink is removed before
    # the planner, and the forced thick edge is a plain node
    "kink": [
        ((5, 1, 3, 3), None, []),
    ],
    # an F vertex's node, with its four joint picks, shares the sweep with
    # the node of the forced thick edge
    "twin": [
        ((4, 5, 5, 3), None, []),
        ((1, 1, 3, 4), None, []),
    ],
    # the count sweep: the same vertex nodes, whose links lay no arcs
    "count": [
        ((1, 5, 11), 0, [1, 4, 1]),
        ((1, 11, 8), 1, [5]),
        ((2, 6, 5), 4, [5, 6]),
        ((2, 8, 9), 5, [7]),
        ((3, 7, 6), 6, [2, 7]),
        ((3, 9, 10), 7, [3]),
        ((4, 12, 7), 2, [3, 3]),
        ((4, 10, 12), 3, []),
    ],
    # unpeeled, every vertex is a vertex node, so vertex 0 is one with
    # one link, although its partner, vertex 2, keeps two more.
    # Once vertex 3 is absorbed, 5's only partner 4 may be matched ahead,
    # so 5 comes before 4
    "shared": [
        ((1, 1, 2), 0, [2]),
        ((3, 3, 4), 1, [3]),
        ((2, 6, 5), 2, [3, 4]),
        ((4, 7, 6), 3, [4]),
        ((9, 10, 10), 5, [4]),
        ((5, 7, 9), 4, []),
    ],
}


# loops at vertices 0 and 1 leave each of them one link
SHARED = D(trivalent=((1, 1, 2), (3, 3, 4), (2, 6, 5), (4, 7, 6), (5, 7, 9),
                      (9, 10, 10)))


def _unpeeled_count(d):
    """The count sweep of d as one vertex node per trivalent vertex, each
    with every traced link, none peeled and none made a forced node."""
    nodes = [(t, tuple((1 << v, enhanced._TAKE) for _, v in at), 1 << u)
             for u, (t, at) in enumerate(zip(
                 d.trivalent, enhanced._traced_vertex_links(d)))]
    states, _ = skein._frontier_states((), nodes=nodes)
    assert next(iter(states.values())) == LaurentPoly({0: 1})


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
             "shared": (_unpeeled_count, SHARED)}
    for name, (compute, d) in cases.items():
        assert _plan(monkeypatch, compute, d) == PINNED_PLANS[name], name


def test_kinks_and_bigons_of_a_graph_reach_no_planner(monkeypatch):
    # a kink on the handcuff's loop 1, and a bigon spliced across that
    # loop and the other one: I(G) is exact, and the planner gets only
    # the node of the forced thick edge
    d = insert_kink(handcuff(), 1)
    d = splice_22(d, SpliceSite(1, 0, 3, 1), braid_pattern(1, -1))
    assert len(d.crossings) == 3
    rhos = enumerate_enhancements(d)
    expected = sum((_oracle_rho_poly(d, rho) for rho in rhos), ZERO)
    ([(label, _)], [_]) = enhanced._peeled_links(d)
    ((labels, _, _),) = _plan(monkeypatch, invariant_total_poly, d)
    # the 4-valent vertex the thick edge contracts to, not a crossing
    assert labels == enhanced._contracted_vertex(
        d.trivalent, edge_occurrences(d)[label])
    assert invariant_total_poly(d) == expected


def test_peeling_takes_the_forced_edges_only():
    # the loops force edges 2 and 4, which kill 5, 6 and 7 and force 9
    assert enhanced._peeled_links(SHARED) == [
        [(2, 2)], [(4, 3)], [(2, 0)], [(4, 1)], [(9, 5)], [(9, 4)]]
    assert enumerate_enhancements(SHARED) == (frozenset({2, 4, 9}),)
    # nothing forced: a ladder's links all stay
    ladder = _ladder(4)
    assert enhanced._peeled_links(ladder) == \
        enhanced._traced_vertex_links(ladder)


def test_a_peeled_one_link_vertex_is_its_partners_one_link():
    # _vertex_nodes makes a vertex with one link a forced node, once, at
    # the lower of its two ends: peeling leaves every link in both its
    # entries, and the partner of a one-link vertex with that link alone
    paths = sorted(glob.glob(str(FIXTURES / "*.tng"))
                   + glob.glob(str(FIXTURES / "pairs" / "*.tng")))
    graphs = [d for d in map(load_tng, paths) if d.trivalent]
    graphs += [build() for build, _, _ in WIDE_GRAPHS.values()]
    graphs += [random_trivalent(random.Random(seed), max_vertices=12)
               for seed in range(300)]
    tables = []
    for d in graphs:
        try:
            links = enhanced._peeled_links(d)
        except DomainError:  # a strand through crossings joins two vertices
            continue
        if links is not None:
            tables.append(links)
    forced = 0
    for links in tables:
        held = sorted((label, u, v) for u, at in enumerate(links)
                      for label, v in at)
        assert held == sorted((label, v, u) for label, u, v in held)
        for u, at in enumerate(links):
            if len(at) == 1:
                (label, v), = at
                assert links[v] == [(label, u)]
                forced += 1
    assert (len(tables), forced) == (308, 454)


def test_the_plan_is_built_once_per_graph(monkeypatch):
    d = ensure_valid(_ladder(4))
    rhos = enumerate_enhancements(d)
    assert len(rhos) == 13
    expected = sum((_oracle_rho_poly(d, rho) for rho in rhos), ZERO)
    sweeps = _count_sweeps(monkeypatch)
    assert invariant_total_poly(d) == expected
    # one sweep, every direct edge of the ladder a link
    assert sweeps == [(0, 3 * 4)]


def test_a_state_is_a_pair_of_halves_in_the_graphs_own_labels(monkeypatch):
    # both halves are slot tuples over one layout of the graph's own
    # labels: the reflected copy is never built, so no layout holds a
    # label past max_label(d).  From an empty table each distinct half
    # lays its two arc sets once per step and each state lands on up to
    # four pairs of halves, so the landings outnumber the joins; once
    # the table holds them, each narrow state's landings are one lookup
    # and the sweep joins nothing
    d = ensure_valid(_ladder(6))
    expected = invariant_total_poly(d)
    joins, labels, landings = [], [], []
    join, compiled, lands = skein._join, skein._compiled, skein._lands

    def joined(ends, arcs):
        if arcs:  # a closed ladder has no caps: every join is a step's
            joins.append(arcs)
        return join(ends, arcs)

    def laid_out(*args):
        links, layouts = compiled(*args)
        labels.extend(x for layout in layouts.values() for x in layout)
        return links, layouts

    def landed(by_mask, state, covered):
        out = lands(by_mask, state, covered)
        if by_mask[covered][4] is skein._two_half_miss:
            landings.append(len(out))
        return out

    monkeypatch.setattr(enhanced, "_TWIN_PICKS", (enhanced._TWIN_PICKS[0], {}))
    monkeypatch.setattr(skein, "_join", joined)
    monkeypatch.setattr(skein, "_compiled", laid_out)
    monkeypatch.setattr(skein, "_lands", landed)
    assert invariant_total_poly(d) == expected
    assert 0 < len(joins) < sum(landings)
    assert labels and max(labels) <= max_label(d)
    joins.clear()
    landings.clear()
    assert invariant_total_poly(d) == expected
    assert not joins and sum(landings) > 0


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
    assert all(vertex is None for _, vertex, _ in plan)
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
    assert sweeps == [(0, 3 * 10)]


def test_an_edge_in_no_perfect_matching_is_no_option(monkeypatch):
    # edge 7 must be thick, so edges 4 and 5 never are
    d = ensure_valid(D(trivalent=((2, 4, 3), (2, 3, 5), (4, 7, 5), (6, 6, 7))))
    assert enhanced._traced_vertex_links(d) == [
        [(2, 1), (4, 2), (3, 1)], [(2, 0), (3, 0), (5, 2)],
        [(4, 0), (5, 1), (7, 3)], [(7, 2)]]
    assert enhanced._peeled_links(d) == [
        [(2, 1), (3, 1)], [(2, 0), (3, 0)], [(7, 3)], [(7, 2)]]
    rhos = enumerate_enhancements(d)
    assert rhos == (frozenset({2, 7}), frozenset({3, 7}))
    expected = sum((_oracle_rho_poly(d, rho) for rho in rhos), ZERO)
    sweeps = _count_sweeps(monkeypatch)
    assert invariant_total_poly(d) == expected
    # edge 7 is forced, a plain node; 2 and 3 are the links
    assert sweeps == [(1, 2)]


def _shuffled(vertices, seed):
    """A closed graph of the trivalent vertices, listed in a seeded order
    and each turned by a seeded rotation."""
    rng = random.Random(seed)
    vertices = list(vertices)
    rng.shuffle(vertices)
    turned = []
    for v in vertices:
        k = rng.randrange(3)
        turned.append(v[k:] + v[:k])
    return ensure_valid(D(trivalent=tuple(turned)))


def _circular_ladder(rungs, seed):
    """The prism on 2 * rungs vertices, shuffled by seed: an outer and an
    inner cycle, vertex i of each joined by rung i.  Any order of its
    vertices cuts both cycles, so its sweeps are wider than a ladder's."""
    outer = [1 + i for i in range(rungs)]
    inner = [1 + rungs + i for i in range(rungs)]
    rung = [1 + 2 * rungs + i for i in range(rungs)]
    vertices = []
    for i in range(rungs):
        vertices += [(outer[i], rung[i], outer[i - 1]),
                     (inner[i], inner[i - 1], rung[i])]
    return _shuffled(vertices, seed)


def _split_braid_graph(seed, strands, boundary, length):
    """_braid_graph with every node a 4-valent vertex, each split into two
    trivalent vertices joined by a new edge, in the seeded one of the two
    ways whose contraction gives it back."""
    d = _braid_graph(seed, strands, boundary, length, length)
    rng = random.Random(seed)
    new = max_label(d)
    vertices = []
    for a, b, c, dd in d.fourvalent:
        new += 1
        if rng.random() < 0.5:
            vertices += [(new, a, b), (new, c, dd)]
        else:
            vertices += [(new, b, c), (new, dd, a)]
    return ensure_valid(replace(d, trivalent=tuple(vertices), fourvalent=()))


def _peak_table(monkeypatch, compute, d):
    """(compute(d), the largest table any of its sweep steps reads)."""
    widths = []
    step = skein._step

    def measured(states, *args):
        widths.append(len(states))
        return step(states, *args)

    with monkeypatch.context() as patch:
        patch.setattr(skein, "_step", measured)
        out = compute(d)
    return out, max(widths)


# Graphs whose I(G) sweeps read two-half tables wider than 16 states:
# each with its recorded peak table, so the family cannot narrow unseen,
# and the oracles that finish on it within about half a second: "states"
# sums state_polys over its enhancements, "subsets" lists them by
# enhancements_by_vertex_sums.
WIDE_GRAPHS = {
    "circular 4/0": (lambda: _circular_ladder(4, 0), 84,
                     ("states", "subsets")),
    "circular 5/1": (lambda: _circular_ladder(5, 1), 84,
                     ("states", "subsets")),
    "circular 8/3": (lambda: _circular_ladder(8, 3), 90, ()),
    "braid 6/0/5/4": (lambda: _split_braid_graph(4, 6, 0, 5), 21,
                      ("states", "subsets")),
    "braid 6/2/5/1": (lambda: _split_braid_graph(1, 6, 2, 5), 33,
                      ("states", "subsets")),
    "braid 6/0/8/3": (lambda: _split_braid_graph(3, 6, 0, 8), 72, ()),
    "braid 8/2/10/5": (lambda: _split_braid_graph(5, 8, 2, 10), 24, ()),
    "braid 10/0/12/2": (lambda: _split_braid_graph(2, 10, 0, 12), 72, ()),
    "braid 12/0/14/5": (lambda: _split_braid_graph(5, 12, 0, 14), 72, ()),
    # the one graph here that keeps crossings in its sweep: 78 of them,
    # beside 2 4-valent vertices
    "closure 8/2": (lambda: _closure(8, 2), 324, ("states", "subsets")),
}


@pytest.mark.parametrize("name", list(WIDE_GRAPHS))
def test_a_wide_sweep_sums_its_node_only_sweeps(name, monkeypatch):
    # the total's vertex nodes pick the thick edges in one sweep; each
    # rho sweep, of the contracted graph, has plain nodes only
    build, peak, oracles = WIDE_GRAPHS[name]
    d = build()
    monkeypatch.setattr(enhanced, "MAX_STATE_VERTICES", 14)
    total, widest = _peak_table(monkeypatch, invariant_total_poly, d)
    assert widest == peak
    rhos = enumerate_enhancements(d)
    assert total == sum((invariant_rho_poly(d, rho) for rho in rhos), ZERO)
    if "states" in oracles:
        assert total == sum((_oracle_rho_poly(d, rho) for rho in rhos), ZERO)
    if "subsets" in oracles:
        assert rhos == enhancements_by_vertex_sums(d)


def _one_half_values(d, nodes):
    """{ends: value} of the one-half sweep of d's crossings, circles and
    plat caps and the given nodes: each final state's coefficient times
    delta to the loops laid before the sweep."""
    states, laid = skein._frontier_states(
        d.crossings, len(d.circles), pairing._caps(d.bottom, d.top),
        nodes=nodes)
    assert all(not covered for _, covered in states)
    return {ends: delta_power(laid) * c for (ends, _), c in states.items()}


def test_a_one_half_sweep_of_vertex_nodes_sums_its_contractions():
    # each link lays the crossing smoothings of the 4-valent vertex its
    # contraction makes, in one half: the one one-half sweep whose states
    # reach one covered mask by different links, so they must share that
    # mask's layout.  Its value is the sum, over the enhancements, of the
    # one-half sweeps of the contractions, their 4-valent vertices plain
    # nodes
    picks = skein._ONE_HALF_PICKS
    paths = sorted(glob.glob(str(FIXTURES / "*.tng"))
                   + glob.glob(str(FIXTURES / "pairs" / "*.tng")))
    graphs = [d for d in map(load_tng, paths) if d.trivalent and not d.thick]
    graphs += [build() for build, _, _ in WIDE_GRAPHS.values()]
    graphs += [random_trivalent(random.Random(seed), max_vertices=10)
               for seed in range(40)]
    checked = 0
    for d in graphs:
        try:
            rhos = enumerate_enhancements(d)
        except DomainError:
            continue
        links = enhanced._peeled_links(d)
        nodes = [skein._node(v, picks) for v in d.fourvalent]
        total = {}
        if links is not None:
            total = _one_half_values(d, nodes + enhanced._vertex_nodes(
                d, links, lambda t: skein._smoothings(t, picks)))
        expected = {}
        for rho in rhos:
            c = contract(d, rho)
            for ends, value in _one_half_values(
                    c, [skein._node(v, picks) for v in c.fourvalent]).items():
                expected[ends] = expected.get(ends, ZERO) + value
        assert total == {ends: v for ends, v in expected.items() if v}
        checked += len(rhos)
    assert checked == 341


def _graph_fixtures():
    """Every fixture with a trivalent or 4-valent vertex."""
    paths = sorted(glob.glob(str(FIXTURES / "*.tng"))
                   + glob.glob(str(FIXTURES / "pairs" / "*.tng")))
    return [d for d in map(load_tng, paths) if d.trivalent or d.fourvalent]


def test_no_two_half_table_holds_two_states_with_equal_halves(monkeypatch):
    # a vertex is matched ahead exactly when the label of its link to an
    # absorbed partner is missing from the halves, so a state's covered
    # mask follows from its halves: read in labels, off the layouts that
    # _compiled gives the table a step writes, no two states of a table
    # share their halves
    step, compiled = skein._step, skein._compiled
    written = []
    covered_states = 0

    def recorded(layouts, vertex, links, miss):
        links, layouts = compiled(layouts, vertex, links, miss)
        written[:] = [layouts, miss]
        return links, layouts

    def checked(states, vertex, links):
        nonlocal covered_states
        nxt = step(states, vertex, links)
        layouts, miss = written
        if miss is skein._two_half_miss:
            halves = [tuple(frozenset(zip(layouts[covered], map(
                layouts[covered].__getitem__, half))) for half in pair)
                for pair, covered in nxt]
            assert len(set(halves)) == len(halves)
            covered_states += sum(1 for _, covered in nxt if covered)
        return nxt

    graphs = [d for d in _graph_fixtures() if d.trivalent]
    graphs += [build() for build, _, _ in WIDE_GRAPHS.values()]
    graphs += [_split_braid_graph(seed, 6, 2 * (seed % 2), 5)
               for seed in range(20)]
    with monkeypatch.context() as patch:
        patch.setattr(skein, "_compiled", recorded)
        patch.setattr(skein, "_step", checked)
        patch.setattr(enhanced, "MAX_STATE_VERTICES", 14)
        for d in graphs:
            invariant_total_poly(d)
    # states were matched ahead beside others in the same tables
    assert covered_states > 0


def _lay(half, laying, arcs):
    """(new slot tuple, loops) of a slot tuple half with arcs laid by
    laying, straight from its slots' names."""
    order, olds = laying[2:4]
    ends = {olds[i]: olds[j] for i, j in enumerate(half)}
    loops = skein._join(ends, arcs)
    return tuple(ends[k] for k in range(len(order))), loops


def test_a_landing_table_holds_each_pair_of_patterns_summed_once(
        monkeypatch):
    # a two-half table holds three shapes of key: a link's label-free
    # signature (width, codes[, order]) and its laying; a pair of landing
    # patterns (per arc set, the distinct new slot tuple it lands on and
    # the loops it closes: 18 per half, 324 per pair) and the weights of
    # its picks summed per landing; and a narrow state's (halves, the
    # laying's ident) and its whole landing list.  Each entry must be the
    # per-pick sum it stands for, however often it was read.  Both tables
    # start empty here.  The strand fixtures' crossings, swept in two
    # halves directly (the state sum reads their P(D) off one half), fill
    # the crossings' table
    for owner, name in ((skein, "_CROSSING_PICKS"), (enhanced, "_TWIN_PICKS")):
        monkeypatch.setattr(owner, name, (getattr(owner, name)[0], {}))
    paths = sorted(glob.glob(str(FIXTURES / "*.tng"))
                   + glob.glob(str(FIXTURES / "pairs" / "*.tng")))
    diagrams = [load_tng(path) for path in paths]
    for d in diagrams:
        if not (d.trivalent or d.fourvalent):
            _two_half_sum(d)
    assert skein._CROSSING_PICKS[1]
    diagrams += [build() for build, _, _ in WIDE_GRAPHS.values()]
    monkeypatch.setattr(enhanced, "MAX_STATE_VERTICES", 14)
    for d in diagrams:
        invariant_total_poly(d)
    patterns = {((0, a), (i, b)) for i in (0, 1) for a in range(3)
                for b in range(3)}
    for picks, table in (skein._CROSSING_PICKS, enhanced._TWIN_PICKS):
        # a signature starts with its width, a landing list's key ends
        # with its laying's ident, and a pair of patterns is neither
        layings, pairs, lists = {}, {}, {}
        for key, value in table.items():
            if isinstance(key[0], int):
                layings[value[0]] = value
            elif isinstance(key[1], int):
                lists[key] = value
            else:
                pairs[key] = value
        assert layings and pairs and lists
        assert len(pairs) <= 324
        for (first, second), landings in pairs.items():
            assert first in patterns and second in patterns
            summed = {}
            for s, t, weights in picks:
                (i, k1), (j, k2) = first[s], second[t]
                summed[i, j] = (summed.get((i, j), ZERO)
                                + LaurentPoly(weights[k1 + k2]))
            assert {at: LaurentPoly(w) for at, w in landings} == summed
        for ((h1, h2), ident), landed in lists.items():
            laying = layings[ident]
            assert len(h1) == len(h2) <= skein._NARROW
            summed = {}
            for s, t, weights in picks:
                new1, k1 = _lay(h1, laying, laying[1][s])
                new2, k2 = _lay(h2, laying, laying[1][t])
                summed[new1, new2] = (summed.get((new1, new2), ZERO)
                                      + LaurentPoly(weights[k1 + k2]))
            assert {at: LaurentPoly(w) for at, w in landed} == summed


def _filled(table):
    """A deep copy of a pick table, to compare with a later one: a laying
    keeps its label-free fields (ident, arc sets, order, olds, narrow),
    not its getters, each of which equals only itself."""
    return copy.deepcopy({key: value[:5] if isinstance(key[0], int) else value
                          for key, value in table.items()})


def test_the_two_half_tables_hold_no_label_and_are_only_filled(monkeypatch):
    # the two-half pick tables, the crossings' and the 4-valent
    # vertices', are shared by every state sum: their keys are slot
    # tuples, landing patterns and label-free signatures, and no entry is
    # written to once filled.  A sweep of copies with every label
    # shifted, then of the originals again, must leave them as they were
    def emptied():
        for owner, name in ((skein, "_CROSSING_PICKS"),
                            (enhanced, "_TWIN_PICKS")):
            monkeypatch.setattr(owner, name, (getattr(owner, name)[0], {}))
        return skein._CROSSING_PICKS[1], enhanced._TWIN_PICKS[1]

    monkeypatch.setattr(enhanced, "MAX_STATE_VERTICES", 14)
    graphs = _graph_fixtures()
    graphs += [build() for build, _, _ in WIDE_GRAPHS.values()]
    tables = emptied()
    values = [invariant_total_poly(d) for d in graphs]
    assert all(tables)
    filled = list(map(_filled, tables))
    for d, value in zip(graphs, values):
        shifted = relabeled(d, {x: x + 1000 for x in all_labels(d)})
        assert invariant_total_poly(shifted) == value
    assert [invariant_total_poly(d) for d in graphs] == values
    assert list(map(_filled, tables)) == filled
    # each table stops growing at its cap, and the sums stay exact
    monkeypatch.setattr(skein, "_TABLE_CAP", 5)
    tables = emptied()
    assert [invariant_total_poly(d) for d in graphs] == values
    assert list(map(len, tables)) == [5, 5]


def test_narrow_and_wide_two_half_states_meet_the_state_oracle(monkeypatch):
    # the 8-strand closure with 2 4-valent vertices sweeps states of at
    # most _NARROW open ends, whose landing lists the table keeps, and
    # wider ones, laid through the cache of their step and link; both
    # kinds of step are pinned, and the sum meets the state oracle
    d = WIDE_GRAPHS["closure 8/2"][0]()
    step = skein._step
    widths = []

    def measured(states, *args):
        widths.append({len(h1) for (h1, _), _ in states})
        return step(states, *args)

    with monkeypatch.context() as patch:
        patch.setattr(skein, "_step", measured)
        total = invariant_total_poly(d)
    narrow = sum(1 for seen in widths if min(seen) <= skein._NARROW)
    wide = sum(1 for seen in widths if max(seen) > skein._NARROW)
    assert (narrow, wide) == (30, 37)
    rhos = enumerate_enhancements(d)
    assert total == sum((_oracle_rho_poly(d, rho) for rho in rhos), ZERO)


@pytest.mark.parametrize("seed", range(10))
def test_a_shuffled_ladder_is_swept_as_narrow_as_the_ladder(seed,
                                                            monkeypatch):
    # the planner counts the partners a vertex node may leave matched
    # ahead; on labels alone, list order led most of these 8-rung ladders
    # along one rail, to peak tables of up to 912 states
    d = _shuffled(_ladder(8).trivalent, seed)
    total, widest = _peak_table(monkeypatch, invariant_total_poly, d)
    assert widest == 5
    assert total == invariant_total_poly(ensure_valid(_ladder(8)))


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
    assert set(rhos) == set(enhanced._matchings(
        enhanced._traced_vertex_links(d), [False] * nv, []))
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


def _walked_vertex_links(d):
    """The link table of d by a slot-by-slot walk, the reference of
    enhanced._traced_vertex_links: from every trivalent slot, follow the
    strand through crossings to its end; a strand that ends at another
    trivalent vertex is a link if it passed no crossing, added to both
    entries from its lower slot, and refused if it did."""
    occ = edge_occurrences(d)
    links = [[] for _ in d.trivalent]
    for vi, t in enumerate(d.trivalent):
        for slot, start_label in enumerate(t):
            label = start_label
            prev = ("V", vi, slot)
            hops = 0
            while True:
                near, far = occ[label]
                kind, idx, s = near if far == prev else far
                if kind == "X":
                    hops += 1
                    s2 = (s + 2) % 4
                    label = d.crossings[idx][s2]
                    prev = ("X", idx, s2)
                    continue
                if kind == "V" and idx != vi:
                    if hops:
                        raise DomainError(
                            "cannot enumerate enhancements: a strand "
                            "through crossings joins two trivalent "
                            "vertices")
                    if (vi, slot) < (idx, s):
                        links[vi].append((start_label, idx))
                        links[idx].append((start_label, vi))
                break
    return links


def test_the_link_table_matches_a_slot_by_slot_walk():
    # the table is read off the label index in one pass, and only the
    # strands into crossings are walked: the walk from every slot gives
    # the same table, or the same refusal
    graphs = [_graph_tangle(seed) for seed in range(300)]
    graphs += [random_trivalent(random.Random(seed), max_vertices=12)
               for seed in range(300)]
    refused = linked = 0
    for d in graphs:
        try:
            expected = _walked_vertex_links(d)
        except DomainError as exc:
            refused += 1
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                enhanced._traced_vertex_links(d)
            continue
        assert enhanced._traced_vertex_links(d) == expected
        linked += any(expected)
    assert refused >= 40
    assert linked >= 300


@settings(max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_planner_matches_the_state_oracle_on_drawn_graph_tangles(seed):
    _check_graph_tangle(seed)
