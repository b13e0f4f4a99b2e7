import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from test_cli import _ladder
from test_enhanced import _peak_table, _two_half_sum
from tanglepoly import enhanced, skein
from tanglepoly.diagram import TangleDiagram, load_tng
from tanglepoly.enhanced import enumerate_enhancements, invariant_total_poly
from tanglepoly.errors import DomainError, InvalidDiagramError
from tanglepoly.generate import (_MorseBuilder, mirror, random_tangle,
                                 relabeled)
from tanglepoly.laurent import DELTA, LaurentPoly, ONE, Q, delta_power
from tanglepoly.pairing import p_poly, pair
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


def _positive_braid(strands, letters, seed):
    """The braid tangle of a seeded word of letters positive generators
    on strands strands: no kink and no bigon, so bracket sweeps every
    crossing."""
    rng = random.Random(seed)
    b = _MorseBuilder(strands)
    for _ in range(letters):
        b.cross(rng.randrange(strands - 1), 1)
    return b.finish()


# Positive braid tangles (strands, letters, seed) whose bracket sweeps
# read one-half tables wider than 130 states, each with its recorded peak
# table, so the family cannot narrow unseen.  Each has at most 16
# crossings, within bracket_oracle's 2^c reach, and (m+n)/2 <= 7, within
# pairing_matrix's.
WIDE_BRAIDS = {(6, 14, 23): 288, (7, 16, 6): 502}


@pytest.mark.parametrize("shape", list(WIDE_BRAIDS), ids=str)
def test_a_wide_one_half_sweep_matches_its_oracles(shape, monkeypatch):
    # the bracket sweep keeps the tangle's boundary ends open, so every
    # state it reads is wider than the narrow bound and laid each time;
    # the plat closure's sweep in p_poly reads only narrow states, whose
    # landings the shared table keeps (none at all where the kinks and
    # bigons pass leaves the closure no crossing).  Each is checked
    # against an oracle
    d = _positive_braid(*shape)
    step = skein._step

    def widths(compute):
        seen = []

        def measured(states, *args):
            seen.append({len(half) for half, _ in states})
            return step(states, *args)

        with monkeypatch.context() as patch:
            patch.setattr(skein, "_step", measured)
            return compute(), seen

    (v, widest), wide = widths(lambda: _peak_table(monkeypatch, bracket, d))
    assert widest == WIDE_BRAIDS[shape]
    assert min(map(min, wide)) > skein._NARROW
    assert v == bracket_oracle(d)
    p, narrow = widths(lambda: p_poly(d))
    assert max(map(max, narrow), default=0) <= skein._NARROW
    assert len(narrow) == {(6, 14, 23): 6, (7, 16, 6): 0}[shape]
    assert p == pair(v, vector_bar(v))


def test_a_wide_plat_closure_sweep_matches_its_oracles(monkeypatch):
    # this 7-strand positive braid keeps all 12 crossings through the
    # kinks and bigons pass, so p_poly's closure sweep reads states both
    # within the narrow bound, whose landings the shared table keeps, and
    # beyond it, laid each time: both kinds of step are pinned, and P(D)
    # meets the matrix route over the bracket, itself checked against
    # bracket_oracle
    d = _positive_braid(7, 12, 21)
    step = skein._step
    widths = []

    def measured(states, *args):
        widths.append({len(half) for half, _ in states})
        return step(states, *args)

    with monkeypatch.context() as patch:
        patch.setattr(skein, "_step", measured)
        p = p_poly(d)
    narrow = sum(1 for seen in widths if max(seen) <= skein._NARROW)
    wide = sum(1 for seen in widths if min(seen) > skein._NARROW)
    assert (narrow, wide) == (5, 5)
    v = bracket(d)
    assert v == bracket_oracle(d)
    assert p == pair(v, vector_bar(v))


def test_the_shared_landing_table_holds_no_label_and_is_only_filled(
        fixtures_dir, monkeypatch):
    # every one-half sweep of crossings shares the table beside their
    # picks: its keys are slot tuples and label-free signatures, and no
    # entry is written to once filled.  A sweep of copies with every label
    # shifted, then of the originals again, must leave it as it was
    monkeypatch.setattr(skein, "_ONE_HALF_PICKS",
                        (skein._ONE_HALF_PICKS[0], {}))
    paths = [path for path in sorted(fixtures_dir.rglob("*.tng"))
             if path.parent.name != "bad"]
    diagrams = [d for d in map(load_tng, paths)
                if not (d.trivalent or d.fourvalent or d.thick)]
    diagrams += [_positive_braid(*shape) for shape in WIDE_BRAIDS]
    values = [(p_poly(d), bracket(d)) for d in diagrams]
    table = skein._ONE_HALF_PICKS[1]
    assert table
    filled = copy.deepcopy(table)
    for d in diagrams:
        labels = {x for t in d.crossings for x in t}
        shifted = relabeled(d, {x: x + 1000 for x in labels.union(
            d.bottom, d.top, d.circles)})
        assert (p_poly(shifted), bracket(shifted).coords) == (
            p_poly(d), bracket(d).coords)
    assert [(p_poly(d), bracket(d)) for d in diagrams] == values
    assert table == filled
    # the table stops growing at its cap, and the sweeps stay exact
    monkeypatch.setattr(skein, "_TABLE_CAP", 5)
    monkeypatch.setattr(skein, "_ONE_HALF_PICKS",
                        (skein._ONE_HALF_PICKS[0], {}))
    assert [(p_poly(d), bracket(d)) for d in diagrams] == values
    assert len(skein._ONE_HALF_PICKS[1]) == 5


def _node(labels, *smoothings):
    """A plain frontier node: smoothings are (arcs, weight) pairs, one
    pick each, each weight taken up to two loops, with a landing table of
    their own."""
    arc_sets = tuple(arcs for arcs, _ in smoothings)
    picks = tuple((s, skein._loop_weights(w, 2))
                  for s, (_, w) in enumerate(smoothings))
    return labels, ((0, (arc_sets, (picks, {}))),), 0


def test_smoothings_that_cancel_in_one_state_leave_no_state():
    # both smoothings open the one path 1-2, with weights q and -q
    for w, left in ((-Q, {}), (Q, 2 * Q)):
        node = _node((1, 2), (((1, 2),), Q), (((2, 1),), w))
        states, laid = skein._frontier_states((), nodes=[node])
        assert laid == 0
        assert states == ({} if left == {} else
                          {(frozenset({(1, 2), (2, 1)}), 0): left})


def test_products_that_cancel_across_states_leave_no_state():
    # the first node leaves two states, paths 1-2, 3-4 with coefficient 1
    # and paths 1-4, 2-3 with -delta; the second closes them in two loops
    # and in one, so both land on the empty state, as delta^2 - delta^2
    for sign, left in ((-1, {}), (1, 2 * delta_power(2))):
        first = _node((1, 2, 3, 4), (((1, 2), (3, 4)), 1),
                      (((1, 4), (2, 3)), sign * DELTA))
        second = _node((1, 2, 3, 4), (((1, 2), (3, 4)), 1))
        states, _ = skein._frontier_states((), nodes=[first, second])
        assert states == ({} if left == {} else
                          {(frozenset(), 0): left})


def _checked_steps(monkeypatch, compute, *args, **kwargs):
    """(compute(*args, **kwargs), passed, died), every sweep step checked
    against the matched-ahead rule: passed counts the states that met
    their vertex's node matched ahead, and died those that met it with no
    link left to take."""
    step = skein._step
    passed = died = absorbed = 0

    def checked(states, vertex, links, lands):
        nonlocal passed, died, absorbed
        absorbed |= vertex
        # no link is kept to a partner absorbed before, or at, this node
        assert not any(partner & absorbed for partner, _ in links)
        nxt = step(states, vertex, links, lands)
        # a covered mask holds only the vertices matched ahead
        assert all(not covered & absorbed for _, covered in nxt)
        for half, covered in states:
            if covered & vertex:
                assert (half, covered ^ vertex) in nxt  # passed, bit cleared
                passed += 1
            elif all(covered & partner for partner, _ in links):
                died += 1
        return nxt

    with monkeypatch.context() as patch:
        patch.setattr(skein, "_step", checked)
        return compute(*args, **kwargs), passed, died


def test_a_vertex_matched_ahead_passes_its_node(monkeypatch):
    _, passed, _ = _checked_steps(monkeypatch, invariant_total_poly,
                                  _ladder(6))
    assert passed
    # the count sweep: links that lay no arcs
    _, passed, _ = _checked_steps(monkeypatch, enumerate_enhancements,
                                  _ladder(4))
    assert passed
    # a 4-cycle, each vertex a node whose links to its two neighbours lay
    # no arcs: its two perfect matchings are all that is left
    take = enhanced._TAKE

    def nodes(vertices, partners):
        return [(labels, tuple((1 << v, take) for v in near), 1 << u)
                for u, (labels, near) in enumerate(zip(vertices, partners))]

    out, passed, _ = _checked_steps(
        monkeypatch, skein._frontier_states, (), nodes=nodes(
            ((1, 2, 5), (1, 3, 6), (3, 4, 7), (2, 4, 8)),
            ((1, 3), (0, 2), (1, 3), (0, 2))))
    assert passed
    assert out == ({(frozenset(), 0): LaurentPoly({0: 2})}, 0)
    # a claw has no perfect matching: once a leaf takes the centre, the
    # next leaf finds it covered, and the state dies
    out, _, died = _checked_steps(
        monkeypatch, skein._frontier_states, (), nodes=nodes(
            ((1, 2, 3), (1, 5, 6), (2, 7, 8), (3, 9, 10)),
            ((1, 2, 3), (0,), (0,), (0,))))
    assert died
    assert out == ({}, 0)


def test_the_sweeps_write_to_no_weight_and_no_unit(fixtures_dir,
                                                   monkeypatch):
    # the sweep adds products into its own term maps in place; a weight
    # map or a kinks' unit written to would change every later sweep
    weights = copy.deepcopy((skein._WEIGHTS, enhanced._TWIN_WEIGHTS))
    units = []
    removed = skein._kinks_and_bigons_removed

    def recorded(*args):
        out = removed(*args)
        units.append((out[3], out[3].terms))
        return out

    monkeypatch.setattr(skein, "_kinks_and_bigons_removed", recorded)
    for owner, name in ((skein, "_CROSSING_PICKS"), (enhanced, "_TWIN_PICKS")):
        monkeypatch.setattr(owner, name, (getattr(owner, name)[0], {}))
    diagrams = [load_tng(path) for path in sorted(fixtures_dir.rglob("*.tng"))
                if path.parent.name != "bad"]
    returned = []

    def sweep_all():
        for d in diagrams:
            if not (d.trivalent or d.fourvalent):
                returned.append(p_poly(d))
                returned.extend(bracket(d).coords)
                # the state sum reads P(D) off one half: the crossings'
                # two-half picks are swept directly
                _two_half_sum(d)
            returned.append(invariant_total_poly(d))

    # a landing table fills on first use and is only read after it: the
    # second round meets no pair of patterns the first did not, and an
    # entry added into would show here.  Both start empty
    sweep_all()
    tables = [skein._CROSSING_PICKS[1], enhanced._TWIN_PICKS[1]]
    filled = copy.deepcopy(tables)
    sweep_all()
    assert all(filled)
    assert tables == filled
    assert (skein._WEIGHTS, enhanced._TWIN_WEIGHTS) == weights
    assert any(terms != {0: 1} for _, terms in units)
    assert all(unit.terms == terms for unit, terms in units)
    assert ONE.terms == {0: 1}
    # the last table's maps are adopted as they stand, so each must be a
    # normal term map, with no zero coefficient, and none a map that a
    # weight, a pick table or ONE holds
    assert all(p == LaurentPoly(p.terms) for p in returned)
    held = _term_maps((skein._WEIGHTS, skein._CROSSING_PICKS,
                       skein._ONE_HALF_PICKS, enhanced._TWIN_PICKS,
                       enhanced._TAKE, ONE._terms, units))
    assert not held & {id(p._terms) for p in returned}


def _term_maps(held) -> set[int]:
    """The ids of every dict that held reaches through tuples, lists and
    dict values, a weight's term maps and a pick table's entries among
    them."""
    ids, work = set(), [held]
    while work:
        x = work.pop()
        if isinstance(x, LaurentPoly):
            work.append(x._terms)
        elif isinstance(x, dict):
            ids.add(id(x))
            work.extend(x.values())
        elif isinstance(x, (tuple, list)):
            work.extend(x)
    return ids
