import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_path
from tanglepoly import pairing, skein
from tanglepoly.diagram import (TangleDiagram, all_labels, load_tng, max_label,
                                replace)
from tanglepoly.enhanced import invariant_total_poly
from tanglepoly.errors import DomainError
from tanglepoly.generate import (_MorseBuilder, insert_kink, mirror,
                                 random_tangle)
from tanglepoly.laurent import ONE, ROOT_INDICES, LaurentPoly, delta_power
from tanglepoly.pairing import (MAX_HALF_BOUNDARY, p_poly, pair,
                                pairing_matrix, plat_loop_count)
from tanglepoly.skein import (bracket, bracket_oracle, enumerate_basis,
                              vector_bar)


def test_plat_loop_counts_for_the_22_basis():
    e0, e1 = enumerate_basis(2, 2).elements
    assert plat_loop_count(2, 2, e0, e0) == 4
    assert plat_loop_count(2, 2, e0, e1) == 3
    assert plat_loop_count(2, 2, e1, e0) == 3
    assert plat_loop_count(2, 2, e1, e1) == 2


def test_plat_loop_count_rejects_partial_matchings():
    with pytest.raises(DomainError):
        plat_loop_count(2, 2, ((1, 2),), ((1, 2), (3, 4)))


def test_pairing_matrix_22_golden():
    A = pairing_matrix(2, 2)
    assert A.entries == (
        (delta_power(4), delta_power(3)),
        (delta_power(3), delta_power(2)),
    )


def test_pairing_matrix_is_symmetric_and_bar_fixed():
    for m, n in ((0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 0), (3, 3)):
        A = pairing_matrix(m, n)
        size = len(A.entries)
        for i in range(size):
            for j in range(size):
                assert A.entries[i][j] == A.entries[j][i], (m, n, i, j)
                assert A.entries[i][j].bar() == A.entries[i][j], (m, n, i, j)


def test_pairing_entries_are_delta_powers_in_range():
    # every closure is a disjoint union of 1..(m+n) loops
    for m, n in ((1, 1), (2, 2), (3, 1), (4, 2)):
        basis = enumerate_basis(m, n)
        for e_i in basis.elements:
            for e_j in basis.elements:
                loops = plat_loop_count(m, n, e_i, e_j)
                assert 1 <= loops <= m + n
        A = pairing_matrix(m, n)
        for row in A.entries:
            for entry in row:
                assert any(entry == delta_power(c) for c in range(1, m + n + 1))


def test_pairing_size_guard():
    with pytest.raises(DomainError):
        pairing_matrix(MAX_HALF_BOUNDARY * 2 + 2, 0)


GOLDEN_P = {
    "identity_11": delta_power(1),
    "circle": delta_power(2),
    "identity_22": delta_power(2),
    "one_crossing": delta_power(2),
    "sigma": delta_power(2),
    "sigma_cubed": delta_power(2),
    "two_circles": delta_power(4),
    "three_strand": delta_power(3),
}


def test_p_poly_goldens():
    for name, expected in GOLDEN_P.items():
        assert p_poly(load_tng(fixture_path(f"{name}.tng"))) == expected, name


def test_p_poly_trefoil_golden():
    p = p_poly(load_tng(fixture_path("trefoil.tng")))
    assert p.terms == {16: -1, 12: -1, 4: 2, 0: 4, -4: 2, -12: -1, -16: -1}
    for k in ROOT_INDICES:
        assert abs(p.eval_root(k) - 9.0) < 1e-9


def test_triple_twist_matches_identity_exactly():
    a = p_poly(load_tng(fixture_path("sigma_cubed.tng")))
    b = p_poly(load_tng(fixture_path("identity_22.tng")))
    assert a == b


def test_trefoil_and_unlink_differ_as_polynomials_not_at_roots():
    a = p_poly(load_tng(fixture_path("trefoil.tng")))
    b = p_poly(load_tng(fixture_path("two_circles.tng")))
    assert a != b
    for k in ROOT_INDICES:
        assert abs(a.eval_root(k) - b.eval_root(k)) < 1e-9


def test_p_eval_validates_the_root_index():
    d = load_tng(fixture_path("circle.tng"))
    assert abs(p_poly(d).eval_root(1) - 3.0) < 1e-12
    with pytest.raises(DomainError):
        p_poly(d).eval_root(2)


def test_p_poly_rejects_graph_diagrams():
    with pytest.raises(DomainError):
        p_poly(load_tng(fixture_path("theta.tng")))


def test_extra_circle_multiplies_by_delta_squared():
    for name in ("identity_22", "sigma", "trefoil"):
        d = load_tng(fixture_path(f"{name}.tng"))
        with_circle = replace(d, circles=d.circles + (max_label(d) + 1,))
        assert p_poly(with_circle) == p_poly(d) * delta_power(2), name


def _with_circles(d, count):
    start = max_label(d) + 1
    return replace(d, circles=d.circles + tuple(range(start, start + count)))


def test_free_loops_are_one_delta_power_applied_once(monkeypatch):
    def delta_to(n):
        return LaurentPoly({2 * n - 4 * j: (-1) ** n * math.comb(n, j)
                            for j in range(n + 1)})

    def fixture(name):
        return load_tng(fixture_path(f"{name}.tng"))

    cups = TangleDiagram(m=600, n=0, bottom=tuple(
        label for label in range(1, 301) for _ in range(2)))
    bracket_22 = bracket(fixture("identity_22")).coords
    cases = [
        # even boundary, odd boundary, loops closed by the caps, graph
        (p_poly, _with_circles(fixture("trefoil"), 300),
         delta_to(600) * p_poly(fixture("trefoil"))),
        (p_poly, _with_circles(fixture("three_strand"), 300),
         delta_to(600) * p_poly(fixture("three_strand"))),
        (p_poly, cups, delta_to(600)),
        (invariant_total_poly, _with_circles(fixture("theta"), 300),
         delta_to(600) * invariant_total_poly(fixture("theta"))),
        (lambda d: bracket(d).coords,
         _with_circles(fixture("identity_22"), 300),
         tuple(delta_to(300) * c for c in bracket_22)),
    ]
    original = LaurentPoly.__mul__

    def guarded(p, other):
        # a loop count carried through the sweep, squared or raised by
        # squaring shows up as a product of two long polynomials
        if isinstance(other, LaurentPoly):
            assert min(len(p.terms), len(other.terms)) <= 64
        return original(p, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", guarded)
    for compute, d, expected in cases:
        assert compute(d) == expected


def test_p_poly_is_mirror_invariant_on_fixtures():
    for name in ("sigma", "sigma_cubed", "trefoil", "one_crossing"):
        d = load_tng(fixture_path(f"{name}.tng"))
        assert p_poly(mirror(d)) == p_poly(d), name


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_p_poly_is_palindromic_and_real_at_roots(seed):
    d = random_tangle(random.Random(seed), max_crossings=4)
    p = p_poly(d)
    assert p.bar() == p
    for k in ROOT_INDICES:
        assert abs(p.eval_root(k).imag) < 1e-9


def _p_via_matrix(d):
    v = bracket(d)
    return pair(v, vector_bar(v))


def _strand_files():
    for path in sorted(FIXTURES.glob("*.tng")) + \
            sorted((FIXTURES / "pairs").glob("*.tng")):
        d = load_tng(str(path))
        if not (d.trivalent or d.fourvalent):
            yield str(path)


STRAND_FILES = tuple(_strand_files())


def test_closure_matches_the_matrix_on_strand_fixtures():
    assert len(STRAND_FILES) >= 15
    for path in STRAND_FILES:
        d = load_tng(path)
        assert p_poly(d) == _p_via_matrix(d), path


def test_closure_matches_the_matrix_on_seeded_tangles():
    boundaries = set()
    for seed in range(300):
        d = random_tangle(random.Random(seed), max_crossings=8)
        boundaries.add((d.m % 2, d.n % 2))
        assert p_poly(d) == _p_via_matrix(d), seed
    # both parities of the boundary, and so both delta exponents, are
    # exercised
    assert boundaries == {(0, 0), (1, 1)}


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(0, 8))
def test_closure_matches_the_matrix_on_drawn_tangles(seed, crossings):
    d = random_tangle(random.Random(seed), max_crossings=crossings)
    assert p_poly(d) == _p_via_matrix(d)


def _braid(strands, crossings, seed):
    """A seeded braid word of crossings letters on strands strands."""
    rng = random.Random(seed)
    b = _MorseBuilder(strands)
    for _ in range(crossings):
        b.cross(rng.randrange(strands - 1), rng.choice((1, -1)))
    return b.finish()


@pytest.fixture
def sweeps(monkeypatch):
    """Every sweep p_poly runs, in call order: the labels of the nodes its
    planner receives, and the loops it lays before its table."""
    calls, planned = [], []
    plan, sweep = skein._absorption_order, pairing._frontier_states

    def recorded_plan(nodes, *args):
        planned.append([labels for labels, _ in nodes])
        return plan(nodes, *args)

    def recording(*args):
        states, laid = sweep(*args)
        calls.append((planned[-1], laid))
        planned.clear()
        return states, laid

    monkeypatch.setattr(skein, "_absorption_order", recorded_plan)
    monkeypatch.setattr(pairing, "_frontier_states", recording)
    return calls


def test_odd_boundaries_sweep_d_once(sweeps):
    # the caps join D's points pairwise, all but the last on each side, so
    # D's crossings are swept once, not beside those of its reflection;
    # kinks and bigons of the closure are removed before the planner, so
    # it receives at most D's.
    # (7,7) is within MAX_HALF_BOUNDARY, but its 429-element matrix takes
    # seconds to build, so that braid is kept short
    diagrams = [_braid(5, 40, 0), _braid(7, 14, 1)] + [
        d for d in map(load_tng, STRAND_FILES) if d.m % 2]
    assert len(diagrams) >= 6
    for d in diagrams:
        sweeps.clear()
        p = p_poly(d)
        ((planned, _),) = sweeps
        assert len(planned) <= len(d.crossings), d
        assert p == _p_via_matrix(d), d


def _word(strands, word, circles=0):
    """The braid of word, (generator, sign) pairs, with free circles."""
    b = _MorseBuilder(strands)
    for gen, sign in word:
        b.cross(gen, sign)
    d = b.finish()
    return _with_circles(d, circles) if circles else d


# closures without kinks or bigons; every other strand fixture with
# crossings has some
IRREDUCIBLE = {"trefoil.tng", "m3_knot_a.tng"}


def test_irreducible_closures_are_swept_as_they_are(sweeps):
    for path in STRAND_FILES:
        d = load_tng(path)
        sweeps.clear()
        p_poly(d)
        ((planned, laid),) = sweeps
        if d.crossings and path.rsplit("/", 1)[-1] not in IRREDUCIBLE:
            assert len(planned) < len(d.crossings), path
            continue
        # the planner gets D's own crossings, labels and all, so the sweep
        # keeps its plan; no cap closes a loop beside a crossing, so only
        # D's circles are laid before it (crossingless caps close loops)
        assert planned == list(d.crossings), path
        if d.crossings:
            assert laid == len(d.circles), path


def test_kinks_and_bigons_leave_p_exact(sweeps):
    # (diagram, loops laid): every crossing is removed
    cases = [
        # both caps make sigma's one crossing a kink
        (load_tng(fixture_path("sigma.tng")), 1),
        # a bigon between strands of different caps: its through-strands
        # close into two circles, or into one circle and the open path
        (_word(4, [(1, 1), (1, -1)]), 2),
        (_word(3, [(1, 1), (1, -1)]), 1),
        (_word(5, [(1, -1), (1, 1)], circles=2), 4),
        # removing the inner bigon makes the outer one
        (_word(6, [(1, 1), (2, 1), (2, -1), (1, -1)]), 3),
    ]
    for d, loops in cases:
        sweeps.clear()
        p = p_poly(d)
        assert sweeps == [([], loops)], d
        assert p == delta_power(2 * loops + d.m % 2) == _p_via_matrix(d), d


def test_seeded_braid_words_match_the_matrix(sweeps):
    widths, kept, total = set(), 0, 0
    for seed in range(150):
        rng = random.Random(seed)
        strands = rng.randint(2, 6)
        word = [(rng.randrange(strands - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 10))]
        d = _word(strands, word, rng.randint(0, 2))
        sweeps.clear()
        assert p_poly(d) == _p_via_matrix(d), seed
        widths.add(strands)
        kept += len(sweeps[0][0])
        total += len(d.crossings)
    assert widths == {2, 3, 4, 5, 6}
    # some crossings are removed, and some are swept
    assert 0 < kept < total


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(0, 6), st.integers(0, 2))
def test_kinked_tangles_match_the_matrix(seed, crossings, circles):
    # kinks of both signs on random edges, where caps may form more
    rng = random.Random(seed)
    d = random_tangle(rng, max_crossings=crossings)
    for _ in range(2):
        labels = sorted(all_labels(d))
        if labels:
            d = insert_kink(d, rng.choice(labels), rng.choice((1, -1)))
    d = _with_circles(d, circles)
    assert p_poly(d) == _p_via_matrix(d)
    assert bracket(d) == bracket_oracle(d)


def test_a_long_word_of_bigons_reduces_in_one_linear_pass(sweeps):
    # (s1 s1^-1)^10000: the pass removes all 20000 crossings, with no
    # recursion to exceed Python's stack, and the sweep gets none of them
    d = _word(2, [(0, 1), (0, -1)] * 10000)
    assert p_poly(d) == delta_power(2)
    assert sweeps == [([], 1)]


def test_bracket_removes_the_long_word_of_bigons(monkeypatch):
    # the same pass serves bracket: its planner receives no crossing, and
    # the word's coordinates are those of the identity braid
    planned = []
    plan = skein._absorption_order

    def recorded(nodes, *args):
        planned.append(len(nodes))
        return plan(nodes, *args)

    monkeypatch.setattr(skein, "_absorption_order", recorded)
    v = bracket(_word(2, [(0, 1), (0, -1)] * 10000))
    assert planned == [0]
    assert v.as_dict() == {((1, 4), (2, 3)): ONE}


@pytest.mark.parametrize("width", range(1, 6))
def test_identity_pairs_to_a_delta_power(width):
    labels = tuple(range(1, width + 1))
    d = TangleDiagram(m=width, n=width, bottom=labels, top=labels)
    assert p_poly(d) == _p_via_matrix(d) == delta_power(width)


def test_p_poly_builds_no_basis_matrix_or_bracket(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the matrix route was called")

    for owner, name in ((pairing, "pairing_matrix"), (pairing, "pair"),
                        (pairing, "bracket"), (pairing, "enumerate_basis"),
                        (skein, "bracket"), (skein, "enumerate_basis")):
        monkeypatch.setattr(owner, name, refuse)
    for name, expected in GOLDEN_P.items():
        assert p_poly(load_tng(fixture_path(f"{name}.tng"))) == expected, name
    p = p_poly(load_tng(fixture_path("trefoil.tng")))
    assert p.terms == {16: -1, 12: -1, 4: 2, 0: 4, -4: 2, -12: -1, -16: -1}
