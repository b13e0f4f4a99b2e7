import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_path
from tanglepoly import diagram
from tanglepoly.diagram import (NONPLANAR_MESSAGE, TangleDiagram,
                                ValidationReport, all_labels,
                                boundary_circular_labels, edge_occurrences,
                                ensure_valid, invariant_problems, load_tng,
                                max_label, merge_edges, parse_tng,
                                planarity_problems, replace, serialize_tng,
                                validate)
from tanglepoly.enhanced import (contract, enumerate_enhancements,
                                 invariant_rho_poly, invariant_total_poly)
from tanglepoly.errors import InvalidDiagramError, ParseError, TangleError
from tanglepoly.generate import (braid_pattern, is_isomorphic, map_faces,
                                 mirror, random_tangle, random_trivalent,
                                 reflect, relabel_occurrence, relabeled,
                                 tensor)
from tanglepoly.pairing import p_poly
from tanglepoly.skein import bracket, bracket_oracle

GOOD_FIXTURES = (
    "circle", "two_circles", "identity_11", "identity_22", "three_strand",
    "one_crossing", "sigma", "sigma_cubed", "pattern_identity", "theta",
    "handcuff", "all_external", "trefoil",
)


def D(**kw):
    kw.setdefault("m", 0)
    kw.setdefault("n", 0)
    return TangleDiagram(**kw)


def test_codes_are_stored_in_least_rotation():
    # crossings and 4-valent codes rotate by two slots, trivalent by any
    assert D(crossings=((4, 3, 1, 2),), bottom=(), top=()).crossings == \
        ((1, 2, 4, 3),)
    assert D(trivalent=((3, 2, 1),)).trivalent == ((1, 3, 2),)
    assert D(fourvalent=((2, 1, 1, 2),)).fourvalent == ((1, 2, 2, 1),)


def test_node_lines_and_labels():
    d = load_tng(fixture_path("theta.tng"))
    assert [kind for kind, _ in d.node_lines()] == ["V", "V"]
    assert all_labels(d) == {1, 2, 3}
    assert max_label(d) == 3
    assert max_label(D()) == 0


def test_edge_occurrences_shape():
    d = load_tng(fixture_path("one_crossing.tng"))
    occ = edge_occurrences(d)
    assert occ[1] == [("X", 0, 0), ("bot", 0, 0)]
    assert occ[3] == [("X", 0, 3), ("top", 0, 0)]
    assert set(occ) == {1, 2, 3, 4}


def test_boundary_circular_order_reverses_top():
    d = load_tng(fixture_path("one_crossing.tng"))
    assert boundary_circular_labels(d) == [1, 2, 4, 3]


def test_all_shipped_fixtures_validate(fixtures_dir):
    for name in GOOD_FIXTURES:
        d = load_tng(fixtures_dir / f"{name}.tng")
        report = validate(d)
        assert report.ok, (name, report.problems)


def test_serialize_parse_round_trip(fixtures_dir):
    for name in GOOD_FIXTURES:
        d = load_tng(fixtures_dir / f"{name}.tng")
        assert parse_tng(serialize_tng(d)) == d


def test_parse_accepts_comments_and_blank_lines():
    text = """
    # a lone circle
    tangle m=0 n=0

    O 1   # the component
    B |
    """
    assert parse_tng(text) == D(circles=(1,))


@pytest.mark.parametrize("text,message", [
    ("O 1\nB |\n", "missing 'tangle"),
    ("tangle m=0 n=0\nO 1\n", "missing B line"),
    ("tangle m=0\nB |\n", "header must be"),
    ("tangle m=0 n=0\ntangle m=0 n=0\nB |\n", "duplicate header"),
    ("tangle m=0 n=0\nB |\nB |\n", "duplicate B line"),
    ("tangle m=0 n=0\nB | |\n", "exactly one '|'"),
    ("tangle m=0 n=0\nB\n", "exactly one '|'"),
    ("tangle m=0 n=0\nW 1 2\nB |\n", "unknown line tag"),
    ("tangle m=0 n=0\nX 1 2 3\nB |\n", "X line needs exactly 4"),
    ("tangle m=0 n=0\nV 1 2\nB |\n", "V line needs exactly 3"),
    ("tangle m=0 n=0\nF 1 2 3\nB |\n", "F line needs exactly 4"),
    ("tangle m=0 n=0\nO 1 2\nB |\n", "O line needs exactly 1"),
    ("tangle m=0 n=0\nO x\nB |\n", "positive integer label"),
    ("tangle m=0 n=0\nO 0\nB |\n", "positive integer label"),
    ("tangle m=1 n=1\nB 1 | \u00b2\n", "positive integer label"),
])
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_tng(text)
    assert message in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_tng("tangle m=0 n=0\nX 1 2 3\nB |\n")
    assert str(err.value).startswith("line 2:")


@pytest.mark.parametrize("name,message", [
    ("bad_count", "occurs 3 time(s)"),
    ("bad_thick", "self-loop"),
    ("bad_odd", "is odd"),
    ("bad_circle_reuse", "also occurs"),
])
def test_invalid_fixtures_rejected_at_parse(fixtures_dir, name, message):
    text = (fixtures_dir / "bad" / f"{name}.tng").read_text()
    with pytest.raises(InvalidDiagramError) as err:
        parse_tng(text)
    assert message in str(err.value)


def test_bad_syntax_fixture_is_a_parse_error(fixtures_dir):
    with pytest.raises(ParseError):
        parse_tng((fixtures_dir / "bad" / "bad_syntax.tng").read_text())


def test_nonplanar_fixture_parses_but_fails_validation(fixtures_dir):
    path = fixtures_dir / "bad" / "bad_nonplanar.tng"
    d = parse_tng(path.read_text())
    report = validate(d)
    assert not report.ok
    assert NONPLANAR_MESSAGE in report.problems
    with pytest.raises(InvalidDiagramError):
        ensure_valid(d)
    # loading a file is the one gate: it refuses what validate refuses
    with pytest.raises(InvalidDiagramError, match=f"^{NONPLANAR_MESSAGE}$"):
        load_tng(path)


BAD_FIXTURE_PROBLEMS = {
    "bad_circle_reuse": (
        "label 2 is a circle but also occurs at a node or boundary",
        "label 1 occurs 1 time(s), expected 2",
        "label 2 occurs 1 time(s), expected 2"),
    "bad_count": ("label 1 occurs 3 time(s), expected 2",
                  "label 2 occurs 1 time(s), expected 2"),
    "bad_nonplanar": (NONPLANAR_MESSAGE,),
    "bad_odd": ("boundary size m+n = 1 is odd",
                "label 1 occurs 1 time(s), expected 2"),
    "bad_thick": ("thick edge 1 is a self-loop at a trivalent vertex",),
}


def test_validation_messages_of_the_bad_fixtures_are_pinned(fixtures_dir,
                                                           monkeypatch):
    # parse without the invariant check, so validate sees each bad diagram
    monkeypatch.setattr(diagram, "ensure_invariants", lambda d: d)
    seen = {}
    for path in sorted((fixtures_dir / "bad").glob("*.tng")):
        try:
            d = parse_tng(path.read_text())
        except ParseError as exc:
            seen[path.stem] = str(exc)
        else:
            seen[path.stem] = validate(d).problems
    assert seen == dict(BAD_FIXTURE_PROBLEMS, bad_syntax=(
        "line 2: X line needs exactly 4 labels"))


def test_validation_messages_of_many_problems_keep_their_order():
    d = TangleDiagram(m=2, n=2, crossings=((1, 2, 1, 3), (4, 0, 5, 5)),
                      trivalent=((6, 7, 8), (8, 9, 6)), circles=(3, 10, 10),
                      bottom=(11,), top=(11, 12),
                      thick=frozenset({3, 9, 8, 13}))
    assert validate(d).problems == (
        "header says m=2 but B lists 1 bottom points",
        "a circle label is repeated",
        "label 3 is a circle but also occurs at a node or boundary",
        "label 0 is not a positive integer",
        "label 0 occurs 1 time(s), expected 2",
        "label 2 occurs 1 time(s), expected 2",
        "label 3 occurs 1 time(s), expected 2",
        "label 4 occurs 1 time(s), expected 2",
        "label 7 occurs 1 time(s), expected 2",
        "label 9 occurs 1 time(s), expected 2",
        "label 12 occurs 1 time(s), expected 2",
        "thick edge 3 is a circle",
        "thick edge 9 does not join two trivalent vertices",
        "thick edge 13 does not join two trivalent vertices")
    # map_faces refuses an invalid diagram with validate's joined message
    with pytest.raises(InvalidDiagramError) as err:
        map_faces(d)
    assert str(err.value) == "; ".join(validate(d).problems)
    thrice = D(crossings=((2, 2, 2, 1), (1, 3, 4, 4)))
    assert validate(thrice).problems == (
        "label 2 occurs 3 time(s), expected 2",
        "label 3 occurs 1 time(s), expected 2")


# an invalid diagram is refused as invalid by every computation, before
# any check of the computation's own domain (strand or graph, thick set)
COMPUTATIONS = {
    "bracket": bracket,
    "bracket_oracle": bracket_oracle,
    "p_poly": p_poly,
    "invariant_total_poly": invariant_total_poly,
    "invariant_rho_poly": lambda d: invariant_rho_poly(d, frozenset({1})),
    "enumerate_enhancements": enumerate_enhancements,
    "contract": lambda d: contract(d, frozenset({1})),
    "map_faces": map_faces,
    "is_isomorphic": lambda d: is_isomorphic(d, d),
}


@pytest.mark.parametrize("d", [
    # a theta whose two vertices turn the same way only embeds in a torus
    D(trivalent=((1, 2, 3), (1, 2, 3))),
    # a thick edge must join two trivalent vertices
    D(m=1, n=1, bottom=(1,), top=(1,), thick=frozenset({1})),
], ids=["nonplanar_theta", "thick_strand"])
@pytest.mark.parametrize("name", sorted(COMPUTATIONS))
def test_every_computation_refuses_an_invalid_diagram_first(name, d):
    with pytest.raises(InvalidDiagramError) as err:
        COMPUTATIONS[name](d)
    assert str(err.value) == "; ".join(validate(d).problems)


def test_header_boundary_mismatch_is_invalid():
    with pytest.raises(InvalidDiagramError) as err:
        parse_tng("tangle m=2 n=0\nB 1 |\n")
    assert "header says m=2" in str(err.value)


def test_thick_on_missing_edge_is_invalid():
    with pytest.raises(InvalidDiagramError):
        parse_tng("tangle m=0 n=0\nV 1 2 3\nV 3 2 1\nB |\nT 9\n")


def test_thick_must_join_two_trivalent_vertices():
    with pytest.raises(InvalidDiagramError):
        parse_tng("tangle m=1 n=1\nB 1 | 1\nT 1\n")


def test_map_faces_one_crossing():
    d = load_tng(fixture_path("one_crossing.tng"))
    faces = map_faces(d)
    # Euler count for the boundary-closed map: 5 vertices, 8 edges, 5 faces
    assert len(faces) == 5
    assert frozenset({1, 2}) in faces
    assert frozenset({3, 4}) in faces


def test_map_faces_theta():
    # faces come in order of their least dart
    assert map_faces(load_tng(fixture_path("theta.tng"))) == (
        frozenset({1, 3}), frozenset({1, 2}), frozenset({2, 3}))


def test_each_component_must_be_planar():
    arc = load_tng(fixture_path("identity_11.tng"))
    curl = parse_tng("tangle m=0 n=0\nX 1 1 2 2\nB |\n")
    torus = parse_tng("tangle m=0 n=0\nX 1 2 1 2\nB |\n")
    assert validate(tensor(arc, curl)).ok
    report = validate(tensor(arc, torus))
    assert report.problems == (NONPLANAR_MESSAGE,)


def _components_are_spheres(d):
    """Per-component Euler count of the boundary-closed map, from the codes.

    Each boundary point p becomes a vertex (frame p, its label, frame p-1),
    frame p joining point p to point p+1 in circular order.  A dart is a
    (vertex, slot) pair; faces are orbits of "other end of the edge, then
    next slot ccw".
    """
    points = boundary_circular_labels(d)
    rings = [t for _, t in d.node_lines()]
    rings += [(("frame", p), lab, ("frame", (p - 1) % len(points)))
              for p, lab in enumerate(points)]
    ends = {}
    for v, ring in enumerate(rings):
        for slot, lab in enumerate(ring):
            ends.setdefault(lab, []).append((v, slot))

    def other(dart):
        a, b = ends[rings[dart[0]][dart[1]]]
        return b if dart == a else a

    component = {}
    for v in range(len(rings)):
        if v in component:
            continue
        component[v] = v
        stack = [v]
        while stack:
            u = stack.pop()
            for slot in range(len(rings[u])):
                w = other((u, slot))[0]
                if w not in component:
                    component[w] = v
                    stack.append(w)

    euler = {root: 0 for root in component.values()}
    for v, root in component.items():
        euler[root] += 1 - len(rings[v]) / 2
    seen = set()
    for v, ring in enumerate(rings):
        for slot in range(len(ring)):
            if (v, slot) in seen:
                continue
            euler[component[v]] += 1
            dart = (v, slot)
            while dart not in seen:
                seen.add(dart)
                u, s = other(dart)
                dart = (u, (s + 1) % len(rings[u]))
    return all(x == 2 for x in euler.values())


def _perturbed(rng, d):
    """d with the slots of one or two nodes shuffled and maybe two bottom
    points swapped: label counts stay valid, planarity may not."""
    nodes = {"crossings": list(d.crossings), "trivalent": list(d.trivalent)}
    names = [k for k, v in nodes.items() if v]
    for _ in range(rng.randint(1, 2) if names else 0):
        name = rng.choice(names)
        i = rng.randrange(len(nodes[name]))
        nodes[name][i] = tuple(rng.sample(nodes[name][i], len(nodes[name][i])))
    bottom = list(d.bottom)
    if len(bottom) >= 2 and rng.random() < 0.3:
        i, j = rng.sample(range(len(bottom)), 2)
        bottom[i], bottom[j] = bottom[j], bottom[i]
    return replace(d, crossings=tuple(nodes["crossings"]),
                   trivalent=tuple(nodes["trivalent"]), bottom=tuple(bottom))


def test_validate_agrees_with_a_per_component_euler_count():
    rng = random.Random(20261018)
    verdicts = []
    for i in range(600):
        make = random_tangle if i % 2 else random_trivalent
        d = _perturbed(rng, make(random.Random(rng.randrange(10 ** 6))))
        ok = _components_are_spheres(d)
        assert validate(d).ok == ok, serialize_tng(d)
        verdicts.append(ok)
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 100


@pytest.mark.parametrize("d", [
    D(trivalent=((1, 2, 3), (1, 2, 3))),      # theta on a torus
    D(trivalent=((1, 1, 2), (3, 3, 4))),      # labels 2 and 4 occur once
], ids=["nonplanar", "label-count"])
def test_an_invalid_diagram_raises_the_same_text_every_call(d):
    with pytest.raises(InvalidDiagramError) as first:
        ensure_valid(d)
    with pytest.raises(InvalidDiagramError) as second:
        ensure_valid(d)
    assert str(first.value) == str(second.value) != ""
    assert str(first.value) == "; ".join(validate(d).problems)


def test_a_diagram_is_checked_once_and_its_replacement_afresh(planarity_calls):
    d = load_tng(fixture_path("theta.tng"))
    report = validate(d)
    assert ensure_valid(d) is d and validate(d) is report
    assert planarity_calls == [d]
    same = replace(d)
    assert validate(same) == report
    assert len(planarity_calls) == 2 and planarity_calls[1] is same


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), st.booleans(), st.booleans())
def test_the_stored_report_equals_a_fresh_one(seed, graph, perturb):
    rng = random.Random(seed)
    d = (random_trivalent if graph else random_tangle)(rng)
    if perturb:
        d = _perturbed(rng, d)
    stored = validate(d)
    problems = invariant_problems(d) or planarity_problems(d)
    assert stored == ValidationReport(not problems, tuple(problems))
    assert validate(d) is stored
    assert validate(replace(d)) == stored


def test_relabeled_and_is_isomorphic():
    theta = load_tng(fixture_path("theta.tng"))
    shuffled = relabeled(theta, {1: 7, 2: 8, 3: 9})
    assert shuffled != theta
    assert is_isomorphic(theta, shuffled)
    assert not is_isomorphic(theta, load_tng(fixture_path("handcuff.tng")))


def test_is_isomorphic_respects_thick_sets():
    a = parse_tng("tangle m=0 n=0\nV 1 2 3\nV 3 2 1\nB |\nT 2\n")
    b = parse_tng("tangle m=0 n=0\nV 1 2 3\nV 3 2 1\nB |\nT 3\n")
    plain = parse_tng("tangle m=0 n=0\nV 1 2 3\nV 3 2 1\nB |\n")
    assert is_isomorphic(a, relabeled(a, {1: 4, 2: 5, 3: 6}))
    assert not is_isomorphic(a, plain)
    # the theta rotations are symmetric enough to swap edges 2 and 3
    assert is_isomorphic(a, b)


def test_is_isomorphic_exits_early_on_unmatched_shapes():
    def load(name):
        return load_tng(fixture_path(name + ".tng"))

    # boundary shape, circle count and node kinds differ
    assert not is_isomorphic(load("identity_11"), load("identity_22"))
    assert not is_isomorphic(load("circle"), load("two_circles"))
    assert not is_isomorphic(load("theta"), D(fourvalent=((1, 1, 2, 2),)))
    # the boundary points, matched in order, cannot take one bijection
    cup_cap = D(m=2, n=2, bottom=(1, 1), top=(2, 2))
    assert validate(cup_cap).ok
    assert not is_isomorphic(load("identity_22"), cup_cap)


def test_is_isomorphic_backtracks_after_a_deeper_failure():
    # e is d relabeled with its vertices in reverse order: the first
    # binding of d's first vertex fails one vertex deeper and is undone
    d = D(trivalent=((1, 4, 3), (3, 5, 5), (1, 8, 7), (4, 7, 8)),
          circles=(12,))
    e = D(trivalent=((1, 8, 7), (7, 8, 12), (4, 5, 5), (1, 4, 12)),
          circles=(3,))
    assert validate(d).ok and validate(e).ok
    assert is_isomorphic(d, e) and is_isomorphic(e, d)


def test_is_isomorphic_of_a_long_braid_does_not_recurse():
    # 3000 crossings in one chain, past Python's recursion limit
    d = braid_pattern(*[1] * 3000)
    labels = sorted(all_labels(d))
    shuffled = labels[:]
    random.Random(0).shuffle(shuffled)
    copy = relabeled(d, dict(zip(labels, shuffled)))
    a, b, c, dd = d.crossings[1500]
    flipped = replace(d, crossings=d.crossings[:1500] + ((b, c, dd, a),)
                      + d.crossings[1501:])
    assert validate(flipped).ok
    assert is_isomorphic(d, copy) and is_isomorphic(copy, d)
    assert not is_isomorphic(d, flipped) and not is_isomorphic(flipped, copy)


def _closed_braid(n):
    """sigma_1^n with both strands joined round."""
    d = braid_pattern(*[1] * n)
    return merge_edges(replace(d, m=0, n=0, bottom=(), top=()),
                       [(1, d.top[0]), (2, d.top[1])])


def test_is_isomorphic_refuses_unequal_label_types_at_once():
    # a closed braid against itself with its middle crossing turned by one
    # slot: seeding each start node would spread round the whole closure
    n = 1000
    d = _closed_braid(n)
    a, b, c, dd = d.crossings[n // 2]
    flipped = replace(d, crossings=d.crossings[:n // 2] + ((b, c, dd, a),)
                      + d.crossings[n // 2 + 1:])
    assert validate(d).ok and validate(flipped).ok
    start = time.perf_counter()
    assert not is_isomorphic(d, flipped)
    assert time.perf_counter() - start < 0.5


def test_is_isomorphic_refuses_unequal_component_sizes_at_once():
    # one closed braid against two of half its length side by side: every
    # label has the same type, but the components differ in size, and
    # seeding each start node would spread half way round before failing
    n = 1000
    whole, halves = _closed_braid(n), tensor(_closed_braid(n // 2),
                                             _closed_braid(n // 2))
    assert validate(whole).ok and validate(halves).ok
    start = time.perf_counter()
    assert not is_isomorphic(whole, halves)
    assert not is_isomorphic(halves, whole)
    assert time.perf_counter() - start < 0.5


def test_free_fourvalent_rotation_flag():
    a = D(fourvalent=((1, 2, 3, 4),), m=2, n=2, bottom=(1, 2), top=(4, 3))
    b = D(fourvalent=((2, 3, 4, 1),), m=2, n=2, bottom=(1, 2), top=(4, 3))
    assert not is_isomorphic(a, b)
    assert is_isomorphic(a, b, free_fourvalent=True)


def test_relabel_occurrence_targets_one_end():
    d = load_tng(fixture_path("identity_11.tng"))
    cut = relabel_occurrence(d, "bot", 0, 0, 5)
    assert cut.bottom == (5,)
    assert cut.top == (1,)


def test_merge_edges_joins_and_closes_circles():
    d = D(m=2, n=2, bottom=(1, 2), top=(3, 4))
    joined = merge_edges(d, [(1, 3)])
    assert joined.bottom == (1, 2)
    assert joined.top == (1, 4)
    # joining the two ends of an already-common edge closes a circle
    closed = merge_edges(joined, [(1, 1)])
    assert len(closed.circles) == 1


def test_mirror_swaps_over_and_under():
    assert mirror(braid_pattern(+1)) == braid_pattern(-1)
    d = load_tng(fixture_path("trefoil.tng"))
    assert mirror(mirror(d)) == d


@pytest.mark.parametrize(
    "path", sorted(p.relative_to(FIXTURES).as_posix()
                   for p in FIXTURES.rglob("*.tng") if p.parent.name != "bad"))
def test_reflect_is_an_involution_that_keeps_fixtures_valid(path):
    d = load_tng(fixture_path(path))
    r = reflect(d)
    assert validate(r).ok
    assert reflect(r) == d
    assert (r.bottom, r.top) == (d.bottom[::-1], d.top[::-1])


def test_reflect_reverses_each_node():
    d = D(crossings=((1, 2, 4, 3),), trivalent=((5, 6, 7), (7, 6, 5)),
          fourvalent=((8, 9, 10, 11),))
    r = reflect(d)
    assert r.crossings == ((1, 3, 4, 2),)
    assert r.trivalent == ((5, 7, 6), (5, 6, 7))
    assert r.fourvalent == ((8, 11, 10, 9),)


def test_tensor_places_side_by_side():
    arc = load_tng(fixture_path("identity_11.tng"))
    two = tensor(arc, arc)
    assert (two.m, two.n) == (2, 2)
    assert validate(two).ok
    assert is_isomorphic(two, load_tng(fixture_path("identity_22.tng")))


def test_tensor_keeps_labels_disjoint():
    theta = load_tng(fixture_path("theta.tng"))
    both = tensor(theta, theta)
    assert len(all_labels(both)) == 6
    assert validate(both).ok


@given(st.integers(0, 10 ** 6))
def test_random_tangles_validate_and_round_trip(seed):
    d = random_tangle(random.Random(seed))
    assert validate(d).ok
    assert parse_tng(serialize_tng(d)) == d


@given(st.integers(0, 10 ** 6))
def test_random_trivalent_graphs_validate(seed):
    d = random_trivalent(random.Random(seed))
    assert validate(d).ok
    assert d.m == d.n == 0
    assert not d.crossings


# words of the .tng grammar, near misses included, so drawn text reaches
# the checks after the first line as well as the tokenizer; the last digit
# run is longer than int() reads
_TNG_WORDS = st.sampled_from((
    "tangle", "m=0", "n=0", "m=1", "n=2", "m=99999999999", "X", "V", "F",
    "O", "B", "T", "|", "#", "1", "2", "3", "4", "0", "-1", "\u00b2", "x",
    "\n", "\n", "\n", "9" * 5000))


@settings(max_examples=300)
@given(st.one_of(st.text(), st.lists(_TNG_WORDS).map(" ".join)))
def test_parse_tng_raises_only_package_errors(text):
    try:
        parse_tng(text)
    except TangleError:
        pass
