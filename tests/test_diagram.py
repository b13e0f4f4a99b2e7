import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fixture_path
from tanglepoly.diagram import (NONPLANAR_MESSAGE, TangleDiagram, all_labels,
                                boundary_circular_labels, edge_occurrences,
                                ensure_valid, is_isomorphic, load_tng,
                                map_faces, max_label, merge_edges, mirror,
                                parse_tng, relabel_occurrence, relabeled,
                                serialize_tng, tensor, validate)
from tanglepoly.errors import InvalidDiagramError, ParseError
from tanglepoly.generate import random_tangle, random_trivalent

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
    d = load_tng(fixtures_dir / "bad" / "bad_nonplanar.tng")
    report = validate(d)
    assert not report.ok
    assert NONPLANAR_MESSAGE in report.problems
    with pytest.raises(InvalidDiagramError):
        ensure_valid(d)


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
    from tanglepoly.moves import braid_pattern
    assert mirror(braid_pattern(+1)) == braid_pattern(-1)
    d = load_tng(fixture_path("trefoil.tng"))
    assert mirror(mirror(d)) == d


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
