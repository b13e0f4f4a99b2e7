import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, decimal_root_text, fixture_path
from tanglepoly import moves
from tanglepoly.cli import main
from tanglepoly.diagram import (TangleDiagram, all_labels, load_tng,
                                serialize_tng)
from tanglepoly.enhanced import contract, invariant_rho_poly
from tanglepoly.errors import (DomainError, InvalidDiagramError, ParseError,
                               TangleError)
from tanglepoly.generate import (SpliceSite, _MorseBuilder, braid_pattern,
                                 ih_rewrite, insert_kink, is_isomorphic,
                                 map_faces, mirror, random_splice_site,
                                 random_tangle, splice_22)
from tanglepoly.laurent import LaurentPoly, ROOT_INDICES
from tanglepoly.moves import (MovePair, comparison_poly, parse_manifest,
                              verify_manifest, verify_pair)
from tanglepoly.pairing import p_poly
from tanglepoly.skein import bracket


def test_braid_pattern_goldens():
    assert braid_pattern() == TangleDiagram(m=2, n=2, bottom=(1, 2), top=(1, 2))
    pos = braid_pattern(1)
    assert pos.crossings == ((2, 4, 3, 1),)
    assert pos.bottom == (1, 2) and pos.top == (3, 4)
    neg = braid_pattern(-1)
    assert neg.crossings == ((1, 2, 4, 3),)
    two = braid_pattern(1, -1)
    assert two.crossings == ((2, 4, 3, 1), (3, 4, 6, 5))
    assert two.top == (5, 6)


def test_braid_pattern_mirror_swaps_sign():
    assert mirror(braid_pattern(1)) == braid_pattern(-1)
    assert mirror(braid_pattern(-1, 1)) == braid_pattern(1, -1)


def test_insert_kink_reproduces_the_curated_first_move_pair():
    arc = load_tng(fixture_path("identity_11.tng"))
    kinked = insert_kink(arc, 1, 1)
    assert kinked == load_tng(fixture_path("pairs/r1_b.tng"))


def test_kink_scales_the_bracket_by_a_cube():
    arc = load_tng(fixture_path("identity_11.tng"))
    assert bracket(insert_kink(arc, 1, 1)).coords == (LaurentPoly({3: -1}),)
    assert bracket(insert_kink(arc, 1, -1)).coords == (LaurentPoly({-3: -1}),)


def test_kink_on_a_circle():
    circle = load_tng(fixture_path("circle.tng"))
    kinked = insert_kink(circle, 1, 1)
    assert not kinked.circles
    assert len(kinked.crossings) == 1
    assert p_poly(kinked) == p_poly(circle)


@pytest.mark.parametrize("name,edge", [
    ("one_crossing", 1), ("one_crossing", 4), ("trefoil", 3),
    ("sigma_cubed", 2), ("identity_22", 2), ("three_strand", 3),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_kink_leaves_the_pairing_polynomial_alone(name, edge, sign):
    d = load_tng(fixture_path(f"{name}.tng"))
    assert p_poly(insert_kink(d, edge, sign)) == p_poly(d)


@settings(max_examples=25)
@given(st.integers(0, 10 ** 6), st.sampled_from((1, -1)))
def test_kink_invariance_on_random_tangles(seed, sign):
    rng = random.Random(seed)
    d = random_tangle(rng, max_crossings=3)
    labels = sorted(all_labels(d))
    if not labels:
        return
    edge = rng.choice(labels)
    assert p_poly(insert_kink(d, edge, sign)) == p_poly(d)


def test_kink_error_cases():
    thick_theta = load_tng(fixture_path("pairs/ih_a.tng"))
    with pytest.raises(DomainError, match="thick"):
        insert_kink(thick_theta, 2)
    arc = load_tng(fixture_path("identity_11.tng"))
    with pytest.raises(DomainError, match="not in diagram"):
        insert_kink(arc, 99)


def _working_site(d, edge_a, edge_b, pattern):
    for end_a in (0, 1):
        for end_b in (0, 1):
            site = SpliceSite(edge_a, end_a, edge_b, end_b)
            try:
                result = splice_22(d, site, pattern)
            except (DomainError, InvalidDiagramError):
                continue
            return site, result
    raise AssertionError("no planar end assignment found")


def test_identity_splice_is_a_no_op():
    d = load_tng(fixture_path("one_crossing.tng"))
    _, out = _working_site(d, 1, 2, braid_pattern())
    assert p_poly(out) == p_poly(d)
    assert is_isomorphic(out, d)


def test_double_twist_splice_is_exact():
    for name in ("one_crossing", "trefoil", "sigma_cubed"):
        d = load_tng(fixture_path(f"{name}.tng"))
        faces = [sorted(f) for f in map_faces(d) if len(f) >= 2]
        a, b = faces[0][0], faces[0][1]
        for signs in ((1, -1), (-1, 1)):
            _, out = _working_site(d, a, b, braid_pattern(*signs))
            assert p_poly(out) == p_poly(d), (name, signs)


def test_triple_twist_splice_agrees_at_the_roots():
    d = load_tng(fixture_path("one_crossing.tng"))
    for signs in ((1, 1, 1), (-1, -1, -1)):
        _, out = _working_site(d, 1, 2, braid_pattern(*signs))
        pa, pb = p_poly(out), p_poly(d)
        for k in ROOT_INDICES:
            assert abs(pa.eval_root(k) - pb.eval_root(k)) < 1e-9, (signs, k)


def test_triple_twist_can_change_the_polynomial():
    # root values agree on this pair while the exact polynomials differ
    knot = load_tng(fixture_path("pairs/m3_knot_a.tng"))
    unknot = load_tng(fixture_path("pairs/m3_knot_b.tng"))
    assert p_poly(knot) != p_poly(unknot)
    for k in ROOT_INDICES:
        assert abs(p_poly(knot).eval_root(k)
                   - p_poly(unknot).eval_root(k)) < 1e-9


def test_splice_results_stay_valid():
    d = load_tng(fixture_path("trefoil.tng"))
    faces = [sorted(f) for f in map_faces(d) if len(f) >= 2]
    a, b = faces[0][0], faces[0][1]
    _, out = _working_site(d, a, b, braid_pattern(1))
    from tanglepoly.diagram import validate
    assert validate(out).ok


def test_splice_error_cases():
    d = load_tng(fixture_path("one_crossing.tng"))
    site = SpliceSite(1, 0, 2, 0)
    with pytest.raises(DomainError, match="must be a \\(2,2\\) diagram"):
        splice_22(d, site, load_tng(fixture_path("identity_11.tng")))
    with pytest.raises(DomainError, match="strand diagram"):
        splice_22(d, site, load_tng(fixture_path("pattern_identity.tng")))
    with pytest.raises(DomainError, match="distinct"):
        splice_22(d, SpliceSite(1, 0, 1, 1), braid_pattern())
    with pytest.raises(DomainError, match="kink first"):
        splice_22(load_tng(fixture_path("two_circles.tng")),
                  SpliceSite(1, 0, 2, 0), braid_pattern())
    thick_theta = load_tng(fixture_path("pairs/ih_a.tng"))
    with pytest.raises(DomainError, match="thick"):
        splice_22(thick_theta, SpliceSite(2, 0, 1, 0), braid_pattern())
    with pytest.raises(DomainError, match="not in diagram"):
        splice_22(d, SpliceSite(7, 0, 9, 0), braid_pattern())
    with pytest.raises(DomainError, match="0 or 1"):
        splice_22(d, SpliceSite(1, 2, 2, 0), braid_pattern())


def test_splice_requires_a_common_face():
    d = load_tng(fixture_path("trefoil.tng"))
    faces = map_faces(d)
    labels = sorted(all_labels(d))
    apart = [(a, b) for a in labels for b in labels if a < b
             and not any(a in f and b in f for f in faces)]
    assert apart
    a, b = apart[0]
    with pytest.raises(DomainError, match="do not cobound"):
        splice_22(d, SpliceSite(a, 0, b, 0), braid_pattern())


def test_random_splice_sites_are_usable():
    hits = 0
    for seed in range(12):
        rng = random.Random(seed)
        d = random_tangle(rng, max_crossings=3)
        site = random_splice_site(rng, d)
        if site is None:
            continue
        hits += 1
        out = splice_22(d, site, braid_pattern())
        assert p_poly(out) == p_poly(d)
    assert hits >= 3


def test_ih_rewrite_turns_the_theta_into_the_handcuff_shape():
    d = load_tng(fixture_path("pairs/ih_a.tng"))
    assert d.thick == frozenset({2})
    out = ih_rewrite(d, 2)
    assert out.trivalent == ((1, 1, 2), (2, 3, 3))
    assert out.thick == frozenset({2})
    assert out == load_tng(fixture_path("pairs/ih_b.tng"))


def test_ih_rewrite_is_an_involution_up_to_relabeling():
    d = load_tng(fixture_path("pairs/ih_a.tng"))
    twice = ih_rewrite(ih_rewrite(d, 2), 2)
    assert is_isomorphic(twice, d)


def test_ih_rewrite_commutes_with_contraction():
    d = load_tng(fixture_path("pairs/ih_a.tng"))
    out = ih_rewrite(d, 2)
    ca = contract(d, frozenset(d.thick))
    cb = contract(out, frozenset(out.thick))
    assert not is_isomorphic(ca, cb)
    assert is_isomorphic(ca, cb, free_fourvalent=True)


def test_ih_rewrite_preserves_the_enhanced_invariant_exactly():
    d = load_tng(fixture_path("pairs/ih_a.tng"))
    out = ih_rewrite(d, 2)
    assert invariant_rho_poly(d, frozenset({2})) == \
        invariant_rho_poly(out, frozenset({2}))


def test_ih_rewrite_needs_a_thick_edge():
    with pytest.raises(DomainError, match="not thick"):
        ih_rewrite(load_tng(fixture_path("theta.tng")), 2)


MANIFEST_TEXT = """\
# comment line
pair demo a.tng b.tng R2 exact

pair other x.tng y.tng M3 root  # trailing comment
"""


def test_parse_manifest():
    pairs = parse_manifest(MANIFEST_TEXT)
    assert pairs == (
        MovePair("demo", "a.tng", "b.tng", "R2", "exact"),
        MovePair("other", "x.tng", "y.tng", "M3", "root"),
    )


@pytest.mark.parametrize("text,fragment", [
    ("pair a b c exact\n", "expected 'pair"),
    ("link a b c R2 exact\n", "expected 'pair"),
    ("pair a b c R2 sometimes\n", "'exact' or 'root'"),
])
def test_parse_manifest_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_manifest(text)


_MANIFEST_WORDS = st.sampled_from((
    "pair", "r2", "pairs/a.tng", "b.tng", "R2", "exact", "root", "#", "\n",
    "\n"))


@settings(max_examples=300)
@given(st.one_of(st.text(), st.lists(_MANIFEST_WORDS).map(" ".join)))
def test_parse_manifest_raises_only_package_errors(text):
    try:
        parse_manifest(text)
    except TangleError:
        pass


def test_shipped_manifest_passes():
    results = verify_manifest(str(FIXTURES / "moves.manifest"))
    assert len(results) == 11
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    names = {r.name for r in results}
    assert names == {"r1", "r2", "r3", "m3_pos", "m3_neg", "m3_knot",
                     "r4", "r5", "n4", "n5", "ih"}


def test_shipped_manifest_passes_at_one_root():
    results = verify_manifest(str(FIXTURES / "moves.manifest"), k=5)
    assert all(r.ok for r in results)


def test_verify_pair_reports_root_failures(tmp_path):
    pair = MovePair("bad", str(FIXTURES / "trefoil.tng"),
                    str(FIXTURES / "circle.tng"), "M3", "root")
    result = verify_pair(pair, str(tmp_path))
    assert not result.ok
    # reported at the first root checked
    assert result.detail.startswith("k=1: ")
    assert verify_pair(pair, str(tmp_path), 5).detail.startswith("k=5: ")


def test_verify_shows_root_failures_past_the_double_range_exactly(
        tmp_path, capsys, monkeypatch):
    values = {1: LaurentPoly({0: 3**700}), 2: LaurentPoly({0: 3**700, 3: 1})}
    monkeypatch.setattr(moves, "comparison_poly",
                        lambda d: values[len(d.circles)])
    manifest = tmp_path / "huge.manifest"
    manifest.write_text(f"pair huge {FIXTURES / 'circle.tng'} "
                        f"{FIXTURES / 'two_circles.tng'} M3 root\n")
    assert main(["verify", str(manifest)]) == 3
    a, b = (decimal_root_text(values[n], 1) for n in (1, 2))
    assert a != b
    assert capsys.readouterr().out \
        == f"pair huge (M3, root): FAIL (k=1: {a} != {b})\n"


def _divisible_by_phi24(p):
    """Integer long division by the monic q^8 - q^4 + 1: no remainder."""
    low = min(p.terms)
    coeffs = [0] * (max(p.terms) - low + 1)
    for e, c in p.terms.items():
        coeffs[e - low] = c
    for i in range(len(coeffs) - 1, 7, -1):
        c, coeffs[i] = coeffs[i], 0
        coeffs[i - 4] += c
        coeffs[i - 8] -= c
    return not any(coeffs[:8])


def _triple_twist_pair(tmp_path):
    """A triple twist spliced into a 100-crossing braid on 10 strands, and
    the identity spliced at the same site, written to a.tng and b.tng."""
    rng = random.Random(1)
    b = _MorseBuilder(10)
    for _ in range(100):
        b.cross(rng.randrange(9), rng.choice((1, -1)))
    d = b.finish()
    site = random_splice_site(random.Random(1), d)
    sides = {"a": splice_22(d, site, braid_pattern(1, 1, 1)),
             "b": splice_22(d, site, braid_pattern())}
    for name, side in sides.items():
        (tmp_path / f"{name}.tng").write_text(serialize_tng(side))
    return sides


def test_root_pairs_of_large_diagrams_compare_exactly(tmp_path):
    # the coefficients of P reach about 6.6 * 10^9, and the float values
    # of the two sides differ by up to 1.3 * 10^-6 at the roots
    sides = _triple_twist_pair(tmp_path)
    pair = MovePair("big", "a.tng", "b.tng", "+3", "root")
    assert verify_pair(pair, str(tmp_path)).ok
    for k in ROOT_INDICES:
        assert verify_pair(pair, str(tmp_path), k).ok
    pa, pb = (p_poly(side) for side in sides.values())
    assert pa != pb and pa.residue() == pb.residue()
    assert _divisible_by_phi24(pa - pb)


def test_root_values_of_large_diagrams_print_exactly(tmp_path, capsys):
    # the float sums printed 9.000000381 + 0.000001230i and
    # 9.000000335 - 0.000000041i
    sides = _triple_twist_pair(tmp_path)
    for name, side in sides.items():
        assert decimal_root_text(p_poly(side), 1) == "9.000000000 + 0.000000000i"
        assert main(["p", str(tmp_path / f"{name}.tng"), "--k", "1"]) == 0
        assert capsys.readouterr().out \
            == "P(D)_1 = 9.000000000 + 0.000000000i\n"


def test_verify_pair_reports_exact_failures():
    pair = MovePair("bad", str(FIXTURES / "trefoil.tng"),
                    str(FIXTURES / "identity_22.tng"), "R2", "exact")
    result = verify_pair(pair, str(FIXTURES))
    assert not result.ok
    assert "!=" in result.detail


def test_verify_pair_rejects_thick_mismatch():
    pair = MovePair("bad", str(FIXTURES / "pairs" / "ih_a.tng"),
                    str(FIXTURES / "theta.tng"), "IH", "exact")
    with pytest.raises(DomainError, match="thick"):
        verify_pair(pair, str(FIXTURES))


def test_comparison_poly_picks_the_right_route():
    assert comparison_poly(load_tng(fixture_path("trefoil.tng"))) == \
        p_poly(load_tng(fixture_path("trefoil.tng")))
    theta = load_tng(fixture_path("theta.tng"))
    from tanglepoly.enhanced import invariant_total_poly
    assert comparison_poly(theta) == invariant_total_poly(theta)
    thick_theta = load_tng(fixture_path("pairs/ih_a.tng"))
    assert comparison_poly(thick_theta) == \
        invariant_rho_poly(thick_theta, frozenset({2}))
