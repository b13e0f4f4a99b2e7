"""End-to-end acceptance checks.

Each test covers one numbered release criterion at its stated tolerance and
prints a single pass/fail line; the suite is meant to be read top to bottom
as the sign-off checklist for the package.
"""

import random

from conftest import FIXTURES, fixture_path
from tanglepoly.diagram import all_labels, load_tng
from tanglepoly.errors import DomainError
from tanglepoly.enhanced import (enhancements_by_vertex_sums,
                                 enumerate_enhancements, expand_states,
                                 contract, invariant_rho_poly,
                                 invariant_total_poly)
from tanglepoly.generate import (braid_pattern, insert_kink,
                                 random_splice_site, random_tangle,
                                 random_trivalent, splice_22)
from tanglepoly.laurent import LaurentPoly, ROOT_INDICES, ZERO, delta_power
from tanglepoly.moves import parse_manifest, verify_pair
from tanglepoly.pairing import p_poly, pairing_matrix
from tanglepoly.skein import bracket, bracket_oracle, enumerate_basis

TOL_ROOT = 1e-9
TOL_ANNIHILATION = 1e-10

MANIFEST = FIXTURES / "moves.manifest"


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{'pass' if ok else 'FAIL'}]: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _manifest_pairs(*names):
    pairs = parse_manifest(MANIFEST.read_text())
    chosen = [p for p in pairs if p.name in names]
    assert len(chosen) == len(names)
    return chosen


def test_criterion_01_catalan_basis_counts():
    expected = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    ok = True
    for half, count in expected.items():
        splits = [(m, 2 * half - m) for m in range(2 * half + 1)] \
            if half <= 4 else [(half, half), (2 * half, 0)]
        for m, n in splits:
            ok = ok and len(enumerate_basis(m, n)) == count
    _report(1, "basis sizes follow the Catalan numbers 1,2,5,14,42,132", ok)


def test_criterion_02_root_annihilation():
    f = LaurentPoly({1: 1, -3: -1, -7: 1})
    g = LaurentPoly({-1: 1, 3: -1, 7: 1})
    ok = all(abs(f.eval_root(k)) < TOL_ANNIHILATION
             and abs(g.eval_root(k)) < TOL_ANNIHILATION
             for k in ROOT_INDICES)
    _report(2, "both twist coefficients vanish at all eight roots", ok)


def test_criterion_03_triple_twist_bracket_identity():
    coords = bracket(braid_pattern(1, 1, 1)).coords
    ok = coords == (LaurentPoly({1: 1, -3: -1, -7: 1}), LaurentPoly({3: 1}))
    _report(3, "triple twist bracket splits as (q - q^-3 + q^-7, q^3)", ok)


def test_criterion_04_kink_scaling():
    rng = random.Random(40404)
    checked = 0
    ok = True
    while checked < 50:
        d = random_tangle(rng, max_crossings=5)
        labels = sorted(all_labels(d))
        if not labels:
            continue
        edge = rng.choice(labels)
        sign = rng.choice((1, -1))
        factor = LaurentPoly({3 * sign: -1})
        before = bracket(d).coords
        after = bracket(insert_kink(d, edge, sign)).coords
        ok = ok and after == tuple(c * factor for c in before)
        checked += 1
    _report(4, "kinks scale the bracket by -q^(+/-3) on 50 random diagrams",
            ok)


def test_criterion_05_bracket_oracle_equivalence():
    rng = random.Random(50505)
    ok = True
    for _ in range(200):
        d = random_tangle(rng, max_crossings=5)
        fast = bracket(d)
        slow = bracket_oracle(d)
        ok = ok and fast.coords == slow.coords
    _report(5, "frontier and state-table brackets agree on 200 diagrams", ok)


def test_criterion_06_reidemeister_invariance():
    ok = True
    for pair in _manifest_pairs("r1", "r2", "r3"):
        result = verify_pair(pair, str(FIXTURES))
        ok = ok and result.ok and pair.expected == "exact"
    _report(6, "P is exactly unchanged on the shipped R1/R2/R3 pairs", ok)


def test_criterion_07_triple_twist_invariance():
    ok = True
    for pair in _manifest_pairs("m3_pos", "m3_neg", "m3_knot"):
        ok = ok and verify_pair(pair, str(FIXTURES)).ok

    rng = random.Random(70707)
    spliced = 0
    while spliced < 20:
        d = random_tangle(rng, max_crossings=3)
        site = random_splice_site(rng, d)
        if site is None:
            continue
        sign = rng.choice((1, -1))
        out = splice_22(d, site, braid_pattern(sign, sign, sign))
        pa, pb = p_poly(d), p_poly(out)
        for k in ROOT_INDICES:
            ok = ok and abs(pa.eval_root(k) - pb.eval_root(k)) < TOL_ROOT
        spliced += 1

    knot = load_tng(str(FIXTURES / "pairs" / "m3_knot_a.tng"))
    unknot = load_tng(str(FIXTURES / "pairs" / "m3_knot_b.tng"))
    ok = ok and p_poly(knot) != p_poly(unknot)
    _report(7, "triple twists preserve the root values at 20 random sites "
               "while a polynomial-level contrast pair exists", ok)


def test_criterion_08_pairing_matrix_structure():
    ok = True
    for total in (2, 4, 6, 8):
        for m in range(total + 1):
            A = pairing_matrix(m, total - m)
            size = len(A.entries)
            for i in range(size):
                for j in range(size):
                    ok = ok and A.entries[i][j] == A.entries[j][i]
                    ok = ok and A.entries[i][j].bar() == A.entries[i][j]
    golden = ((delta_power(4), delta_power(3)),
              (delta_power(3), delta_power(2)))
    ok = ok and pairing_matrix(2, 2).entries == golden
    _report(8, "pairing matrices are symmetric, bar-fixed, and match the "
               "(2,2) golden", ok)


def test_criterion_09_palindromic_and_real():
    rng = random.Random(90909)
    ok = True
    for _ in range(100):
        d = random_tangle(rng, max_crossings=5)
        p = p_poly(d)
        ok = ok and p.bar() == p
        for k in ROOT_INDICES:
            ok = ok and abs(p.eval_root(k).imag) < TOL_ROOT
    _report(9, "P is bar-fixed and real at the roots on 100 random diagrams",
            ok)


def test_criterion_10_enhancement_counts_and_oracle():
    ok = len(enumerate_enhancements(load_tng(fixture_path("theta.tng")))) == 3
    ok = ok and len(enumerate_enhancements(
        load_tng(fixture_path("handcuff.tng")))) == 1
    ok = ok and len(enumerate_enhancements(
        load_tng(fixture_path("circle.tng")))) == 1

    graph_fixtures = sorted(FIXTURES.glob("*.tng")) + \
        sorted((FIXTURES / "pairs").glob("*.tng"))
    for path in graph_fixtures:
        d = load_tng(str(path))
        if len(d.trivalent) > 8:
            continue
        try:
            fast = enumerate_enhancements(d)
        except DomainError:
            continue
        ok = ok and fast == enhancements_by_vertex_sums(d)

    rng = random.Random(101010)
    for _ in range(25):
        d = random_trivalent(rng, max_vertices=8)
        ok = ok and enumerate_enhancements(d) == enhancements_by_vertex_sums(d)
    _report(10, "enhancement counts match and the subset oracle agrees", ok)


def test_criterion_11_graph_move_invariance():
    (ih_pair,) = _manifest_pairs("ih")
    ok = verify_pair(ih_pair, str(FIXTURES)).ok and ih_pair.expected == "exact"
    ih_a = load_tng(str(FIXTURES / "pairs" / "ih_a.tng"))
    ih_b = load_tng(str(FIXTURES / "pairs" / "ih_b.tng"))
    ok = ok and invariant_rho_poly(ih_a, frozenset(ih_a.thick)) == \
        invariant_rho_poly(ih_b, frozenset(ih_b.thick))

    for pair in _manifest_pairs("r4", "r5", "n4", "n5"):
        a = load_tng(str(FIXTURES / pair.file_a))
        b = load_tng(str(FIXTURES / pair.file_b))
        pa, pb = invariant_total_poly(a), invariant_total_poly(b)
        for k in ROOT_INDICES:
            ok = ok and abs(pa.eval_root(k) - pb.eval_root(k)) < TOL_ROOT
    _report(11, "IH is exact and R4/R5/N4/N5 agree at every root", ok)


def _p_poly_via_oracle(d):
    vec = bracket_oracle(d)
    A = pairing_matrix(d.m, d.n)
    total = ZERO
    for i, vi in enumerate(vec.coords):
        for j, vj in enumerate(vec.coords):
            total = total + vi * A.entries[i][j] * vj.bar()
    return total


def _total_invariant_via_oracle(d):
    total = ZERO
    for rho in enumerate_enhancements(d):
        for _, state in expand_states(contract(d, rho)):
            total = total + _p_poly_via_oracle(state)
    return total


FROZEN_THETA_POLY = LaurentPoly({8: 3, 4: 21, 0: 36, -4: 21, -8: 3})
FROZEN_THETA_VALUES = {k: 54.0 for k in ROOT_INDICES}


def test_criterion_12_end_to_end_goldens():
    circle = load_tng(fixture_path("circle.tng"))
    ok = abs(invariant_total_poly(circle).eval_root(1) - 3.0) < TOL_ROOT

    theta = load_tng(fixture_path("theta.tng"))
    cross_check = _total_invariant_via_oracle(theta)
    ok = ok and cross_check == invariant_total_poly(theta)
    ok = ok and cross_check == FROZEN_THETA_POLY
    for k, frozen in FROZEN_THETA_VALUES.items():
        ok = ok and abs(invariant_total_poly(theta).eval_root(k)
                        - frozen) < TOL_ROOT
    _report(12, "circle evaluates to 3.0 and the theta goldens survive the "
                "independent oracle route", ok)
