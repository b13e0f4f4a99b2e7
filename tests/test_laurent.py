import cmath
import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import decimal_root_text
from tanglepoly.errors import DomainError
from tanglepoly.laurent import (DELTA, ONE, Q, ROOT_INDICES, ZERO, LaurentPoly,
                                _round_quarter, complex_text, delta_power,
                                ensure_root_index)

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-30, 30), st.integers(-9, 9), max_size=8))
# coefficients past 2^53, as P and I(G) reach on large diagrams
big_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-200, 200), st.integers(-10**20, 10**20),
                    max_size=12))


def test_root_indices_are_units_mod_24():
    assert ROOT_INDICES == tuple(k for k in range(24) if math.gcd(k, 24) == 1)


def test_ensure_root_index_rejects_other_integers():
    for k in (0, 2, 3, 4, 6, 12, 24, 25, -1):
        with pytest.raises(DomainError):
            ensure_root_index(k)


def test_constructor_strips_zero_coefficients():
    assert LaurentPoly({3: 0, 1: 2}).terms == {1: 2}
    assert LaurentPoly({0: 0}) == ZERO
    assert not LaurentPoly()


def test_equality_with_ints():
    assert LaurentPoly({0: 5}) == 5
    assert LaurentPoly() == 0
    assert LaurentPoly({1: 1}) != 1


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(DELTA) == "-q^2 - q^-2"
    assert str(LaurentPoly({-1: -3})) == "-3q^-1"
    assert str(LaurentPoly({4: 1, 0: 2, -4: 1})) == "q^4 + 2 + q^-4"
    assert str(LaurentPoly({1: 2, -7: -1})) == "2q - q^-7"


def test_items_desc_orders_by_falling_exponent():
    p = LaurentPoly({-2: 1, 5: 3, 0: -1})
    assert p.items_desc() == [(5, 3), (0, -1), (-2, 1)]


def test_monomial_and_shifted():
    assert LaurentPoly.monomial(3, 2) == LaurentPoly({2: 3})
    assert LaurentPoly.monomial(1) == ONE
    # a product with a monomial shifts every exponent
    assert Q * LaurentPoly.monomial(1, -1) == ONE
    assert DELTA * LaurentPoly.monomial(1, 2) == LaurentPoly({4: -1, 0: -1})


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys)
def test_additive_inverse(p):
    assert p - p == ZERO
    assert p + (-p) == 0


@given(polys)
def test_one_is_multiplicative_identity(p):
    assert p * ONE == p
    assert 1 * p == p


@given(polys)
def test_int_coercion_matches_poly_arithmetic(p):
    assert p + 7 == p + LaurentPoly({0: 7})
    assert p * 3 == p * LaurentPoly({0: 3})
    assert 2 - p == LaurentPoly({0: 2}) - p


@given(polys)
def test_bar_is_an_involution(p):
    assert p.bar().bar() == p


@given(polys, polys)
def test_bar_is_a_ring_map(p, q):
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


PHI24 = LaurentPoly({8: 1, 4: -1, 0: 1})


@given(polys, polys)
def test_residue_is_the_remainder_mod_phi24(p, q):
    residue = p.residue()
    assert len(residue) == 8
    assert (p + PHI24 * q).residue() == residue
    assert (PHI24 * q).residue() == (0,) * 8
    assert LaurentPoly(dict(enumerate(residue))).residue() == residue


@given(polys, st.sampled_from(ROOT_INDICES))
def test_residue_has_the_values_at_the_roots(p, k):
    remainder = LaurentPoly(dict(enumerate(p.residue())))
    assert abs(remainder.eval_root(k) - p.eval_root(k)) < 1e-9


@given(polys, polys, st.integers(-40, 40))
def test_eval_root_reads_only_the_residue(f, g, j):
    # f and f + g q^j (q^8 - q^4 + 1) have one residue, so the same floats
    h = f + g * LaurentPoly.monomial(1, j) * PHI24
    for k in ROOT_INDICES:
        assert h.eval_root(k) == f.eval_root(k)


@given(big_polys, st.sampled_from(ROOT_INDICES))
def test_eval_root_is_close_to_a_per_term_sum(p, k):
    naive = sum(c * cmath.exp(1j * math.pi * k * e / 12)
                for e, c in p.terms.items())
    scale = 1 + sum(abs(c) for c in p.terms.values())
    assert abs(p.eval_root(k) - naive) <= 1e-9 * scale


@given(big_polys, st.sampled_from(ROOT_INDICES))
def test_rounded_root_matches_a_decimal_evaluation(p, k):
    assert complex_text(p.rounded_root(k)) == decimal_root_text(p, k)


def _pell(steps):
    """The convergent p/q of sqrt 2 after `steps` steps from 1/1."""
    p, q = 1, 1
    for _ in range(steps):
        p, q = p + 2 * q, p + q
    return p, q


def test_an_imaginary_part_just_below_zero_prints_unsigned():
    # Im at k = 1 of 2b q^3 - a q^6 is b sqrt 2 - a = -1 / (b sqrt 2 + a),
    # about -1.1e-10
    a, b = _pell(25)
    p = LaurentPoly({3: 2 * b, 6: -a})
    assert a * a - 2 * b * b == 1 and a > 2 * 10**9
    assert p.rounded_root(1)[1] == 0
    assert complex_text(p.rounded_root(1)).endswith(" + 0.000000000i")
    assert complex_text(p.rounded_root(1)) == decimal_root_text(p, 1)


@pytest.mark.parametrize("steps", [10, 21, 22, 40, 41])
def test_rounding_widens_its_guard_next_to_a_boundary(steps):
    # (2 + b sqrt 2 - a) / 4 lies within 1 / (8 b) of the half 1/2, on the
    # side the convergent's parity picks: inside the first guard's bracket
    # of 3 / (4 * 10^4)
    a, b = _pell(steps)
    with localcontext() as ctx:
        ctx.prec = 80
        exact = (2 - a + b * Decimal(2).sqrt()) / 4
        assert abs(exact - Decimal("0.5")) < Decimal(3) / (4 * 10**4)
        expected = int(exact > Decimal("0.5"))
    assert _round_quarter((2 - a, b, 0, 0), 0) == expected
    assert _round_quarter((a - 2, -b, 0, 0), 0) == -expected


def test_rational_values_round_exactly():
    assert _round_quarter((1, 0, 0, 0), 9) == 250_000_000
    assert _round_quarter((-3 * 4**40, 0, 0, 0), 2) == -3 * 4**39 * 100
    # a half rounds up
    assert _round_quarter((2, 0, 0, 0), 0) == 1
    assert _round_quarter((-2, 0, 0, 0), 0) == 0


@given(polys, st.sampled_from(ROOT_INDICES))
def test_eval_root_matches_naive_evaluation(p, k):
    q = cmath.exp(1j * math.pi * k / 12)
    naive = sum(c * q ** e for e, c in p.terms.items())
    assert abs(p.eval_root(k) - naive) < 1e-9


@given(polys, polys, st.sampled_from(ROOT_INDICES))
def test_eval_root_is_a_homomorphism(p, q, k):
    assert abs((p + q).eval_root(k) - (p.eval_root(k) + q.eval_root(k))) < 1e-9
    assert abs((p * q).eval_root(k) - p.eval_root(k) * q.eval_root(k)) < 1e-7


@given(polys, st.sampled_from(ROOT_INDICES))
def test_exponents_only_matter_mod_24_at_roots(p, k):
    assert abs((p * LaurentPoly.monomial(1, 24)).eval_root(k)
               - p.eval_root(k)) < 1e-12


@given(polys, st.sampled_from(ROOT_INDICES))
def test_bar_conjugates_at_roots(p, k):
    # q -> q^-1 is complex conjugation on the unit circle
    assert abs(p.bar().eval_root(k) - p.eval_root(k).conjugate()) < 1e-9


def test_roots_annihilate_the_defining_binomials():
    f = LaurentPoly({1: 1, -3: -1, -7: 1})
    for k in ROOT_INDICES:
        assert abs(f.eval_root(k)) < 1e-10
        assert abs(f.bar().eval_root(k)) < 1e-10


def test_delta_squares_to_three_at_roots():
    sq = DELTA * DELTA
    for k in ROOT_INDICES:
        assert abs(sq.eval_root(k) - 3.0) < 1e-12


def test_delta_power_is_cached_exact_power():
    expected = ONE
    for n in range(41):
        assert delta_power(n) == expected, n
        assert delta_power(n) is delta_power(n)
        expected = expected * DELTA
    with pytest.raises(ValueError):
        delta_power(-1)


@given(polys, polys)
def test_hash_consistent_with_equality(p, q):
    if p == q:
        assert hash(p) == hash(q)
    seen = {p: "first"}
    assert seen[LaurentPoly(p.terms)] == "first"


def test_constants_hash_like_the_ints_they_equal():
    assert hash(LaurentPoly({0: 3})) == hash(3)
    assert hash(LaurentPoly({0: -1})) == hash(-1)
    assert len({ZERO, 0}) == 1 and len({ONE, 1}) == 1
    assert {1: "x"}[ONE] == "x"
    assert {0: "z"}.get(ZERO) == "z"


def test_subtraction_from_a_non_int_is_refused():
    with pytest.raises(TypeError):
        2.5 - ONE
    assert 3 - ONE == 2
    assert 1 - Q == LaurentPoly({0: 1, 1: -1})
