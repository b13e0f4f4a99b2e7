import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanglepoly.errors import DomainError
from tanglepoly.laurent import (DELTA, ONE, Q, ROOT_INDICES, ZERO, LaurentPoly,
                                delta_power, ensure_root_index, poly_sum,
                                root_value)

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-30, 30), st.integers(-9, 9), max_size=8))


def test_root_indices_are_units_mod_24():
    assert ROOT_INDICES == tuple(k for k in range(24) if math.gcd(k, 24) == 1)


def test_root_value_matches_exponential():
    for k in ROOT_INDICES:
        assert abs(root_value(k) - cmath.exp(1j * math.pi * k / 12)) < 1e-12


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
    assert Q.shifted(-1) == ONE
    assert DELTA.shifted(2) == LaurentPoly({4: -1, 0: -1})


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


@given(polys, st.integers(0, 5))
def test_pow_matches_repeated_multiplication(p, n):
    expected = ONE
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


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


def test_negative_pow_rejected():
    with pytest.raises(ValueError):
        Q ** -1
    with pytest.raises(ValueError):
        delta_power(-1)


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
    assert abs(p.shifted(24).eval_root(k) - p.eval_root(k)) < 1e-12


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
    assert delta_power(0) == ONE
    assert delta_power(1) == DELTA
    assert delta_power(4) == DELTA * DELTA * DELTA * DELTA


def test_poly_sum():
    assert poly_sum([]) == ZERO
    assert poly_sum([ONE, Q, Q]) == LaurentPoly({0: 1, 1: 2})


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
