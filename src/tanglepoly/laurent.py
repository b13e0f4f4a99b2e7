"""Exact arithmetic in Z[q, q^-1] plus evaluation at selected roots of unity.

A polynomial is stored sparsely as {exponent: coefficient} with zero
coefficients stripped, so two values are equal exactly when their term sets
are identical.  Coefficients are Python ints and never overflow.

Evaluation points are q = exp(k*pi*i/12) for k in ROOT_INDICES.  These k are
the residues coprime to 24, so q ranges over the primitive 24th roots of
unity: the common zeros of q - q^-3 + q^-7 and of its image under the bar
involution q -> q^-1.  The eight roots share the minimal polynomial
q^8 - q^4 + 1, so a polynomial's eight values are fixed by its residue
modulo it, 8 integers, and two polynomials agree at one admissible root
exactly when their residues are equal.  Every root value is read from the
residue: rounded_root rounds it exactly, as cos(j*pi/12) and sin(j*pi/12)
lie in Q(sqrt 2, sqrt 3), complex_text is its one text, and eval_root sums
its at most 8 terms in floats.

A free loop is the scalar DELTA = -q^2 - q^-2, so L loops are the one
factor delta_power(L), built in closed form from binomial coefficients:
n+1 terms for delta^n, with no product of polynomials.  Every integer
this module prints goes through _int_text, which turns Python's limit on
printed digits into a DomainError.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import Mapping

from .errors import DomainError

#: Admissible root indices: k with gcd(k, 24) = 1, in increasing order.
ROOT_INDICES: tuple[int, ...] = (1, 5, 7, 11, 13, 17, 19, 23)

_ROOT24 = tuple(cmath.exp(1j * math.pi * j / 12) for j in range(24))

#: 4 cos(j*pi/12) for j = 0..6 as integer coefficients of 1, sqrt 2, sqrt 3
#: and sqrt 6.
_COS4 = ((4, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 2, 0, 0),
         (2, 0, 0, 0), (0, -1, 0, 1), (0, 0, 0, 0))


def _cos4(j: int) -> tuple[int, ...]:
    """4 cos(j*pi/12) over 1, sqrt 2, sqrt 3, sqrt 6: cos is even with
    period 24, and cos(pi - x) = -cos(x)."""
    j = min(j % 24, -j % 24)
    return _COS4[j] if j <= 6 else tuple(-x for x in _COS4[12 - j])


#: Fractional digits of a root value as rounded_root and complex_text give it.
DIGITS = 9


def _int_text(n: int) -> str:
    """str(n) for every integer laurent prints.  Python refuses to print
    more than sys.get_int_max_str_digits() digits; that is a DomainError."""
    try:
        return str(n)
    except ValueError:
        raise DomainError(
            "cannot print an integer of more than "
            f"{sys.get_int_max_str_digits()} digits (Python's limit, "
            "raised by PYTHONINTMAXSTRDIGITS)") from None


def _fixed(n: int) -> str:
    whole, frac = divmod(abs(n), 10 ** DIGITS)
    return f"{'-' if n < 0 else ''}{_int_text(whole)}.{frac:0{DIGITS}d}"


def complex_text(value: tuple[int, int]) -> str:
    """Text of a root value given as LaurentPoly.rounded_root(k)."""
    re, im = value
    sign = "+" if im >= 0 else "-"
    return f"{_fixed(re)} {sign} {_fixed(abs(im))}i"


def _round_quarter(v, digits: int) -> int:
    """round(10^digits * (a + b sqrt 2 + c sqrt 3 + d sqrt 6) / 4) for
    v = (a, b, c, d), exactly; a half rounds up.

    isqrt floors each root term at `guard` extra digits, so the sum is
    within 3 units of the exact one.  The guard doubles while that bracket
    straddles a rounding boundary, which an irrational value leaves for
    good at some guard.  A rational value (b = c = d = 0) has no error.
    """
    a, b, c, d = v
    err = 3 if b or c or d else 0
    guard = 4
    while True:
        scale = 10 ** (digits + guard)
        t = a * scale
        for s, x in ((2, b), (3, c), (6, d)):
            root = math.isqrt(s * (x * scale) ** 2)
            t += root if x >= 0 else -root
        unit = 4 * 10 ** guard
        lo, hi = ((t + off + unit // 2) // unit for off in (-err, err))
        if lo == hi:
            return lo
        guard *= 2


def ensure_root_index(k: int) -> int:
    if k not in ROOT_INDICES:
        raise DomainError("root index not in admissible set")
    return k


class LaurentPoly:
    """Immutable integer Laurent polynomial in the variable q."""

    __slots__ = ("_terms", "_residue")

    def __init__(self, terms: Mapping[int, int] | None = None):
        data = {}
        if terms:
            for e, c in terms.items():
                if c:
                    data[int(e)] = int(c)
        self._terms = data
        self._residue: tuple[int, ...] | None = None

    @classmethod
    def monomial(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @property
    def terms(self) -> dict[int, int]:
        """Copy of the {exponent: coefficient} term map."""
        return dict(self._terms)

    def items_desc(self) -> list[tuple[int, int]]:
        """Term pairs in decreasing exponent order."""
        return [(e, self._terms[e]) for e in sorted(self._terms, reverse=True)]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it too
        terms = self._terms
        return (hash(terms.get(0, 0)) if terms.keys() <= {0}
                else hash(frozenset(terms.items())))

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = LaurentPoly()
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly()
        res._terms = {e: -c for e, c in self._terms.items()}
        return res

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self.__add__(-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return (-self).__add__(other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            res = LaurentPoly()
            res._terms = {e: c * other for e, c in self._terms.items()}
            return res
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = LaurentPoly()
        res._terms = out
        return res

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1 (negate every exponent)."""
        res = LaurentPoly()
        res._terms = {-e: c for e, c in self._terms.items()}
        return res

    def eval_root(self, k: int) -> complex:
        """Value at q = exp(k*pi*i/12) for an admissible root index k,
        summed in floats over the residue: at most 8 terms."""
        ensure_root_index(k)
        return sum((c * _ROOT24[k * r % 24]
                    for r, c in enumerate(self.residue()) if c), complex(0))

    def rounded_root(self, k: int) -> tuple[int, int]:
        """10^DIGITS times the value at root index k, real and imaginary
        parts each rounded exactly to the nearest integer.  From the
        residue, 4 Re and 4 Im are a + b sqrt 2 + c sqrt 3 + d sqrt 6
        with integers a to d."""
        ensure_root_index(k)
        re, im = [0] * 4, [0] * 4
        for r, c in enumerate(self.residue()):
            if c:
                # sin(x) = cos(pi/2 - x)
                for i, (x, y) in enumerate(zip(_cos4(k * r), _cos4(6 - k * r))):
                    re[i] += c * x
                    im[i] += c * y
        return _round_quarter(re, DIGITS), _round_quarter(im, DIGITS)

    def residue(self) -> tuple[int, ...]:
        """Coefficients of 1, q, ..., q^7 in the remainder modulo
        q^8 - q^4 + 1: exponents fold mod 24, then q^12 = -1 and
        q^8 = q^4 - 1.  Computed once per polynomial."""
        if self._residue is None:
            out = [0] * 8
            for e, c in self._terms.items():
                r = e % 24
                if r >= 12:
                    r, c = r - 12, -c
                if r >= 8:
                    out[r - 8] -= c
                    r -= 4
                out[r] += c
            self._residue = tuple(out)
        return self._residue

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.items_desc():
            if e == 0:
                body = _int_text(abs(c))
            else:
                power = "q" if e == 1 else f"q^{e}"
                body = power if abs(c) == 1 else _int_text(abs(c)) + power
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
Q = LaurentPoly({1: 1})

#: Value of a free loop: removing a circle multiplies by -q^2 - q^-2.
DELTA = LaurentPoly({2: -1, -2: -1})


@lru_cache(maxsize=None)
def delta_power(n: int) -> LaurentPoly:
    """Cached delta^n = (-1)^n sum_j C(n, j) q^(2n-4j), stepping
    C(n, j+1) = C(n, j) (n-j) / (j+1): one small product and one exact
    division per term, where math.comb per term would be quadratic."""
    if n < 0:
        raise ValueError("loop count cannot be negative")
    terms = {}
    c = -1 if n % 2 else 1
    for j in range(n + 1):
        terms[2 * n - 4 * j] = c
        c = c * (n - j) // (j + 1)
    return LaurentPoly(terms)
