"""Exact arithmetic in Z[q, q^-1] plus evaluation at selected roots of unity.

A polynomial is stored sparsely as {exponent: coefficient} with zero
coefficients stripped, so two values are equal exactly when their term sets
are identical.  Coefficients are Python ints and never overflow.

Evaluation points are q = exp(k*pi*i/12) for k in ROOT_INDICES.  These k are
the residues coprime to 24, so q ranges over the primitive 24th roots of
unity: the common zeros of q - q^-3 + q^-7 and of its image under the bar
involution q -> q^-1.  Powers of such a q depend on the exponent only mod 24,
which a fixed table exploits to keep evaluation error at machine epsilon.
The eight roots share the minimal polynomial q^8 - q^4 + 1, so a
polynomial's eight values are fixed by its residue modulo it, 8 integers,
and two polynomials agree at one admissible root exactly when their
residues are equal.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import DomainError

#: Admissible root indices: k with gcd(k, 24) = 1, in increasing order.
ROOT_INDICES: tuple[int, ...] = (1, 5, 7, 11, 13, 17, 19, 23)

_ROOT24 = tuple(cmath.exp(1j * math.pi * j / 12) for j in range(24))


def ensure_root_index(k: int) -> int:
    if k not in ROOT_INDICES:
        raise DomainError("root index not in admissible set")
    return k


def root_value(k: int) -> complex:
    """The evaluation point q = exp(k*pi*i/12) for an admissible k."""
    ensure_root_index(k)
    return _ROOT24[k % 24]


class LaurentPoly:
    """Immutable integer Laurent polynomial in the variable q."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | None = None):
        data = {}
        if terms:
            for e, c in terms.items():
                if c:
                    data[int(e)] = int(c)
        self._terms = data
        self._hash: int | None = None

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
        if self._hash is None:
            # a constant equals its int, so it must hash like it too
            terms = self._terms
            self._hash = (hash(terms.get(0, 0)) if terms.keys() <= {0}
                          else hash(frozenset(terms.items())))
        return self._hash

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

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiplication by the monomial q^exp."""
        res = LaurentPoly()
        res._terms = {e + exp: c for e, c in self._terms.items()}
        return res

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1 (negate every exponent)."""
        res = LaurentPoly()
        res._terms = {-e: c for e, c in self._terms.items()}
        return res

    def eval_root(self, k: int) -> complex:
        """Value at q = exp(k*pi*i/12) for an admissible root index k."""
        ensure_root_index(k)
        return sum((c * _ROOT24[(k * e) % 24] for e, c in self._terms.items()),
                   complex(0))

    def residue(self) -> tuple[int, ...]:
        """Coefficients of 1, q, ..., q^7 in the remainder modulo
        q^8 - q^4 + 1: exponents fold mod 24, then q^12 = -1 and
        q^8 = q^4 - 1."""
        out = [0] * 8
        for e, c in self._terms.items():
            r = e % 24
            if r >= 12:
                r, c = r - 12, -c
            if r >= 8:
                out[r - 8] -= c
                r -= 4
            out[r] += c
        return tuple(out)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.items_desc():
            if e == 0:
                body = str(abs(c))
            else:
                power = "q" if e == 1 else f"q^{e}"
                body = power if abs(c) == 1 else f"{abs(c)}{power}"
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
    """Cached n-th power of the loop value DELTA."""
    if n < 0:
        raise ValueError("loop count cannot be negative")
    return DELTA ** n


def poly_sum(values: Iterable[LaurentPoly]) -> LaurentPoly:
    total = ZERO
    for v in values:
        total = total + v
    return total
