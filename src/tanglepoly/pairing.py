"""Plat-closure bilinear form and the derived tangle invariants.

The form pairs two flat (m,n)-tangles by placing them side by side and
closing adjacent endpoints pairwise with simple arcs; the value is
delta^loops.  Collecting the values over the whole basis gives the matrix A,
and a strand diagram D gets the polynomial

    P(D) = v(D) * A * bar(v(D))^t,

which is unchanged by the three Reidemeister moves.  Its evaluations at the
eight admissible roots of unity are additionally unchanged by replacing
three half-twists on two parallel strands with none.

p_poly does not build A.  Reflecting D left to right turns its bracket
into bar(v(D)) read on reflected matchings, so by bilinearity

    P(D) = < plat closure of D (x) reflect(D) >,

the bracket of one closed diagram.  When m and n are even, no closing arc
joins the two copies, the closure falls apart into the plat closure of D
and its reflection, and P(D) = b * bar(b) with b the bracket of D's own
plat closure.  pairing_matrix, plat_loop_count and pair keep the matrix
route for the `pairing` subcommand and as the oracle of this identity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .diagram import TangleDiagram, _union, ensure_valid, max_label
from .errors import DomainError
from .laurent import LaurentPoly, ZERO, delta_power
# bench/tracing.py patches pairing.bracket by attribute
from .skein import bracket  # noqa: F401
from .skein import (Basis, CoordinateVector, Matching, _check_strand_diagram,
                    _frontier_states, enumerate_basis)

#: Largest (m+n)/2 pairing_matrix accepts: the matrix is square in the
#: Catalan-sized basis.  p_poly and the state sums build no matrix.
MAX_HALF_BOUNDARY = 8


def _tensor_point(m: int, n: int, copy: int, position: int) -> int:
    """Point id in the doubled boundary for a circular position of one factor.

    Bottom points of the tensor are numbered 1..2m left-to-right, top points
    2m+1..2m+2n left-to-right; copy 0 sits left of copy 1, and copy 1 is the
    left-right reflection of its factor.  The reflection makes swapping the
    factors a rotation of the closed picture, so the pairing is symmetric
    whatever the parity of m and n.
    """
    if position <= m:
        return position if copy == 0 else 2 * m + 1 - position
    t = m + n - position + 1  # top point index, left-to-right
    return 2 * m + (t if copy == 0 else 2 * n + 1 - t)


def plat_loop_count(m: int, n: int, e_i: Matching, e_j: Matching) -> int:
    """Loop count of the plat closure of e_i placed beside e_j."""
    full = set(range(1, m + n + 1))
    for mt in (e_i, e_j):
        if {p for pair in mt for p in pair} != full:
            raise DomainError(
                f"matching {mt} does not cover the ({m},{n}) boundary")
    parent: dict[int, int] = {}
    loops = 0

    def join(u: int, v: int) -> None:
        nonlocal loops
        if not _union(parent, u, v):
            loops += 1

    for copy, mt in ((0, e_i), (1, e_j)):
        for a, b in mt:
            join(_tensor_point(m, n, copy, a), _tensor_point(m, n, copy, b))
    for t in range(1, m + 1):
        join(2 * t - 1, 2 * t)
    for t in range(1, n + 1):
        join(2 * m + 2 * t - 1, 2 * m + 2 * t)
    # every point has degree 2, so redundant unions count the cycles
    return loops


class PairingMatrix(NamedTuple):
    basis: Basis
    entries: tuple[tuple[LaurentPoly, ...], ...]


@lru_cache(maxsize=None)
def pairing_matrix(m: int, n: int) -> PairingMatrix:
    if (m + n) // 2 > MAX_HALF_BOUNDARY:
        raise DomainError(
            f"pairing supported only for (m+n)/2 <= {MAX_HALF_BOUNDARY}")
    basis = enumerate_basis(m, n)
    entries = tuple(
        tuple(delta_power(plat_loop_count(m, n, e_i, e_j))
              for e_j in basis.elements)
        for e_i in basis.elements
    )
    return PairingMatrix(basis, entries)


def pair(u: CoordinateVector, w: CoordinateVector) -> LaurentPoly:
    """u * A * w^t for two vectors over the same (m,n) basis."""
    a = pairing_matrix(u.basis.m, u.basis.n)
    total = ZERO
    for i, ui in enumerate(u.coords):
        if not ui:
            continue
        row = a.entries[i]
        for j, wj in enumerate(w.coords):
            if wj:
                total = total + ui * row[j] * wj
    return total


def _caps(bottom, top) -> list[tuple[int, int]]:
    """The plat closure's caps as joins: bottom points 1-2, 3-4, ... and
    top points 1-2, 3-4, ... (left to right)."""
    return list(zip(bottom[::2], bottom[1::2])) + list(zip(top[::2], top[1::2]))


def _doubled_closure(d: TangleDiagram):
    """(crossings, circles, caps) of the plat closure of d (x) reflect(d),
    read off d's label tuples: the reflected copy reverses the ccw order of
    every crossing and the boundary, and its labels are shifted by
    max_label(d), as tensor shifts them."""
    offset = max_label(d)

    def twin(t):
        return tuple(x + offset for x in t)

    crossings = d.crossings + tuple(twin((a, dd, c, b))
                                    for a, b, c, dd in d.crossings)
    return crossings, 2 * len(d.circles), _caps(
        d.bottom + twin(d.bottom[::-1]), d.top + twin(d.top[::-1]))


def _closed_bracket(crossings, circles: int, caps) -> LaurentPoly:
    """Bracket of a closed diagram given by its crossings, circles and caps."""
    return _frontier_states(crossings, circles, caps).get(frozenset(), ZERO)


def p_poly(d: TangleDiagram) -> LaurentPoly:
    """Exact pairing polynomial of a strand diagram, from one closure.

    Even m and n: b * bar(b) with b the bracket of the plat closure of d.
    Odd m and n: the bracket of the plat closure of d (x) reflect(d).
    """
    _check_strand_diagram(d)
    ensure_valid(d)
    if d.m % 2 == 0:
        b = _closed_bracket(d.crossings, len(d.circles), _caps(d.bottom, d.top))
        return b * b.bar()
    return _closed_bracket(*_doubled_closure(d))
