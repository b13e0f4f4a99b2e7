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

the bracket of one closed diagram, which falls apart.  For even m and n
no cap joins the two copies, and P(D) = b * bar(b) with b the bracket of
D's own plat closure.  For odd m and n one cap pair joins D's last points
to their mirror images; cut there, each copy is a (1,1)-tangle whose flat
basis is the one arc, and the two arcs close one more loop, so
P(D) = delta * b * bar(b).  pairing_matrix, plat_loop_count and pair keep
the matrix route for the `pairing` subcommand and as the oracle of this
identity.

Free circles, and the loops the caps close before any crossing is
resolved, are one scalar delta^L that the sweep leaves out of its table
(skein._frontier_states).  p_poly applies it once: bar fixes delta, so
P(D) = delta^(2L + m mod 2) * b0 * bar(b0) for the table's one value b0,
and no product carries a loop factor.  b0 * bar(b0) is b0's norm
(LaurentPoly.norm), whose coefficients at k and -k are equal, so each
unordered pair of b0's terms is multiplied once; the loop factor
multiplies it only when its power is not 0 (_closure_value).

p_poly passes D's own crossings, circles and caps.  The sweep removes
every Reidemeister I kink and II bigon of the closure, the caps included,
before it plans (skein._frontier_states), so it contracts only the
crossings that P can see.  A bigon leaves b0 unchanged, and a kink
multiplies it by -q^3 or -q^-3, a unit u with u * bar(u) = 1, which
cancels in b0 * bar(b0).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .diagram import TangleDiagram, _union, ensure_valid
from .errors import DomainError
from .laurent import LaurentPoly, ZERO, delta_power
# bench/tracing.py patches pairing.bracket by attribute
from .skein import bracket  # noqa: F401
from .skein import (Basis, CoordinateVector, Matching, _check_strand_diagram,
                    _frontier_states, enumerate_basis)

#: Largest (m+n)/2 pairing_matrix accepts: the matrix is square in the
#: Catalan-sized basis, and each entry is a union-find over the doubled
#: boundary, so (7,7) takes seconds and (8,8) minutes.  p_poly and the
#: state sums build no matrix.
MAX_HALF_BOUNDARY = 7


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
    # each loop count is at most m+n; equal entries share one object
    powers = [delta_power(k) for k in range(m + n + 1)]
    entries = tuple(
        tuple(powers[plat_loop_count(m, n, e_i, e_j)]
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
    """The plat closure's caps as joins: points 1-2, 3-4, ... on each side,
    left to right; an odd side's last point is left open."""
    return list(zip(bottom[::2], bottom[1::2])) + list(zip(top[::2], top[1::2]))


def _closure_value(d: TangleDiagram, loops: int, value: LaurentPoly):
    """delta^(2 loops + m mod 2) * value, the value of d's doubled plat
    closure from the value left by a sweep that laid loops in each half:
    value itself when that power is 0."""
    loops = 2 * loops + d.m % 2
    return delta_power(loops) * value if loops else value


def p_poly(d: TangleDiagram) -> LaurentPoly:
    """Exact P(d) = delta^(2L + m mod 2) * b0 * bar(b0), from one sweep of
    d's plat closure with an odd side's last point left open: there one
    cap pair joins the copies of d (x) reflect(d) and closes one more
    loop.  b0 is the sweep's one value, L the loops laid before it;
    b0 * bar(b0) is b0.norm(), and a loop factor of delta^0 is no
    product."""
    ensure_valid(d)
    _check_strand_diagram(d)
    states, loops = _frontier_states(d.crossings, len(d.circles),
                                     _caps(d.bottom, d.top))
    return _closure_value(d, loops, next(iter(states.values()), ZERO).norm())
