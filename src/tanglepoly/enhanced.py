"""Thick-edge enhancements, contraction, and state-sum invariants.

An enhancement of a trivalent diagram assigns value 2 ("thick") to a set of
edges so every trivalent vertex carries total incident value 4, edge values
being 1 otherwise and loops counting twice.  Equivalently: the thick set is
a perfect matching of the trivalent vertices by internal, non-loop,
crossing-free edges.  External edges, loops, and circles stay thin.

Contracting each thick edge merges its two endpoints into one 4-valent
vertex; every 4-valent vertex then expands into the four local patterns
T-, T+, T0, Tinf, and each resulting strand diagram contributes its pairing
polynomial.  Summing the 4^n states gives the per-enhancement invariant;
summing that over all enhancements gives the total.  Both are exposed
symbolically (exact polynomials) and numerically (values at the eight
admissible roots).

The sum is not taken state by state.  The bracket expands T- = q T0 +
q^-1 Tinf and T+ = q^-1 T0 + q Tinf, and P(D) = v A bar(v)^t is linear in
v and in bar(v), so the four patterns of one vertex sum to the Gram weight

    W = [[3, q^2 + q^-2], [q^2 + q^-2, 3]]

over its two flat smoothings.  Hence, over the 2^n flat states s (every
vertex smoothed to T0 or Tinf, crossings kept) with bracket vectors v_s,

    sum of P over the 4^n states = sum_s v_s A (W^(x)n bar(v))_s,

which costs 2^n brackets, n butterfly passes of W and 2^n pairings.
expand_states and state_polys keep the literal 4^n expansion for the
`states` listing and as the oracle of that identity.
"""

from __future__ import annotations

from itertools import product

from .diagram import TangleDiagram, edge_occurrences, ensure_valid, merge_edges
from .errors import DomainError, InvalidDiagramError
from .laurent import LaurentPoly, ZERO, ensure_root_index, poly_sum
from .pairing import check_half_boundary, p_poly, pair
from .skein import CoordinateVector, _frontier_bracket

Enhancement = frozenset[int]

STATE_PATTERNS = ("T-", "T+", "T0", "Tinf")

# diagonal and off-diagonal entries of the Gram weight W (module docstring)
_W_SAME = 3
_W_OTHER = LaurentPoly({2: 1, -2: 1})

#: Largest number n of 4-valent vertices after contraction (the diagram's
#: own plus one per thick edge, the same for every enhancement) that the
#: state sums accept.  Each enhancement costs 2^n flat brackets and
#: pairings; a closed chain of 10 4-valent vertices takes about 0.3 s on a
#: 2-core Xeon with Python 3.11, and each step up about twice that.
MAX_STATE_VERTICES = 10

#: Largest n the `states` listing accepts.  It expands and prints all 4^n
#: states: a closed chain of 7 4-valent vertices lists 16384 of them in
#: about 4 s on a 2-core Xeon with Python 3.11, and each step up takes
#: four times as long.
MAX_LISTED_STATE_VERTICES = 7


def _traced_vertex_links(d: TangleDiagram) -> list[tuple[int, int, int]]:
    """Direct vertex-to-vertex edges: (label, vertex index, vertex index).

    Starting from every trivalent-vertex slot, follows the strand through
    crossings (a crossing is entered at one slot and left two slots later).
    Strands reaching the boundary, a 4-valent vertex, or their own vertex
    are thin by force and dropped.  A strand that joins two distinct
    trivalent vertices but passes through a crossing cannot be drawn thick
    in this encoding, so it is rejected rather than silently thinned.
    """
    occ = edge_occurrences(d)
    links: list[tuple[int, int, int]] = []
    for vi, t in enumerate(d.trivalent):
        for slot, start_label in enumerate(t):
            label = start_label
            prev = ("V", vi, slot)
            hops = 0
            while True:
                ends = occ[label]
                kind, idx, s = next(e for e in ends if e != prev)
                if kind == "X":
                    hops += 1
                    s2 = (s + 2) % 4
                    label = d.crossings[idx][s2]
                    prev = ("X", idx, s2)
                    continue
                if kind == "V" and idx != vi:
                    if hops:
                        raise DomainError(
                            "cannot enumerate enhancements: a strand through "
                            "crossings joins two trivalent vertices")
                    if (vi, slot) < (idx, s):
                        links.append((start_label, vi, idx))
                break
    return links


def enumerate_enhancements(d: TangleDiagram) -> tuple[Enhancement, ...]:
    """All valid thick sets, sorted; empty thick set if no trivalent vertices."""
    nv = len(d.trivalent)
    if nv == 0:
        return (frozenset(),)
    links = _traced_vertex_links(d)
    by_vertex: dict[int, list[tuple[int, int]]] = {v: [] for v in range(nv)}
    for label, u, v in links:
        by_vertex[u].append((label, v))
        by_vertex[v].append((label, u))

    found: set[Enhancement] = set()
    matched = [False] * nv

    def search(chosen: list[int]) -> None:
        try:
            u = matched.index(False)
        except ValueError:
            found.add(frozenset(chosen))
            return
        matched[u] = True
        for label, v in by_vertex[u]:
            if not matched[v]:
                matched[v] = True
                chosen.append(label)
                search(chosen)
                chosen.pop()
                matched[v] = False
        matched[u] = False

    search([])
    return tuple(sorted(found, key=sorted))


def enhancements_by_vertex_sums(d: TangleDiagram) -> tuple[Enhancement, ...]:
    """Brute-force oracle: subsets of vertex-to-vertex edges passing the sum rule.

    A candidate pool is every label whose two occurrences are both at
    trivalent vertices; a subset is valid when each vertex's incident values
    (2 for chosen, 1 otherwise, loops counted twice) sum to 4.  Exponential
    and independent of the matching-based enumerator.
    """
    nv = len(d.trivalent)
    if nv == 0:
        return (frozenset(),)
    occ = edge_occurrences(d)
    pool = sorted(lab for lab, ends in occ.items()
                  if len(ends) == 2 and all(e[0] == "V" for e in ends))
    out: set[Enhancement] = set()
    for mask in range(1 << len(pool)):
        chosen = {pool[i] for i in range(len(pool)) if mask >> i & 1}
        ok = True
        for t in d.trivalent:
            total = sum(2 if lab in chosen else 1 for lab in t)
            if total != 4:
                ok = False
                break
        if ok:
            out.add(frozenset(chosen))
    return tuple(sorted(out, key=sorted))


def _rotated_to_front(t: tuple[int, ...], label: int) -> tuple[int, ...]:
    s = t.index(label)
    return t[s:] + t[:s]


def check_enhancement(d: TangleDiagram, rho: Enhancement) -> None:
    """Raise DomainError unless rho is a valid thick set for d."""
    occ = edge_occurrences(d)
    seen_vertices: set[int] = set()
    for label in sorted(rho):
        ends = occ.get(label, [])
        if len(ends) != 2 or any(e[0] != "V" for e in ends):
            raise DomainError(
                f"invalid enhancement: edge {label} does not join two "
                "trivalent vertices")
        u, v = ends[0][1], ends[1][1]
        if u == v:
            raise DomainError(f"invalid enhancement: edge {label} is a loop")
        if u in seen_vertices or v in seen_vertices:
            raise DomainError(
                "invalid enhancement: a vertex carries two thick edges")
        seen_vertices.update((u, v))
    if len(seen_vertices) != len(d.trivalent):
        raise DomainError(
            "invalid enhancement: a vertex carries no thick edge")


def contract(d: TangleDiagram, rho: Enhancement) -> TangleDiagram:
    """Contract every thick edge into a 4-valent vertex.

    For a thick edge e with endpoint rotations (e,a,b) and (e,c,d) the new
    vertex has rotation (a,b,c,d); all thin structure is unchanged and the
    result carries no trivalent vertices and no thick set.
    """
    check_enhancement(d, rho)
    occ = edge_occurrences(d)
    new_four: list[tuple[int, int, int, int]] = []
    for label in sorted(rho):
        (_, ui, _), (_, vi, _) = occ[label]
        e, a, b = _rotated_to_front(d.trivalent[ui], label)
        e, c, dd = _rotated_to_front(d.trivalent[vi], label)
        new_four.append((a, b, c, dd))
    return TangleDiagram(
        m=d.m, n=d.n,
        crossings=d.crossings,
        fourvalent=d.fourvalent + tuple(new_four),
        circles=d.circles,
        bottom=d.bottom, top=d.top,
    )


def expand_states(d: TangleDiagram):
    """Yield (patterns, strand diagram) for all 4^n vertex assignments.

    For a 4-valent rotation (a,b,c,d): T- is the crossing with under-pair
    (a,c), T+ the crossing with under-pair (b,d), T0 joins a-b and c-d,
    Tinf joins a-d and b-c.  Assignments run in lexicographic pattern order
    over vertices in code order; n = 0 yields the diagram itself once.
    """
    if d.trivalent:
        raise InvalidDiagramError(
            "state expansion needs a contracted diagram; trivalent vertices "
            "present")
    vertices = d.fourvalent
    for patterns in product(STATE_PATTERNS, repeat=len(vertices)):
        crossings = list(d.crossings)
        joins: list[tuple[int, int]] = []
        for (a, b, c, dd), pattern in zip(vertices, patterns):
            if pattern == "T-":
                crossings.append((a, b, c, dd))
            elif pattern == "T+":
                crossings.append((b, c, dd, a))
            elif pattern == "T0":
                joins.extend(((a, b), (c, dd)))
            else:
                joins.extend(((a, dd), (b, c)))
        base = TangleDiagram(m=d.m, n=d.n, crossings=tuple(crossings),
                             circles=d.circles, bottom=d.bottom, top=d.top)
        yield patterns, merge_edges(base, joins)


def state_polys(d: TangleDiagram) -> list[tuple[tuple[str, ...], LaurentPoly]]:
    """Pairing polynomial of every state of a contracted diagram, in order."""
    return [(patterns, p_poly(state)) for patterns, state in expand_states(d)]


def _check_vertex_limit(d: TangleDiagram, limit: int, what: str) -> None:
    n = len(d.fourvalent) + len(d.trivalent) // 2
    if n > limit:
        raise DomainError(
            f"{what} supported only for at most {limit} "
            f"4-valent vertices after contraction, got {n}")


def _check_state_vertices(d: TangleDiagram) -> None:
    _check_vertex_limit(d, MAX_STATE_VERTICES, "state sum")


def check_state_listing(d: TangleDiagram) -> None:
    """Refuse, before any contraction, a diagram whose 4^n states the
    `states` listing could not expand in reasonable time."""
    _check_vertex_limit(d, MAX_LISTED_STATE_VERTICES, "state listing")


def _flat_joins(vertices, s: int) -> list[tuple[int, int]]:
    """Arcs of flat state s: bit k smooths vertex k as T0 (0) or Tinf (1)."""
    joins: list[tuple[int, int]] = []
    for k, (a, b, c, dd) in enumerate(vertices):
        joins.extend(((a, dd), (b, c)) if s >> k & 1 else ((a, b), (c, dd)))
    return joins


def _state_sum(c: TangleDiagram) -> LaurentPoly:
    """Sum of P over the 4^n states of a contracted diagram, from 2^n flat ones.

    v_s is the bracket of c with vertex k smoothed by bit k of s; the
    partners u = W^{(x)n} bar(v) come from n butterfly passes, and the sum
    is the sum over s of v_s * A * u_s^t.
    """
    check_half_boundary(c.m, c.n)
    ensure_valid(c)
    vertices = c.fourvalent
    flat = [_frontier_bracket(c, _flat_joins(vertices, s))
            for s in range(1 << len(vertices))]
    partners = [[x.bar() for x in v.coords] for v in flat]
    for k in range(len(vertices)):
        bit = 1 << k
        for s in range(len(partners)):
            if not s & bit:
                x, y = partners[s], partners[s | bit]
                partners[s] = [_W_SAME * a + _W_OTHER * b if a or b else ZERO
                               for a, b in zip(x, y)]
                partners[s | bit] = [_W_OTHER * a + _W_SAME * b if a or b
                                     else ZERO for a, b in zip(x, y)]
    return poly_sum(pair(v, CoordinateVector(v.basis, tuple(u)))
                    for v, u in zip(flat, partners))


def invariant_rho_poly(d: TangleDiagram, rho: Enhancement) -> LaurentPoly:
    """Exact state sum for one enhancement (contract, then the 2^n flat states)."""
    _check_state_vertices(d)
    return _state_sum(contract(d, rho))


def invariant_rho(d: TangleDiagram, rho: Enhancement, k: int) -> complex:
    ensure_root_index(k)
    return invariant_rho_poly(d, rho).eval_root(k)


def invariant_total_poly(d: TangleDiagram) -> LaurentPoly:
    """Exact sum over all enhancements; zero when none exist."""
    _check_state_vertices(d)
    return poly_sum(invariant_rho_poly(d, rho)
                    for rho in enumerate_enhancements(d))


def invariant_total(d: TangleDiagram, k: int) -> complex:
    ensure_root_index(k)
    return invariant_total_poly(d).eval_root(k)
