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

The sum is not taken state by state.  P(D) is the bracket of the plat
closure of D (x) reflect(D), and the bracket expands T- = q T0 + q^-1 Tinf
and T+ = q^-1 T0 + q Tinf, with conjugate weights in the reflected copy.
So the four patterns of one vertex, taken in both copies at once, sum to
the twin weight W[s][t] on the joint flat smoothings (s in D, t in its
reflection),

    W = [[3, q^2 + q^-2], [q^2 + q^-2, 3]],

and the sum over the 4^n states is one frontier contraction of the
closure of D (x) reflect(D) that absorbs each vertex together with its
twin in the four joint smoothings.  Its cost follows the frontier width,
and it needs no basis and no pairing matrix at any boundary.
expand_states and state_polys keep the literal 4^n expansion for the
`states` listing and as the oracle of that identity.
"""

from __future__ import annotations

from itertools import product

from .diagram import (TangleDiagram, edge_occurrences, ensure_valid, max_label,
                      merge_edges, reflect, tensor)
from .errors import DomainError, InvalidDiagramError
from .laurent import (DELTA, LaurentPoly, delta_power, ensure_root_index,
                      poly_sum)
from .pairing import _closed_bracket, p_poly

Enhancement = frozenset[int]

STATE_PATTERNS = ("T-", "T+", "T0", "Tinf")

# _TWIN_WEIGHTS[s][t][k]: twin weight W[s][t] (module docstring, q^2 + q^-2
# is -delta) when the joint smoothing's four arcs close k loops; s and t
# are 0 for T0, 1 for Tinf
_TWIN_WEIGHTS = tuple(tuple(tuple(w * delta_power(k) for k in range(5))
                            for w in row) for row in ((3, -DELTA), (-DELTA, 3)))

#: Largest number n of 4-valent vertices after contraction (the diagram's
#: own plus one per thick edge, the same for every enhancement) that the
#: state sums accept.  Each enhancement is one frontier sweep (3 ms for a
#: closed chain of 10 on a 2-core Xeon, Python 3.11), so the enhancement
#: count rules: a closed 10-rung ladder has 233 and takes about 0.5 s.
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


def _twin_node(vertex, offset: int):
    """Frontier node of a 4-valent vertex and its twin, whose labels are
    shifted by offset.  Both are smoothed by label pairs, T0 (a,b),(c,d) and
    Tinf (a,d),(b,c), never by the twin's code, which reflect re-anchors."""
    a, b, c, dd = vertex
    flat = (((a, b), (c, dd)), ((a, dd), (b, c)))
    shifted = [tuple((x + offset, y + offset) for x, y in arcs) for arcs in flat]
    return vertex + tuple(x + offset for x in vertex), tuple(
        (flat[s] + shifted[t], _TWIN_WEIGHTS[s][t])
        for s in range(2) for t in range(2))


def _state_sum(c: TangleDiagram) -> LaurentPoly:
    """Sum of P over the 4^n states of a valid contracted diagram.

    One frontier contraction of the plat closure of c (x) reflect(c): the
    crossings of both copies in their two smoothings, each vertex with its
    twin in the four joint smoothings weighted by W.
    """
    offset = max_label(c)  # tensor's shift of the reflected copy
    twins = [_twin_node(v, offset) for v in c.fourvalent]
    return _closed_bracket(tensor(c, reflect(c)), twins)


def invariant_rho_poly(d: TangleDiagram, rho: Enhancement) -> LaurentPoly:
    """Exact state sum for one enhancement (contract, then one sweep)."""
    _check_state_vertices(d)
    return _state_sum(ensure_valid(contract(d, rho)))


def invariant_rho(d: TangleDiagram, rho: Enhancement, k: int) -> complex:
    ensure_root_index(k)
    return invariant_rho_poly(d, rho).eval_root(k)


def invariant_total_poly(d: TangleDiagram) -> LaurentPoly:
    """Exact sum over all enhancements; zero when none exist."""
    _check_state_vertices(d)
    # once for all enhancements: contraction keeps label counts and planarity
    ensure_valid(d)
    return poly_sum(_state_sum(contract(d, rho))
                    for rho in enumerate_enhancements(d))


def invariant_total(d: TangleDiagram, k: int) -> complex:
    ensure_root_index(k)
    return invariant_total_poly(d).eval_root(k)
