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
summing that over all enhancements gives the total.  Both are exact
polynomials; their values at the eight admissible roots are read off the
polynomial (LaurentPoly.rounded_root).

The sums are not taken state by state, nor enhancement by enhancement.
P(D) is the bracket of the plat closure of D (x) reflect(D), and the
bracket expands T- = q T0 + q^-1 Tinf and T+ = q^-1 T0 + q Tinf, with
conjugate weights in the reflected copy.  So the four patterns of one
vertex, taken in both copies at once, sum to the twin weight
W[s][t] = [[3, q^2 + q^-2], [q^2 + q^-2, 3]] on the joint flat smoothings
(s in D, t in its reflection), and the 4^n states sum to one frontier
contraction of that closure which absorbs each vertex with its twin in the
four joint smoothings.  The enhancements differ only in their thick edges,
so the total is one contraction of the graph's own doubled closure, read
off its label tuples: every direct edge that forced-edge peeling keeps
is an option, skipped (weight 1, no arcs) or taken (absorbing the twin
node of the 4-valent vertex its contraction makes), and each frontier
state keeps the set of vertices already covered beside its open ends, so
only the states that take one edge at every vertex survive.  Its cost
follows the frontier width, not the enhancement count.  The
per-enhancement invariant is I_rho(G) = I(G/rho), the same sweep of
contract(d, rho): its thick edges are 4-valent vertices, so it has nodes
only and no options.  contract is the one place a thick set becomes
4-valent vertices, for that sweep and for expand_states and state_polys,
which keep the literal 4^n expansion for the `states` listing and as the
oracle of these identities; enumerate_enhancements lists the
enhancements for `rho`, once the same sweep, with options that lay no
arcs, has counted them within MAX_LISTED_ENHANCEMENTS.

Each sweep is planned in one pass over the diagram: a call builds
edge_occurrences(d) once per diagram, and that one index serves
validation, the link tracing, the contracted vertices and the shift of the
reflected copy.  As in every sweep, the frontier core first removes the
doubled closure's Reidemeister I kinks and II bigons and starts its table
at the kinks' unit (skein._frontier_states), so the sums stay exact.
"""

from __future__ import annotations

from itertools import product

from .diagram import (TangleDiagram, edge_occurrences, ensure_valid,
                      max_label, merge_edges, replace)
from .errors import DomainError, InvalidDiagramError
from .laurent import DELTA, ZERO, LaurentPoly, delta_power
from .pairing import _caps, p_poly
from .skein import _frontier_states

Enhancement = frozenset[int]

STATE_PATTERNS = ("T-", "T+", "T0", "Tinf")

# _TWIN_WEIGHTS[s][t][k]: twin weight W[s][t] (module docstring, q^2 + q^-2
# is -delta) when the joint smoothing's four arcs close k loops; s and t
# are 0 for T0, 1 for Tinf
_TWIN_WEIGHTS = tuple(tuple(tuple(w * delta_power(k) for k in range(5))
                            for w in row) for row in ((3, -DELTA), (-DELTA, 3)))

#: Largest number n of 4-valent vertices after contraction (the diagram's
#: own plus one per thick edge, the same for every enhancement) that the
#: state sums accept.  All enhancements are summed in one frontier sweep,
#: whose cost follows the frontier width rather than n: on a 2-core Xeon
#: with Python 3.11, a closed chain of 10 takes about 1.2 ms and a closed
#: 10-rung ladder (233 enhancements) about 3 ms, 40 rungs about 27 ms.  So
#: this bound is a proxy that refuses work which would finish; it is kept
#: until a limit on the sweep's own width replaces it.
MAX_STATE_VERTICES = 10

#: Largest n the `states` listing accepts.  It expands and prints all 4^n
#: states: a closed chain of 7 4-valent vertices lists 16384 of them in
#: about 4 s on a 2-core Xeon with Python 3.11, and each step up takes
#: four times as long.
MAX_LISTED_STATE_VERTICES = 7


def _traced_vertex_links(d: TangleDiagram) -> list[tuple[int, int, int]]:
    """Direct vertex-to-vertex edges: (label, vertex index, vertex index).

    Starting from every trivalent-vertex slot, follows the strand through
    crossings (a crossing is entered at one slot and left two slots later),
    reading each label's other end off edge_occurrences(d).  Strands
    reaching the boundary, a 4-valent vertex, or their own vertex are thin
    by force and dropped.  A strand that joins two distinct trivalent
    vertices but passes through a crossing cannot be drawn thick in this
    encoding, so it is rejected rather than silently thinned.
    """
    occ = edge_occurrences(d)
    links: list[tuple[int, int, int]] = []
    for vi, t in enumerate(d.trivalent):
        for slot, start_label in enumerate(t):
            label = start_label
            prev = ("V", vi, slot)
            hops = 0
            while True:
                near, far = occ[label]
                kind, idx, s = near if far == prev else far
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


def _links_by_vertex(nv: int, links) -> list[list[tuple[int, int]]]:
    by_vertex: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for label, u, v in links:
        by_vertex[u].append((label, v))
        by_vertex[v].append((label, u))
    return by_vertex


def _peeled_links(d: TangleDiagram) -> list[tuple[int, int, int]] | None:
    """The traced links in traced order, less those forced-edge peeling
    shows to lie in no perfect matching; None if a vertex is left without
    links.  A vertex with one link takes it, so its partner's other links
    die and may force more; a kept link in no matching is a harmless option."""
    links = _traced_vertex_links(d)
    by_vertex = _links_by_vertex(len(d.trivalent), links)
    dead: set[int] = set()

    def live(u):
        return [link for link in by_vertex[u] if link[0] not in dead]

    forced = [u for u, at in enumerate(by_vertex) if len(at) < 2]
    while forced:
        for label, v in live(forced.pop()):  # its one link, if any
            for other, w in live(v):
                if other != label:
                    dead.add(other)
                    if len(live(w)) < 2:
                        forced.append(w)
    if all(map(live, range(len(by_vertex)))):
        return [link for link in links if link[0] not in dead]
    return None


def _matchings(by_vertex, matched: list[bool], chosen: list[int]):
    """Yield every perfect matching by links that extends chosen, whose
    vertices are the matched ones, as a thick set.  Depth-first: the first
    unmatched vertex is tried with each of its links in turn.  Each
    partial matching on the stack is its own copy, so nothing is undone,
    the arguments stay untouched and the depth is not bounded by the
    recursion limit."""
    stack = [(matched, chosen, 0)]
    while stack:
        # every vertex before start is matched
        matched, chosen, start = stack.pop()
        try:
            u = matched.index(False, start)
        except ValueError:
            yield frozenset(chosen)
            continue
        # pushed in reverse, so the links are popped in their own order
        for label, v in reversed(by_vertex[u]):
            if not matched[v]:
                grown = matched.copy()
                grown[u] = grown[v] = True
                stack.append((grown, chosen + [label], u + 1))


#: Largest number of enhancements `rho`, and `--rho` in `states` and
#: `invariant`, list.  The listing holds and sorts them all: a closed
#: 22-rung ladder has 75025, listed by `rho` in about 2.3 s on a 2-core
#: Xeon with Python 3.11, and the count grows by a factor of about 1.6 per
#: rung.  The count comes first, from a sweep that lays no arcs: it
#: refuses a 1200-rung ladder (about 10^251 enhancements) in about 0.5 s.
MAX_LISTED_ENHANCEMENTS = 100000


def _count_matchings(d: TangleDiagram, links) -> int:
    """Number of perfect matchings of d's trivalent vertices by links, as
    _peeled_links gives them (every vertex has one): the frontier sweep
    with every link an option whose take lays no arcs, so each state's
    ends stay empty and only its covered vertices tell it apart."""
    take = (((), (1,)),)  # one smoothing: no arcs, weight 1
    states, _ = _frontier_states((), vertices=d.trivalent,
                                 options=[(u, v, take) for _, u, v in links])
    return next(iter(states.values()), ZERO).terms.get(0, 0)


def enumerate_enhancements(d: TangleDiagram) -> tuple[Enhancement, ...]:
    """All valid thick sets, sorted; empty thick set if no trivalent vertices.

    An invalid d raises InvalidDiagramError.  Refuses with DomainError,
    before listing any, a diagram with more than MAX_LISTED_ENHANCEMENTS of
    them; when the count finds none, returns () without a search."""
    ensure_valid(d)
    links = _peeled_links(d)
    count = 0 if links is None else _count_matchings(d, links)
    if count > MAX_LISTED_ENHANCEMENTS:
        raise DomainError(
            "enhancement listing supported only for at most "
            f"{MAX_LISTED_ENHANCEMENTS} enhancements")
    if not count:
        return ()
    # each thick set comes once: where two search paths part, each takes
    # a link at one vertex that the other does not
    nv = len(d.trivalent)
    return tuple(sorted(_matchings(_links_by_vertex(nv, links),
                                   [False] * nv, []), key=sorted))


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


def _contracted_vertex(d: TangleDiagram, label: int):
    """The 4-valent vertex (a,b,c,d) a thick edge contracts to, from its
    endpoint rotations (label,a,b) and (label,c,d)."""
    (_, ui, s), (_, vi, t) = edge_occurrences(d)[label]
    u, v = d.trivalent[ui], d.trivalent[vi]
    return u[s - 2], u[s - 1], v[t - 2], v[t - 1]


def contract(d: TangleDiagram, rho: Enhancement) -> TangleDiagram:
    """Contract every thick edge into a 4-valent vertex.

    The new vertices follow d's own, in label order; all thin structure is
    unchanged and the result carries no trivalent vertices and no thick set.
    An invalid d raises InvalidDiagramError.
    """
    ensure_valid(d)
    check_enhancement(d, rho)
    return replace(d, trivalent=(), thick=frozenset(),
                   fourvalent=d.fourvalent + tuple(
                       _contracted_vertex(d, label) for label in sorted(rho)))


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


def check_state_listing(d: TangleDiagram) -> None:
    """Refuse, before any contraction, a diagram whose 4^n states the
    `states` listing could not expand in reasonable time."""
    _check_vertex_limit(d, MAX_LISTED_STATE_VERTICES, "state listing")


def check_state_sum(d: TangleDiagram) -> None:
    """Refuse, before any enhancement is listed or swept, a diagram above
    the state sums' MAX_STATE_VERTICES."""
    _check_vertex_limit(d, MAX_STATE_VERTICES, "state sum")


def _twin_node(vertex, offset: int):
    """Frontier node of a 4-valent vertex and its twin, whose labels are
    shifted by offset.  Both are smoothed by label pairs, T0 (a,b),(c,d) and
    Tinf (a,d),(b,c), never by the twin's code, which the reflection
    re-anchors."""
    a, b, c, dd = vertex
    ta, tb, tc, td = a + offset, b + offset, c + offset, dd + offset
    flat = (((a, b), (c, dd)), ((a, dd), (b, c)))
    twin = (((ta, tb), (tc, td)), ((ta, td), (tb, tc)))
    (w00, w01), (w10, w11) = _TWIN_WEIGHTS
    return (a, b, c, dd, ta, tb, tc, td), (
        (flat[0] + twin[0], w00), (flat[0] + twin[1], w01),
        (flat[1] + twin[0], w10), (flat[1] + twin[1], w11))


def _doubled_closure(d: TangleDiagram, offset: int):
    """(crossings, circles, caps) of the plat closure of d (x) reflect(d):
    the reflected copy reverses the ccw order of every crossing and the
    boundary, and its labels are shifted by offset, max_label(d), so that
    they clear d's."""

    def twin(t):
        return tuple(x + offset for x in t)

    crossings = d.crossings + tuple(twin((a, dd, c, b))
                                    for a, b, c, dd in d.crossings)
    return crossings, 2 * len(d.circles), _caps(
        d.bottom + twin(d.bottom[::-1]), d.top + twin(d.top[::-1]))


def _state_sum(d: TangleDiagram) -> LaurentPoly:
    """Sum of the state sums of a valid d over all its enhancements, in one
    sweep; zero, unswept, when forced-edge peeling leaves a vertex without
    links.

    The sweep contracts the plat closure of d (x) reflect(d), read off d's
    label tuples, absorbing d's 4-valent vertices with their twins, and
    each peeled link as an option: taken, it absorbs the twin node of the
    vertex its contraction makes; skipped, it lays nothing.  The frontier
    core keeps only the states where every trivalent vertex is taken
    exactly once, so the sweep sums over the perfect matchings by links.
    A contracted diagram has no links, so its sweep is the state sum of
    its one enhancement, the empty thick set.
    """
    links = _peeled_links(d)
    if links is None:
        return ZERO
    # the shift that moves the reflected copy's labels past d's
    offset = max_label(d)
    vertices = [(a, b, c, a + offset, b + offset, c + offset)
                for a, b, c in d.trivalent]
    options = [(u, v, _twin_node(_contracted_vertex(d, label), offset)[1])
               for label, u, v in links]
    states, loops = _frontier_states(
        *_doubled_closure(d, offset),
        nodes=[_twin_node(v, offset) for v in d.fourvalent],
        vertices=vertices, options=options)
    return delta_power(loops) * next(iter(states.values()), ZERO)


def invariant_rho_poly(d: TangleDiagram, rho: Enhancement) -> LaurentPoly:
    """Exact state sum for one enhancement: I_rho(G) = I(G/rho), the sweep
    of contract(d, rho), which checks rho."""
    ensure_valid(d)
    check_state_sum(d)
    return _state_sum(contract(d, rho))


def invariant_total_poly(d: TangleDiagram) -> LaurentPoly:
    """Exact sum over all enhancements, in one sweep; zero when none exist."""
    ensure_valid(d)
    check_state_sum(d)
    return _state_sum(d)
