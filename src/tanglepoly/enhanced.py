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
(s in D, t in its reflection).  The reflected copy lays exactly D's arcs,
so that closure is never built: the 4^n states sum to one two-half sweep
of D's own crossings, circles and plat caps (skein._frontier_states).
Its states are pairs (h1, h2) of half-states, the open ends of D and of
its reflection, both in D's labels, coupled only by the weights of the
joint picks and by the matched vertices below.  Each 4-valent vertex is
a node with arc sets T0 and Tinf and the four joint picks (s, t) of
weight W[s][t]; each crossing is a node with picks of weight
w_s * bar(w_t), the reflection barring the second half.  As in p_poly,
an odd side's last point is left open in each half; its cap to its
mirror closes one more loop, so the sum is delta^(2L + m mod 2) times
the sweep's one value, L the loops laid in each half.  A diagram
without vertices has one enhancement, the empty thick set, and one
state, itself, so its sum is P(D), which _state_sum reads off p_poly's
one-half sweep: with no twin weight to couple them, the two halves are
independent, and their table would be the square of that sweep's.  The
two-half sweep runs only where W couples the halves.

The enhancements differ only in their thick edges, so the total is one
such sweep of the graph itself, in which each trivalent vertex is a node
that picks its thick edge.  Its links are the direct edges at it that
forced-edge peeling keeps, and a link absorbs the node of the 4-valent
vertex its contraction makes; a link whose two ends keep no other is
forced, and is that node.  A graph's links are one table, built once per
call: an entry of (label, partner) pairs per trivalent vertex, read in
one pass over the label index, where a direct edge between two
trivalent slots is a link as it stands and only the strands into
crossings are walked, and then peeled in place (_traced_vertex_links,
_peeled_links); the vertex nodes, the enhancement count and the listing
all read it, and the vertex nodes take each link's contracted vertex
from its pair of occurrences in that index (_contracted_vertex).  Every
node, plain or not, has the one shape (labels, links, vertex) of
skein._frontier_states.  Each frontier state keeps, beside its halves,
the vertices matched ahead: those that an earlier vertex took a link to.
Such a vertex passes its own node and lays nothing, and any other takes
a link to a later vertex not yet matched, so only the states that match
every vertex once survive.  Its cost follows the frontier width, not the
enhancement count.  The per-enhancement invariant is
I_rho(G) = I(G/rho), the same sweep of contract(d, rho): its thick edges
are 4-valent vertices, so it has plain nodes only.  contract is the one
place a thick set becomes 4-valent vertices, for that sweep and for
expand_states and state_polys, which keep the literal 4^n expansion for
the `states` listing and as the oracle of these identities;
enumerate_enhancements lists the enhancements for `rho`, once the same
sweep, its links laying no arcs, has counted them within
MAX_LISTED_ENHANCEMENTS.

Each sweep is planned in one pass over the diagram: a call builds
edge_occurrences(d) once per diagram, and that one index serves
validation, the link tracing and the contracted vertices.  As in every
sweep, the frontier core first removes D's Reidemeister I kinks and II
bigons, caps included (skein._frontier_states), so the sums stay exact:
the reflection's kinks are D's mirrored, their units u and bar(u) cancel,
and the two-half table starts at 1.
"""

from __future__ import annotations

from itertools import product

from .diagram import (TangleDiagram, edge_occurrences, ensure_valid,
                      merge_edges, replace)
from .errors import DomainError, InvalidDiagramError
from .laurent import DELTA, ZERO, LaurentPoly
from .pairing import _caps, _closure_value, p_poly
from .skein import (_frontier_states, _loop_weights, _node, _picks,
                    _smoothings)

Enhancement = frozenset[int]

STATE_PATTERNS = ("T-", "T+", "T0", "Tinf")

# _TWIN_WEIGHTS[s][t][k]: the term map of twin weight W[s][t] (module
# docstring, q^2 + q^-2 is -delta) when the joint pick's four arcs, two
# in each half, close k loops; s and t are 0 for T0, 1 for Tinf
_TWIN_WEIGHTS = tuple(tuple(_loop_weights(w, 4) for w in row)
                     for row in ((3, -DELTA), (-DELTA, 3)))
# the joint picks (s, t, _TWIN_WEIGHTS[s][t]) of a 4-valent vertex, and
# their landing table
_TWIN_PICKS = _picks(_TWIN_WEIGHTS)
# the smoothings of a link of the enhancement count: one arc set, which
# lays no arcs, and one pick of weight 1, with its landing table
_TAKE = ((),), (((0, _loop_weights(1, 0)),), {})

#: Largest number n of 4-valent vertices after contraction (the diagram's
#: own plus one per thick edge, the same for every enhancement) that the
#: state sums accept.  All enhancements are summed in one frontier sweep,
#: whose cost follows the frontier width rather than n: on a 2-core Intel
#: Xeon with Python 3.11.7, a closed 10-rung ladder (233 enhancements)
#: takes about 0.8 ms and 40 rungs about 8 ms (in-process, least of 12
#: calls).  So this bound is a proxy that refuses work which would
#: finish; it is kept until a limit on the sweep's own width replaces it.
MAX_STATE_VERTICES = 10

#: Largest n the `states` listing accepts.  It expands and prints all 4^n
#: states: a closed chain of 7 4-valent vertices lists 16384 of them in
#: about 4 s on a 2-core Xeon with Python 3.11, and each step up takes
#: four times as long.
MAX_LISTED_STATE_VERTICES = 7


def _traced_vertex_links(d: TangleDiagram) -> list[list[tuple[int, int]]]:
    """The link table of d: entry u lists the direct edges from trivalent
    vertex u to another one, each as (label, partner).

    One pass over edge_occurrences(d), which lists the crossings' slots
    first and then the trivalent vertices', each in slot order: a label
    whose two ends are slots of distinct trivalent vertices is a link,
    added to the entries of both, so each entry lists its links in the
    order of their lower slots.  A label from a crossing to a trivalent
    slot starts a strand that is followed back through the crossings (a
    crossing is entered at one slot and left two slots later); if it
    reaches another trivalent vertex it cannot be drawn thick in this
    encoding, and is rejected rather than silently thinned.  Every other
    edge at a trivalent vertex, to the boundary, to a 4-valent vertex or
    back to its own vertex, is thin by force and dropped.
    """
    occ = edge_occurrences(d)
    links: list[list[tuple[int, int]]] = [[] for _ in d.trivalent]
    for label, (near, far) in occ.items():
        # a trivalent end comes second unless the other end is a 4-valent
        # vertex or the boundary, which leaves the edge thin
        if far[0] != "V":
            continue
        kind, u, s = near
        v = far[1]
        if kind == "V":
            if u != v:
                links[u].append((label, v))
                links[v].append((label, u))
            continue
        while kind == "X":  # leave crossing u two slots on
            s = s + 2 & 3
            one, other = occ[d.crossings[u][s]]
            kind, u, s = other if one == ("X", u, s) else one
        if kind == "V" and u != v:
            raise DomainError(
                "cannot enumerate enhancements: a strand through "
                "crossings joins two trivalent vertices")
    return links


def _peeled_links(d: TangleDiagram) -> list[list[tuple[int, int]]] | None:
    """The link table of d, less the links that forced-edge peeling shows
    to lie in no perfect matching, each dropped from both its entries;
    None if a vertex is left without links.  A vertex with one link takes
    it, so its partner's other links die and may force more; a kept link
    in no matching is a harmless link of the sweep, which keeps only
    perfect matchings."""
    links = _traced_vertex_links(d)
    forced = [u for u, at in enumerate(links) if len(at) < 2]
    while forced:
        u = forced.pop()
        for label, v in links[u]:  # its one link, if any
            for other, w in links[v]:
                if other != label:
                    links[w].remove((other, v))
                    if len(links[w]) < 2:
                        forced.append(w)
            links[v] = [(label, u)]
    return links if all(links) else None


def _matchings(links, matched: list[bool], chosen: list[int]):
    """Yield every perfect matching by the link table links that extends
    chosen, whose vertices are the matched ones, as a thick set.
    Depth-first: the first unmatched vertex is tried with each of its
    links in turn.  Each partial matching on the stack is its own copy,
    so nothing is undone, the arguments stay untouched and the depth is
    not bounded by the recursion limit."""
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
        for label, v in reversed(links[u]):
            if not matched[v]:
                grown = matched.copy()
                grown[u] = grown[v] = True
                stack.append((grown, chosen + [label], u + 1))


#: Largest number of enhancements `rho`, and `--rho` in `states` and
#: `invariant`, list.  The listing holds and sorts them all: a closed
#: 22-rung ladder has 75025, listed by `rho` in about 1.5 s end to end on
#: a 2-core Intel Xeon with Python 3.11.7, and the count grows by a factor
#: of about 1.6 per rung.  The count comes first, from a sweep that lays
#: no arcs: `rho` refuses a 1200-rung ladder (about 10^251 enhancements)
#: in about 0.35 s end to end on the same host.
MAX_LISTED_ENHANCEMENTS = 100000


def _vertex_nodes(d: TangleDiagram, links, smoothings_of) -> list:
    """The sweep's nodes for d's trivalent vertices, from the link table
    links as _peeled_links gives it: every vertex has a link, and one
    with a single link is its partner's single link.  A link takes
    smoothings_of(t), t the 4-valent vertex its contraction makes.  A
    link whose two ends keep no other link is forced, and is the plain
    node (t, ((0, smoothings),), 0), built at its lower end; every other
    vertex u is the vertex node (its labels, its links, 1 << u) of
    skein._frontier_states, each link (1 << v, smoothings) to partner v.
    Each link's vertex and smoothings are built once, for both its ends,
    the vertex from the link's pair of occurrences in edge_occurrences(d).
    """
    occ = edge_occurrences(d)
    # label -> (t, smoothings_of(t)) of each link, met at its lower end
    built = {label: (t, smoothings_of(t)) for u, at in enumerate(links)
             for label, v in at if u < v
             for t in (_contracted_vertex(d.trivalent, occ[label]),)}
    nodes, vertex_nodes = [], []
    for u, at in enumerate(links):
        label, v = at[0]
        if len(at) == 1:
            if u < v:
                t, smoothings = built[label]
                nodes.append((t, ((0, smoothings),), 0))
            continue
        vertex_nodes.append((d.trivalent[u], tuple(
            (1 << v, built[label][1]) for label, v in at), 1 << u))
    return nodes + vertex_nodes


def _count_matchings(d: TangleDiagram, links) -> int:
    """Number of perfect matchings of d's trivalent vertices by the link
    table links, as _peeled_links gives it (every vertex has a link): the
    frontier sweep of d's vertex nodes, whose links lay no arcs, so each
    state's ends stay empty and only its matched-ahead vertices tell it
    apart."""
    states, _ = _frontier_states((), nodes=_vertex_nodes(d, links,
                                                         lambda t: _TAKE))
    return next(iter(states.values()), ZERO)._terms.get(0, 0)


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
    return tuple(sorted(_matchings(links, [False] * len(links), []),
                        key=sorted))


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


def _contracted_vertex(trivalent, ends):
    """The 4-valent vertex (a,b,c,d) a thick edge contracts to, from the
    pair ends of its label's occurrences (edge_occurrences) at its
    endpoint rotations (label,a,b) and (label,c,d) among trivalent."""
    (_, ui, s), (_, vi, t) = ends
    u, v = trivalent[ui], trivalent[vi]
    return u[s - 2], u[s - 1], v[t - 2], v[t - 1]


def contract(d: TangleDiagram, rho: Enhancement) -> TangleDiagram:
    """Contract every thick edge into a 4-valent vertex.

    The new vertices follow d's own, in label order; all thin structure is
    unchanged and the result carries no trivalent vertices and no thick set.
    An invalid d raises InvalidDiagramError.
    """
    ensure_valid(d)
    check_enhancement(d, rho)
    occ = edge_occurrences(d)
    return replace(d, trivalent=(), thick=frozenset(),
                   fourvalent=d.fourvalent + tuple(
                       _contracted_vertex(d.trivalent, occ[label])
                       for label in sorted(rho)))


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


def _state_sum(d: TangleDiagram) -> LaurentPoly:
    """Sum of the state sums of a valid d over all its enhancements, in one
    sweep; zero, unswept, when forced-edge peeling leaves a vertex without
    links.

    The sweep is a two-half sweep of d's own crossings, circles and plat
    caps, an odd side's last point left open as in p_poly: each state is a
    pair of half-states, d's and its reflection's, in d's labels.  Each
    4-valent vertex is a node with arc sets T0 and Tinf and the four
    joint picks (s, t) of twin weight W[s][t], and each trivalent vertex
    a vertex node (_vertex_nodes) whose links to the peeled partners
    absorb that node of the vertex their contraction makes.  The frontier
    core keeps only the states that match every trivalent vertex exactly
    once, so the sweep sums over the perfect matchings by links.  The
    result is delta^(2L + m mod 2) times the one value left, L the loops
    laid in each half.  A contracted diagram has no links, so its sweep
    is the state sum of its one enhancement, the empty thick set.  A
    diagram without vertices has one state, itself, so its sum is P(d),
    read off p_poly's one-half sweep before any link is traced: the
    two-half table would hold the square of that sweep's.
    """
    if not (d.trivalent or d.fourvalent):
        return p_poly(d)
    links = _peeled_links(d)
    if links is None:
        return ZERO
    nodes = [_node(v, _TWIN_PICKS) for v in d.fourvalent]
    nodes += _vertex_nodes(d, links, lambda t: _smoothings(t, _TWIN_PICKS))
    states, loops = _frontier_states(d.crossings, len(d.circles),
                                     _caps(d.bottom, d.top), nodes=nodes,
                                     halves=2)
    return _closure_value(d, loops, next(iter(states.values()), ZERO))


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
