"""Flat-tangle basis and bracket reduction for strand diagrams.

A strand diagram with m bottom and n top endpoints reduces, by resolving
every crossing into its two planar smoothings and removing free loops at
delta = -q^2 - q^-2, to a combination of flat diagrams: non-crossing perfect
matchings of the boundary.  Matchings are recorded on circular positions
1..m+n (bottom left-to-right, then top right-to-left), so the top point at
0-based index i sits at position m + n - i.

Two reduction routes are provided on purpose.  bracket() contracts the
diagram one crossing at a time, keeping a table from matchings of the open
ends to coefficients, so its cost follows the number of distinct frontier
matchings rather than 2^c; bracket_oracle() enumerates all 2^c smoothing
states directly over a union-find.  They share no resolution code and must
agree exactly.

Every contraction here, and those of pairing and enhanced, runs through
_frontier_states.  It first removes every Reidemeister I kink and II
bigon among the crossings it is given in one linear pass
(_kinks_and_bigons_removed): a bigon's four smoothings sum to its two
through-strands, and a kink's two to its through-strand times -q^3 or
-q^-3, so the table starts at that unit and every bracket stays exact.
Then the absorption order is planned in one greedy pass
(_absorption_order): every node owns its labels, a graph's trivalent
vertex included, and scores the labels it closes less those it opens; a
trivalent vertex also counts the partners it may leave matched ahead.
The order sets the frontier's width, and with it the sweep's cost.

The sweep's arithmetic is on plain term maps {exponent: coefficient}.  A
weight is a tuple of such maps, entry k the smoothing's weight when its
arcs close k loops; _loop_weights is the one place that builds them, for
the crossings here and for enhanced's twin and take weights.  A table
coefficient is a term map the sweep owns and adds products into in place,
one per surviving state; the returned table adopts each last map as its
LaurentPoly's own (LaurentPoly._adopt), with no copy and no second pass.

Every node of a sweep has one shape, (labels, links, vertex).  A plain
node (a crossing, a 4-valent vertex or a forced thick edge) has vertex 0
and the one link (0, smoothings); a graph's trivalent vertex u has
vertex 1 << u and a link (1 << v, smoothings) to each partner v.  Every
smoothings is (arc sets, picks), and one builder, _node(t, picks), makes
the plain node of a crossing or 4-valent vertex t for either kind of
sweep below, from its picks.

A sweep has one half or two, and one step loop (_step) serves both: it
convolves each state's coefficient with the weights summed per state it
lands in.  At a trivalent vertex's node it takes each link to a partner
not yet matched, or passes on a state whose vertex an earlier partner
matched (_frontier_states).  A one-half sweep (bracket, p_poly and the
enhancement count) keys a state by a tuple of partner slots over its
step's layout, the open labels in a fixed order.  A two-half sweep
(enhanced's state sums) contracts a diagram beside its reflection
without laying the reflected copy, which lays exactly the diagram's
arcs, so its state is a pair of such slot tuples over one layout, and a
node is absorbed in joint picks (s, t, weights) that lay arc set s in
the first half and arc set t in the second.  The states of one covered
mask share one layout, and each step compiles its links against each
layout once (_compiled), for both kinds of sweep.

One landing function serves both kinds of sweep (_lands): a state's
landings, the new states it lands in with its picks' weights summed,
are read from a table kept beside its picks, which every sweep with
those picks shares.  How a miss is laid is all that the two kinds do
differently (_one_half_miss, _two_half_miss).  A table's keys are free
of labels.  A link's signature (the layout's width, the slots of its
first arc set's ends[, the target layout's order]) holds its laying
(_laying), complete for every state of that width: its arc sets on the
old slots' names, the getters of the new slot tuple and of the new
layout, and whether the state is narrow, with at most _NARROW open ends
in each half.  A narrow state's (state, laying ident) holds its
landings; a wider one is laid each time, though a two-half sweep lays
each half once per step, link and mask.  The two-half tables also hold,
under a pair of landing patterns, the picks' weights summed per pair
of new halves.  A half's landing pattern is, for each arc set, which
of its distinct new slot tuples it lands on and how many loops it
closes: a node's two arc sets of two arcs each allow 18, so a table
holds at most 324 pattern pairs.
Entries are filled at first use while the table holds fewer than
_TABLE_CAP of them (_stored), and never written to after.
_frontier_states reads a one-half sweep's last table back into
(frozenset of (end, partner) items, covered) keys.  The loops laid
before a two-half sweep, L of them, are laid in each half, so the value
of a closure is delta^(2L + m mod 2) times the one value left: the
extra delta is the loop that an odd side's last points, left open in
each half, close through the caps joining the copies.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .diagram import TangleDiagram, _Record, _root, _union, ensure_valid
# bench/tracing.py patches skein.merge_edges by attribute
from .diagram import merge_edges  # noqa: F401
from .errors import DomainError, InvalidDiagramError
from .laurent import ONE, LaurentPoly, Q, ZERO, delta_power

Pair = tuple[int, int]
Matching = tuple[Pair, ...]

#: Largest (m+n)/2 enumerate_basis accepts.  The basis has Catalan((m+n)/2)
#: elements, 58786 at 11, and each step up costs about 3.5 times the time
#: and memory; pairing.MAX_HALF_BOUNDARY caps the square-sized pairing
#: matrix lower, at 7 (429 elements, seconds to build).  P(D) and the
#: state sums bracket closures and need no basis, so neither limit
#: applies to them.
MAX_BASIS_HALF_BOUNDARY = 11


def _loop_weights(w, most: int) -> tuple[dict[int, int], ...]:
    """The weights of a smoothing of weight w (a LaurentPoly or an int):
    entry k is the term map of w * delta^k, its weight when its arcs close
    k loops, for k up to most.  The sweep reads these maps and never
    changes them."""
    return tuple((delta_power(k) * w).terms for k in range(most + 1))


# _WEIGHTS[s]: the weights of smoothing s (A, then B), up to two loops
_WEIGHTS = tuple(_loop_weights(w, 2) for w in (Q, Q.bar()))


def circular_position(m: int, n: int, side: str, index: int) -> int:
    if side == "bot":
        return index + 1
    return m + n - index


def is_noncrossing(matching: Matching) -> bool:
    for i, (a, b) in enumerate(matching):
        for c, d in matching[i + 1:]:
            if a < c < b < d or c < a < d < b:
                return False
    return True


def format_matching(matching: Matching) -> str:
    return "".join(f"({a},{b})" for a, b in matching)


class Basis(_Record):
    __slots__ = _FIELDS = ("m", "n", "elements")

    def __len__(self) -> int:
        return len(self.elements)


def _noncrossing_matchings(points: tuple[int, ...]) -> list[Matching]:
    if not points:
        return [()]
    first = points[0]
    out: list[Matching] = []
    # pairing the first point with an odd offset keeps both sides even
    for i in range(1, len(points), 2):
        inner = _noncrossing_matchings(points[1:i])
        outer = _noncrossing_matchings(points[i + 1:])
        for mi in inner:
            for mo in outer:
                out.append(((first, points[i]),) + mi + mo)
    return out


@lru_cache(maxsize=8)
def enumerate_basis(m: int, n: int) -> Basis:
    """All non-crossing perfect matchings of m+n circular positions, sorted;
    the 8 latest shapes cached, since one at (m+n)/2 = 11 holds about
    25 MiB."""
    if m < 0 or n < 0:
        raise DomainError("boundary counts cannot be negative")
    if (m + n) % 2:
        raise DomainError("no flat basis: m + n must be even")
    if (m + n) // 2 > MAX_BASIS_HALF_BOUNDARY:
        raise DomainError(
            f"flat basis supported only for (m+n)/2 <= {MAX_BASIS_HALF_BOUNDARY}")
    raw = _noncrossing_matchings(tuple(range(1, m + n + 1)))
    elements = sorted(tuple(sorted(mt)) for mt in raw)
    return Basis(m, n, tuple(elements))


class CoordinateVector(_Record):
    __slots__ = _FIELDS = ("basis", "coords")

    def __init__(self, basis: Basis, coords: tuple[LaurentPoly, ...]):
        if len(coords) != len(basis.elements):
            raise ValueError("coordinate count does not match basis size")
        super().__init__(basis, coords)

    def as_dict(self) -> dict[Matching, LaurentPoly]:
        return {mt: c for mt, c in zip(self.basis.elements, self.coords) if c}


def vector_bar(v: CoordinateVector) -> CoordinateVector:
    return CoordinateVector(v.basis, tuple(c.bar() for c in v.coords))


def _check_strand_diagram(d: TangleDiagram) -> None:
    """Refuse a graph diagram.  Callers validate d first, so a thick set,
    whose edges join trivalent vertices, is refused here too."""
    # a graph diagram is a valid file, just outside this operation: DomainError
    # so the CLI reports it on the domain channel, not as a bad input file
    if d.trivalent or d.fourvalent:
        raise DomainError(
            "bracket reduction needs a strand diagram; graph vertices present")


def resolve_flat(d: TangleDiagram) -> tuple[Matching, int]:
    """Boundary matching and free-circle count of a crossingless diagram."""
    ensure_valid(d)
    if d.crossings:
        raise InvalidDiagramError("resolve_flat needs a crossingless diagram")
    _check_strand_diagram(d)
    positions: dict[int, list[int]] = {}
    for i, lab in enumerate(d.bottom):
        positions.setdefault(lab, []).append(circular_position(d.m, d.n, "bot", i))
    for i, lab in enumerate(d.top):
        positions.setdefault(lab, []).append(circular_position(d.m, d.n, "top", i))
    matching = tuple(sorted(tuple(sorted(ends)) for ends in positions.values()))
    return matching, len(d.circles)


def _join(ends: dict[int, int], arcs) -> int:
    """Connect the ends x and y of each arc (x, y) in turn; the number of
    loops that closes.

    ends maps each open end to the open end at the other side of its path.
    An end already open continues through the arc to its partner; an end
    not yet open becomes open with the arc as its path.
    """
    loops = 0
    for x, y in arcs:
        if x == y:
            loops += 1
            continue
        px = ends.pop(x, None)
        py = ends.pop(y, None)
        if px == y:
            loops += 1
            continue
        u = x if px is None else px
        v = y if py is None else py
        ends[u] = v
        ends[v] = u
    return loops


def _picks(weights):
    """(joint picks, table) of a node of a two-half sweep, from its 2x2
    matrix of weights.  A joint pick (s, t, weights[s][t]) lays arc set s
    in the first half and arc set t in the second.  The table starts
    empty and fills as the sweeps first meet each link signature, narrow
    state and pair of landing patterns (_compiled, _lands,
    _two_half_miss)."""
    return tuple((s, t, w) for s, row in enumerate(weights)
                 for t, w in enumerate(row)), {}


# a crossing's picks in a one-half sweep, (s, _WEIGHTS[s]) for A and B,
# and the table that every one-half sweep of crossings shares
_ONE_HALF_PICKS = tuple(enumerate(_WEIGHTS)), {}
# the most open ends of a state whose landings a table keeps, in one half
# or in each of two: on cold one-half sweeps of 8- to 13-strand closures
# 6 was the fastest of 4, 6, 8 and 10 on the whole
# (BENCH_slot_states.json, "narrow")
_NARROW = 6
# the most entries a pick table holds: a one-half entry takes about
# 0.9 KiB and a two-half one about 0.45 KiB.  The tier-1 suite fills
# about 1800 in the one-half table, and about 530 and 2790 in the
# crossings' and the 4-valent vertices' two-half tables
# (BENCH_two_half_slots.json, "table")
_TABLE_CAP = 1 << 12
# a crossing's picks in a two-half sweep, up to four loops: the second
# half is the reflected copy, whose weights are barred, so pick (s, t)
# weighs w_s * bar(w_t); with their table
_CROSSING_PICKS = _picks([[_loop_weights(a * b.bar(), 4) for b in (Q, Q.bar())]
                          for a in (Q, Q.bar())])


def _smoothings(t, picks):
    """The smoothings of a crossing or 4-valent vertex (a,b,c,d): its arc
    sets (a,b),(c,d) (A, or T0) and (a,d),(b,c) (B, or Tinf), and its
    picks over them."""
    a, b, c, dd = t
    return (((a, b), (c, dd)), ((a, dd), (b, c))), picks


_NO_VERTICES = 0


def _node(t, picks):
    """A crossing or 4-valent vertex t as a plain node of either kind of
    sweep: vertex 0 and the one link (0, _smoothings(t, picks))."""
    return t, ((_NO_VERTICES, _smoothings(t, picks)),), _NO_VERTICES


def _kinks_and_bigons_removed(crossings, joins):
    """(crossings, loops, joins, unit): the crossings left once every
    Reidemeister I kink and II bigon among them is removed, the loops the
    removals close, the joins to lay, and the unit the bracket picks up.

    Slot 4*k + s is slot s of crossing k, and partner maps each slot to
    the slot at the other end of its edge.  A join between two labels that
    each occur once among the crossings, a cap, is such an edge; any other
    once-met label leads out of the crossings (partner -1) and keeps its
    name.  A kink is a slot whose edge returns to the next slot of its
    crossing; a bigon is two crossings whose edges join slots i, j of
    equal parity and i+1, j-1, so one strand passes under both.  Each
    removal splices the through-strands: a splice that closes on itself is
    one more loop, and one that connects two labels leading out lays a
    join between them.  Only the slots whose partner changed are looked at
    again, so the pass is linear.  A surviving edge keeps the label of its
    later slot.

    A bigon leaves the bracket unchanged; a kink at slots i, i+1
    multiplies it by -q^3 for even i and -q^-3 for odd i.
    """
    if not crossings:
        return crossings, 0, joins, ONE
    labels = [lab for t in crossings for lab in t]
    partner = [-1] * len(labels)
    once: dict[int, int] = {}
    for t, lab in enumerate(labels):
        u = once.pop(lab, None)
        if u is None:
            once[lab] = t
        else:
            partner[t], partner[u] = u, t
    arcs = []
    for x, y in joins:
        if x != y and x in once and y in once:
            s, t = once.pop(x), once.pop(y)
            partner[s], partner[t] = t, s
        else:
            arcs.append((x, y))
    alive = [True] * len(crossings)
    loops = kinks = twist = 0
    work = list(range(len(labels)))
    while work:
        t = work.pop()
        u = partner[t]
        if u < 0 or not alive[t >> 2]:
            continue
        x, i, y, j = t & ~3, t & 3, u & ~3, u & 3
        if x == y:
            if j != (i + 1) & 3:
                continue  # the kink, if any, is found from slot u
            kinks += 1
            twist += -3 if i & 1 else 3
            # through slots i+2 and i+3, round the kink
            through = ((x + (i + 2 & 3), x + (i + 3 & 3)),)
        elif (i ^ j) & 1:
            continue
        else:
            if partner[x + (i - 1 & 3)] == y + (j + 1 & 3):
                i, j = i - 1, j + 1  # t's edge is the bigon's second
            elif partner[x + (i + 1 & 3)] != y + (j - 1 & 3):
                continue
            alive[y >> 2] = False
            through = ((x + (i + 2 & 3), y + (j + 2 & 3)),
                       (x + (i + 3 & 3), y + (j + 1 & 3)))
        alive[x >> 2] = False
        for e, f in through:
            a, b = partner[e], partner[f]
            if a == f:
                loops += 1
            elif a < 0 and b < 0:
                arcs.append((labels[e], labels[f]))
            else:
                # a slot met from outside is renamed after the label it
                # now leads out through
                for near, far, name in ((a, b, labels[f]), (b, a, labels[e])):
                    if near >= 0:
                        partner[near] = far
                        if far < 0:
                            labels[near] = name
                        work.append(near)
    left = [tuple(labels[max(t, partner[t])] for t in range(4 * k, 4 * k + 4))
            for k in range(len(crossings)) if alive[k]]
    unit = LaurentPoly.monomial((-1) ** kinks, twist) if kinks else ONE
    return left, loops, arcs, unit


# the score of an absorbed node: below any gain, even after the updates
# that still reach it, so max never picks it again
_ABSORBED = -(1 << 29)
# what a vertex that a vertex node may leave matched ahead costs its gain,
# in labels: it splits each state by whether it is matched, and where it
# is, its partner's link has laid two of its labels open.  Of the weights
# 1, 2, 3, 4, 6 and 8, 4 planned the fewest state steps over seeded split
# braid graphs (BENCH_vertex_nodes.json, "planner")
_MATCHED_AHEAD = 4


def _absorption_order(nodes):
    """The nodes, each a triple (labels, links, vertex), in contraction
    order.

    Greedy: each step absorbs the node with the best gain, ties by list
    order.  A node's gain counts the labels its absorption closes less
    those it opens: a label whose other end a join laid closes at once, a
    label with both ends at the node neither opens nor closes, and a
    label to another node opens, until that node is absorbed and it
    closes.  So absorbing a node raises by 2 the gain of the node at the
    far end of each label to another node.

    A vertex node, whose vertex is not 0, also counts its partners.  A
    vertex is seen once it or a partner is absorbed, since from then on a
    state may hold it matched ahead.  A vertex node loses _MATCHED_AHEAD
    for each partner not yet seen, which its absorption would make seen,
    and gains 1 once it is seen itself, since its absorption then settles
    it.  A plain node's one link has no partner, so when no node has a
    vertex no partner set is built, and the sweep is planned by labels
    alone.
    """
    far_of: list[list[int]] = [[] for _ in nodes]
    unpaired: dict[int, int] = {}
    for i, node in enumerate(nodes):
        for lab in node[0]:
            j = unpaired.pop(lab, None)
            if j is None:
                unpaired[lab] = i
            elif j != i:
                far_of[i].append(j)
                far_of[j].append(i)
    score = [-len(far) for far in far_of]
    for i in unpaired.values():
        score[i] += 1
    vertex_at = {vertex: i for i, (_, _, vertex) in enumerate(nodes)
                 if vertex}
    if vertex_at:
        partners = [{vertex_at[v] for v, _ in links if v}
                    for _, links, _ in nodes]
        for i, near in enumerate(partners):
            score[i] -= _MATCHED_AHEAD * len(near)
        seen = [False] * len(nodes)
    plan = []
    for _ in nodes:
        # index keeps the first of equal scores
        i = score.index(max(score))
        score[i] = _ABSORBED
        for j in far_of[i]:
            score[j] += 2
        if vertex_at:
            # i and its partners are seen now; a partner seen now gains 1,
            # and so does i, which max no longer picks
            for j in (i, *partners[i]):
                if not seen[j]:
                    seen[j] = True
                    score[j] += 1
                    for k in partners[j]:
                        score[k] += _MATCHED_AHEAD
        plan.append(nodes[i])
    return plan


def _boundary_arcs(d: TangleDiagram) -> list[Pair]:
    """Arcs from every boundary end to its edge.  Boundary ends are named by
    their negated circular position, so they never collide with the
    positive edge labels."""
    return [(-circular_position(d.m, d.n, side, i), lab)
            for side, labels in (("bot", d.bottom), ("top", d.top))
            for i, lab in enumerate(labels)]


def bracket(d: TangleDiagram) -> CoordinateVector:
    """Coordinate vector of a strand diagram in the flat basis.

    Frontier contraction: the state maps a perfect matching of the open
    ends (boundary positions, and edge labels with one occurrence absorbed)
    to its coefficient.  Each crossing (a,b,c,d), under-pair (a,c), is
    absorbed in both smoothings: A joins (a,b),(c,d) with weight q, B joins
    (a,d),(b,c) with weight q^-1, and each loop a join closes multiplies by
    delta.  Equal matchings merge, so the work follows the number of
    distinct frontier matchings, not the 2^c smoothing states.
    """
    ensure_valid(d)
    _check_strand_diagram(d)
    basis = enumerate_basis(d.m, d.n)
    states, loops = _frontier_states(d.crossings, len(d.circles),
                                     _boundary_arcs(d))
    factor = delta_power(loops)
    acc = {tuple(sorted((-u, -v) for u, v in ends if u > v)):
           factor * coeff if loops else coeff
           for (ends, _), coeff in states.items()}
    return CoordinateVector(basis, tuple(acc.get(mt, ZERO) for mt in basis.elements))


def _stored(table, key, value):
    """value, stored in table under key while the table holds fewer than
    _TABLE_CAP entries: a pick table's one write."""
    if len(table) < _TABLE_CAP:
        table[key] = value
    return value


def _getter(keys):
    """A getter of the tuple of a container's values at keys, which are
    none or at least two, as a layout's are: () when there are none."""
    return itemgetter(*keys) if keys else lambda _: ()


def _laying(sig, arc_sets, source, table):
    """The laying of a link's signature (width, codes[, order]), complete
    for every state of that width: (ident, arc sets, order, olds, narrow,
    take, slots), stored in table (_stored), its ident the table's size
    then.

    source is the old layout followed by the ends of the link's first arc
    set, and a label's key is its first place there; codes are those
    ends' keys.  order lists the new layout's keys, by default the old
    slots the arcs leave open, then the labels they open.  Each key is
    named by its new slot, or past the new slots if its label closes, so
    laying arc sets on olds, the old slots' names, leaves exactly the
    new slots open.  narrow says that a state of the old layout has at
    most _NARROW open ends, so its landings are kept (_lands); take reads
    a laid slot-keyed dict's new slot tuple, and slots reads the new
    layout off source."""
    width, codes = sig[:2]
    odd = {k for k in codes if codes.count(k) % 2}
    order = sig[2] if len(sig) > 2 else tuple(
        k for k in range(width) if k not in odd) + tuple(
        sorted(k for k in odd if k >= width))
    name = list(range(len(order), len(order) + len(source)))
    for j, k in enumerate(order):
        name[k] = j
    arc_sets = tuple(tuple((name[source.index(x)], name[source.index(y)])
                           for x, y in arcs) for arcs in arc_sets)
    return _stored(table, sig, (
        len(table), arc_sets, order, tuple(name[:width]), width <= _NARROW,
        _getter(range(len(order))), _getter(order)))


def _compiled(layouts, vertex, links, miss):
    """(links, layouts) for a step of a sweep, of one half or two, that
    reads a table of the given layouts, one per covered mask: each link
    (partner, smoothings) becomes (partner, {covered: (laying, picks,
    table, laid, miss)}) for each mask that takes it (_laying), laid an
    empty dict in which a two-half step keeps the halves it lays (_laid),
    and miss the sweep's routine that lays a state's landings when its
    table does not hold them (_lands).  The layouts are those of the
    table the step writes, each read off its source by its laying.

    A link keeps the labels its arc sets leave open, in order, and
    appends those it opens; each arc set of a link lays the same labels
    an equal number of times mod 2, so the open labels depend only on
    the step and the mask.  A state that passes the vertex keeps its
    layout, and so does one that another link brings to the same mask:
    that link's signature then names the layout's order.  A signature
    reads the first arc set alone, since the links that share a picks
    table lay their other arc sets as one rearrangement of the first's
    ends, as _smoothings builds them."""
    nxt = {covered ^ vertex: layout for covered, layout in layouts.items()
           if covered & vertex} if vertex else {}
    out = []
    for partner, (arc_sets, (picks, table)) in links:
        ends = sum(arc_sets[0], ())
        by_mask = {}
        for covered, layout in layouts.items():
            if covered & (vertex | partner):
                continue
            source = layout + ends
            sig = len(layout), tuple(map(source.index, ends))
            laying = table.get(sig) or _laying(sig, arc_sets, source, table)
            new = laying[6](source)  # its slots getter
            target = nxt.setdefault(covered | partner, new)
            if target != new:
                sig += (tuple(map(source.index, target)),)
                laying = (table.get(sig)
                          or _laying(sig, arc_sets, source, table))
            by_mask[covered] = laying, picks, table, {}, miss
        out.append((partner, by_mask))
    return out, nxt


def _lands(by_mask, state, covered):
    """The landings of one state of a sweep, of one half or two, by the
    laying of its link for its mask (_compiled): each new state it lands
    in, with its picks' weights summed.  A narrow state reads them from
    its picks' table under (state, the laying's ident); a miss lays them
    with the sweep's miss routine (_one_half_miss, _two_half_miss) and
    stores them (_stored), and no entry is written to after.  A wider
    state is laid each time."""
    laying, picks, table, laid, miss = by_mask[covered]
    if not laying[4]:  # not narrow
        return miss(state, laying, picks, table, laid)
    key = state, laying[0]
    landed = table.get(key)
    if landed is None:
        landed = _stored(table, key, miss(state, laying, picks, table, laid))
    return landed


def _one_half_miss(half, laying, picks, table, laid):
    """((new half, summed weights), ...) of a state of a one-half sweep,
    its slot tuple half laid in the arc set of each pick (s, weights)
    with _join on a slot-keyed dict."""
    _, arc_sets, _, olds, _, take, _ = laying
    base = dict(zip(olds, map(olds.__getitem__, half)))
    landed = {}
    for s, weights in picks:
        cur = base.copy()
        w = weights[_join(cur, arc_sets[s])]
        new = take(cur)
        prev = landed.get(new)
        if prev is not None:
            w = prev | {e: prev.get(e, 0) + c for e, c in w.items()}
        landed[new] = w
    return tuple(landed.items())


def _laid(half, laying) -> tuple[list[tuple], tuple]:
    """(news, pattern) of a slot tuple half with each arc set of its
    link's laying laid (_compiled): news its distinct new slot tuples, in
    order, and pattern its landing pattern, for each arc set the pair
    (index in news of the slot tuple it lands on, loops it closes)."""
    _, arc_sets, _, olds, _, take, _ = laying
    base = dict(zip(olds, map(olds.__getitem__, half)))
    news: list[tuple] = []
    pattern = []
    for arcs in arc_sets:
        cur = base.copy()
        loops = _join(cur, arcs)
        new = take(cur)
        if new not in news:
            news.append(new)
        pattern.append((news.index(new), loops))
    return news, tuple(pattern)


def _landings(picks, pattern1, pattern2):
    """The landings of a pair of landing patterns: ((i, j), summed weights)
    for each pair of indices of distinct new halves that a joint pick
    (s, t, weights) lands on, in the order the picks first reach it."""
    landed = {}
    for s, t, weights in picks:
        i, loops1 = pattern1[s]
        j, loops2 = pattern2[t]
        w = weights[loops1 + loops2]
        prev = landed.get((i, j))
        if prev is not None:
            w = prev | {e: prev.get(e, 0) + c for e, c in w.items()}
        landed[i, j] = w
    return tuple(landed.items())


def _two_half_miss(halves, laying, picks, table, laid):
    """(((new h1, new h2), summed weights), ...) of a state of a two-half
    sweep, its slot tuples h1 and h2 laid in the arc sets of each joint
    pick (s, t, weights): both halves lay the same labels, so they share
    one layout.  Each half is laid once per step, into the laid dict of
    its link and mask (_laid), and the summed weights are read off the
    table's entry for the two halves' landing patterns, filled at its
    first use (_landings, _stored).  A node has two arc sets of two arcs
    each, so a pattern is one of 2 * 3 * 3 = 18 (the second arc set
    lands on the first's slot tuple or a new one; each closes 0 to 2
    loops), and a table holds at most 324 pattern pairs."""
    h1, h2 = halves
    first = laid.get(h1)
    if first is None:
        first = laid[h1] = _laid(h1, laying)
    second = laid.get(h2)
    if second is None:
        second = laid[h2] = _laid(h2, laying)
    news1, pattern1 = first
    news2, pattern2 = second
    patterns = pattern1, pattern2
    landings = table.get(patterns)
    if landings is None:
        landings = _stored(table, patterns,
                           _landings(picks, pattern1, pattern2))
    return tuple(((news1[i], news2[j]), w) for (i, j), w in landings)


def _step(states, vertex, links):
    """The next table, before its zero terms are dropped: each state
    absorbs a node (labels, links, vertex), landing where _lands sends
    it (_frontier_states).  links are the node's links to the partners
    still unabsorbed; a plain node's one link (0, smoothings) has no
    partner, so every state takes it."""
    lands = _lands  # a local name, read faster in the loop
    nxt: dict[tuple, dict[int, int]] = {}
    for key, coeff in states.items():
        half, covered = key
        if covered & vertex:
            # matched ahead: passes on with its bit cleared
            key = (half, covered ^ vertex)
            acc = nxt.get(key)
            if acc is None:
                nxt[key] = coeff  # no state reads it after this one
            else:
                for e, c in coeff.items():
                    acc[e] = acc.get(e, 0) + c
            continue
        for partner, smoothings in links:
            if covered & partner:
                continue
            for new, w in lands(smoothings, half, covered):
                new = (new, covered | partner)
                acc = nxt.get(new)
                if acc is None:
                    acc = nxt[new] = {}
                for e2, c2 in w.items():
                    if c2:
                        for e1, c1 in coeff.items():
                            e = e1 + e2
                            acc[e] = acc.get(e, 0) + c1 * c2
    return nxt


def _frontier_states(crossings, circles: int = 0, joins=(), nodes=(),
                     halves: int = 1) -> tuple[dict, int]:
    """(states, laid): the final state table of the frontier contraction,
    zeros dropped, and the number of loops laid before it.

    The diagram is given by its parts: its crossings, its number of free
    circles, and joins, arcs (x, y) each connecting an end of edge x to an
    end of edge y (or a boundary end -p to edge y), laid before any node is
    absorbed.  The nodes absorbed are the crossings and the given nodes,
    in the order _absorption_order plans.  Every node is a triple
    (labels, links, vertex), each link a pair (partner, smoothings), and
    every smoothings a pair (arc sets, picks).  In a one-half sweep a pick
    (s, weights) lays arc set s, and weights[k], a term map {exponent:
    coefficient} from _loop_weights, is its weight when its arcs close k
    loops.  A plain node has vertex 0 and the one link (0, smoothings),
    which every state takes; the crossings are the plain nodes
    _node(t, _ONE_HALF_PICKS).

    A vertex node (labels, links, 1 << u) is trivalent vertex u of a
    graph, which picks its thick edge: each link (1 << v, smoothings) is a
    thick edge to vertex v, and takes the smoothings of the 4-valent
    vertex its contraction makes.  A state is a pair (half, covered): its
    open ends, and the bitmask of the vertices matched ahead, bit v for a
    vertex v that an earlier vertex took a link to.  At vertex u's node,
    a state that covers u passes on with u's bit cleared and nothing
    laid; any other state takes each link whose partner is neither
    absorbed nor covered, and covers the partner.  A state whose vertex
    has no such link dies.  So the vertex nodes sum over the perfect
    matchings of their vertices by links, and every state left at the end
    covers nothing.

    A state's half is the tuple of its partner slots over the layout of
    its mask, and each step compiles its links against those layouts
    (_compiled), each with the sweep's miss routine, here _one_half_miss;
    its landings come from its picks' shared table (_lands).  The
    returned table is keyed by (ends, covered), ends the frozenset of
    (end, partner) items over the open ends, read off the last layouts.

    With halves=2 the sweep is a two-half sweep (see the module
    docstring): a state is ((h1, h2), covered), two slot tuples over the
    one layout of its mask, since both halves lay the diagram's own
    labels.  A pick (s, t, weights) lays arc set s in h1 and arc set t in
    h2, and weights[k] is its weight when the two close k loops between
    them.  The crossings are the plain nodes _node(t, _CROSSING_PICKS), the
    reflection barring the second half's weights.  A narrow state reads
    its whole landing list, the summed weights per pair of new slot
    tuples, in one lookup of its picks' shared table (_lands); a miss
    lays each half once per step and sums the picks per pair of landing
    patterns (_two_half_miss).  The returned table keeps these keys,
    since the state sums read only the value a closure leaves.  Both
    halves start from the same slot tuple, and the kinks' unit u of the
    first meets bar(u) in the second, so the table starts at 1.

    A closure, its caps laid as joins, leaves at most one state, whose
    ends are not empty when an odd side's last point is left open.

    A state's coefficient in the table is a term map the sweep owns, one
    per state; the table that is returned adopts each last map as its
    LaurentPoly's own, uncopied (LaurentPoly._adopt): the step's zero
    drop leaves only nonzero ints, and no weight or unit map is ever a
    state's.  At each step the weights of one state's smoothings are
    summed per state they land in, and each sum is convolved with the
    state's map straight into the map of the state it lands in, so a state
    pays one product per distinct state it reaches and allocates no
    polynomial for it.  A state that passes a vertex moves its map to the
    next table, where later products may add into it.  Zero terms and
    empty maps are dropped once, at the end of the step, the terms in
    place.  No weight map and no unit is ever written to, and no map is
    written to while a state still reads it.

    Before any of this, the crossings' kinks and bigons are removed
    (_kinks_and_bigons_removed); a join between two labels that each
    occur once among the crossings is an edge of that pass, so a cap may
    close a kink or a bigon.  The table starts at a copy of the unit the
    removed kinks multiply the bracket by, 1 when there are none.

    Those loops, the free circles, the loops the removals close and the
    loops the joins close, are a factor delta^laid of every entry: the
    table leaves it out, and each caller applies it once to what it reads
    off the table.  With halves=2 they are laid in each half, so a caller
    of a closure applies delta^(2 * laid + m mod 2), the extra delta the
    loop that an odd side's last points, open in both halves, close
    through the caps joining the copies.
    """
    crossings, laid, joins, unit = _kinks_and_bigons_removed(crossings, joins)
    start: dict[int, int] = {}
    laid += circles + _join(start, joins)
    layout = tuple(start)
    layouts = {_NO_VERTICES: layout}
    half = tuple(map(layout.index, start.values()))
    if halves == 1:
        states = {(half, _NO_VERTICES): unit.terms}
        picks, miss = _ONE_HALF_PICKS, _one_half_miss
    else:
        states = {((half, half), _NO_VERTICES): {0: 1}}  # u * bar(u) = 1
        picks, miss = _CROSSING_PICKS, _two_half_miss
    all_nodes = [_node(t, picks) for t in crossings]
    all_nodes += nodes
    absorbed = _NO_VERTICES
    for _, links, vertex in _absorption_order(all_nodes):
        if vertex:
            absorbed |= vertex
            links = [link for link in links if not link[0] & absorbed]
        links, layouts = _compiled(layouts, vertex, links, miss)
        states = _step(states, vertex, links)
        for acc in states.values():
            if 0 in acc.values():
                for e in [e for e, c in acc.items() if not c]:
                    del acc[e]
        if not all(states.values()):
            states = {key: acc for key, acc in states.items() if acc}
    adopt = LaurentPoly._adopt
    if halves == 2:  # its callers read only the one value it leaves
        return {key: adopt(acc) for key, acc in states.items()}, laid
    return {(frozenset(zip(layouts[covered], map(
        layouts[covered].__getitem__, half))), covered): adopt(acc)
        for (half, covered), acc in states.items()}, laid


def bracket_oracle(d: TangleDiagram) -> CoordinateVector:
    """Independent bracket: enumerate all 2^c smoothing states over a union-find.

    Each state is scored q^(#A - #B) * delta^circles on its boundary class.
    No diagram surgery and no recursion; kept separate from bracket() so the
    two can check each other.
    """
    ensure_valid(d)
    _check_strand_diagram(d)
    basis = enumerate_basis(d.m, d.n)
    boundary = (
        [(circular_position(d.m, d.n, "bot", i), lab) for i, lab in enumerate(d.bottom)]
        + [(circular_position(d.m, d.n, "top", i), lab) for i, lab in enumerate(d.top)]
    )
    acc: dict[Matching, LaurentPoly] = {}
    c = len(d.crossings)
    for mask in range(1 << c):
        parent: dict[int, int] = {}
        circles = len(d.circles)
        exponent = 0
        for i, (a, b, cc, dd) in enumerate(d.crossings):
            if mask >> i & 1:
                joins = ((a, dd), (b, cc))
                exponent -= 1
            else:
                joins = ((a, b), (cc, dd))
                exponent += 1
            for x, y in joins:
                # a redundant union closes exactly one loop
                if not _union(parent, x, y):
                    circles += 1
        by_root: dict[int, list[int]] = {}
        for pos, lab in boundary:
            by_root.setdefault(_root(parent, lab), []).append(pos)
        pairs = []
        for group in by_root.values():
            if len(group) != 2:
                raise InvalidDiagramError(
                    "smoothing state does not pair the boundary")
            lo, hi = sorted(group)
            pairs.append((lo, hi))
        matching = tuple(sorted(pairs))
        if not is_noncrossing(matching):
            raise InvalidDiagramError("nonplanar input detected")
        term = LaurentPoly.monomial(1, exponent) * delta_power(circles)
        acc[matching] = acc.get(matching, ZERO) + term
    return CoordinateVector(basis, tuple(acc.get(mt, ZERO) for mt in basis.elements))
