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
_frontier_states, whose absorption order is planned in one greedy pass
before the sweep (_absorption_order).  Each node and each optional node
is an entry held by one or two owners of label ends, and one scoring rule
and one update path serve them all.  The order sets the frontier's
width, and with it the sweep's cost.
"""

from __future__ import annotations

from functools import lru_cache

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
#: matrix lower.  P(D) and the state sums bracket closures and need no
#: basis, so neither limit applies to them.
MAX_BASIS_HALF_BOUNDARY = 11

# _WEIGHTS[s][k]: weight of smoothing s (A, then B) when its joins close k loops
_WEIGHTS = tuple(tuple(w * delta_power(k) for k in range(3))
                 for w in (Q, Q.bar()))


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


@lru_cache(maxsize=None)
def enumerate_basis(m: int, n: int) -> Basis:
    """All non-crossing perfect matchings of m+n circular positions, sorted."""
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
    # a graph diagram is a valid file, just outside this operation: DomainError
    # so the CLI reports it on the domain channel, not as a bad input file
    if d.trivalent or d.fourvalent:
        raise DomainError(
            "bracket reduction needs a strand diagram; graph vertices present")
    if d.thick:
        raise DomainError("bracket reduction needs an empty thick set")


def resolve_flat(d: TangleDiagram) -> tuple[Matching, int]:
    """Boundary matching and free-circle count of a crossingless diagram."""
    if d.crossings:
        raise InvalidDiagramError("resolve_flat needs a crossingless diagram")
    _check_strand_diagram(d)
    positions: dict[int, list[int]] = {}
    for i, lab in enumerate(d.bottom):
        positions.setdefault(lab, []).append(circular_position(d.m, d.n, "bot", i))
    for i, lab in enumerate(d.top):
        positions.setdefault(lab, []).append(circular_position(d.m, d.n, "top", i))
    pairs = []
    for lab in positions:
        if len(positions[lab]) != 2:
            raise InvalidDiagramError(
                f"label {lab} does not join two boundary points")
        a, b = sorted(positions[lab])
        pairs.append((a, b))
    matching = tuple(sorted(pairs))
    if not is_noncrossing(matching):
        raise InvalidDiagramError("nonplanar input detected")
    return matching, len(d.circles)


def _join(ends: dict[int, int], x: int, y: int) -> int:
    """Connect ends x and y by an arc; 1 if that closes a loop, else 0.

    ends maps each open end to the open end at the other side of its path.
    An end already open continues through the arc to its partner; an end
    not yet open becomes open with the arc as its path.
    """
    if x == y:
        return 1
    px = ends.pop(x, None)
    py = ends.pop(y, None)
    if px == y:
        return 1
    u = x if px is None else px
    v = y if py is None else py
    ends[u] = v
    ends[v] = u
    return 0


def _crossing_node(t):
    """A crossing (a,b,c,d) as a frontier node: A joins (a,b),(c,d) with
    weight q, B joins (a,d),(b,c) with weight q^-1."""
    a, b, c, dd = t
    return t, ((((a, b), (c, dd)), _WEIGHTS[0]), (((a, dd), (b, c)), _WEIGHTS[1]))


_NO_MARKS: frozenset = frozenset()
# the score of an absorbed entry: below any gain, even after the updates
# that still reach it, so max never picks it again
_ABSORBED = -(1 << 29)


def _absorption_order(nodes, vertices, options):
    """(smoothings, cover, done) of every node and option, in contraction
    order.

    Every entry is a tuple of owners, each owning the ends of its labels.
    A node (labels, smoothings) is the entry (i,): it owns its own labels.
    An option (u, v, smoothings) is a node that may be skipped, the entry
    (u', v') of its two vertices: u and v index them in vertices, each
    (mark, labels), and a vertex owns its labels' ends jointly with its
    other options, since whichever option covers it lays them; every
    vertex has an option.  cover is the frozenset of the option's marks
    (None for a node), and done holds the marks whose last option this is.

    Greedy: each step absorbs the entry with the best gain, ties by list
    order (nodes, then options).  Touching an owner closes each of its
    labels whose other end is touched (an end laid by a join counts as
    touched) and opens the others; the gain counts closed labels less
    opened ones.  A vertex between its first and its last option weighs
    as if all its labels were open, since its key item keeps the states
    where it is covered apart from those where it is not: a vertex with
    two or more options starts at minus its label count in each option's
    score, and its remaining options gain that count back when it is first
    touched, and once more when one option is left.  A node owner has one
    entry, itself, so it never meets these terms.

    Owners and entries are ints: node i is owner i and entry i, vertex u
    is owner u' = n + u, and option k is entry n + k, n = len(nodes).
    """
    n = len(nodes)
    labels_of = [labels for labels, _ in nodes]
    labels_of += [labels for _, labels in vertices]
    entries = [(i,) for i in range(n)]
    entries += [(n + u, n + v) for u, v, _ in options]
    holders: list[list[int]] = [[] for _ in labels_of]
    for j, owners in enumerate(entries):
        for owner in owners:
            holders[owner].append(j)
    # far_of[owner]: the owner at the other end of each of its labels, None
    # where a join laid that end (the scores need no label order); a label
    # with both ends at one owner neither opens nor closes, and is left out
    far_of: list[list] = [[] for _ in labels_of]
    unpaired: dict[int, int] = {}
    for owner, labels in enumerate(labels_of):
        for lab in labels:
            other = unpaired.pop(lab, None)
            if other is None:
                unpaired[lab] = owner
            elif other != owner:
                far_of[owner].append(other)
                far_of[other].append(owner)
    for owner in unpaired.values():
        far_of[owner].append(None)
    left = [len(h) for h in holders]  # unabsorbed entries per owner
    touched = [False] * len(labels_of)
    # a label scores +1 when a join laid its far end, 0 when the entry owns
    # both its ends and -1 when it opens
    score = []
    for owners in entries:
        gain = 0
        for owner in owners:
            far = far_of[owner]
            gain += 2 * far.count(None) - len(far)
            for o in owners:
                gain += far.count(o)
            if left[owner] > 1:
                gain -= len(labels_of[owner])
        score.append(gain)
    plan = []
    for _ in score:
        # index keeps the first of equal scores
        j = score.index(max(score))
        score[j] = _ABSORBED
        owners = entries[j]
        for owner in owners:
            left[owner] -= 1
            first = not touched[owner]
            touched[owner] = True
            opened = 0
            if first:
                for far in far_of[owner]:
                    if far is not None and not touched[far]:  # the label opens
                        opened += 1
                        # the entries at its far end now close it: -1 turns
                        # into +1, or 0 into +1 where an entry owns both ends
                        for h in holders[far]:
                            score[h] += 1 if owner in entries[h] else 2
            if left[owner]:  # else all its entries are absorbed
                # its own entries: +1 per label opened and -1 per label
                # closed, and its label count back when first touched and
                # when one entry is left
                mine = 2 * opened - len(far_of[owner]) if first else 0
                mine += len(labels_of[owner]) * (first + (left[owner] == 1))
                for h in holders[owner]:
                    score[h] += mine
        if j < n:
            plan.append((nodes[j][1], None, _NO_MARKS))
            continue
        u, v, smoothings = options[j - n]
        marks = vertices[u][0], vertices[v][0]
        plan.append((smoothings, frozenset(marks), frozenset(
            [mark for mark, owner in zip(marks, owners) if not left[owner]])))
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
    _check_strand_diagram(d)
    ensure_valid(d)
    basis = enumerate_basis(d.m, d.n)
    states, loops = _frontier_states(d.crossings, len(d.circles),
                                     _boundary_arcs(d))
    acc = {tuple(sorted((-u, -v) for u, v in key if u > v)):
           delta_power(loops) * coeff for key, coeff in states.items()}
    return CoordinateVector(basis, tuple(acc.get(mt, ZERO) for mt in basis.elements))


def _frontier_states(crossings, circles: int = 0, joins=(), nodes=(),
                     vertices=(), options=()) -> tuple[dict, int]:
    """(states, laid): the final state table of the frontier contraction,
    zeros dropped, and the number of loops laid before it.

    The diagram is given by its parts: its crossings, its number of free
    circles, and joins, arcs (x, y) each connecting an end of edge x to an
    end of edge y (or a boundary end -p to edge y), laid before any node is
    absorbed.  The nodes absorbed are the crossings, the given nodes, each
    a pair (labels, smoothings), and the given options over the given
    vertices (see _absorption_order): every smoothing is (arcs, weights),
    and weights[k] is its weight when its arcs close k loops.

    An option is either skipped, with weight 1 and no arcs, or taken in
    its smoothings, which needs both its vertices uncovered.  A state key
    is a frozenset of (end, partner) items over the open ends, plus an item
    (mark, mark) for each covered vertex that has options left; marks lie
    outside the label range, so _join never touches them.  When a vertex's
    last option has been absorbed, states where it is uncovered are dropped
    and its mark leaves the key.  So the options sum over the perfect
    matchings of their vertices by options.

    A closed diagram, its caps laid as joins, leaves at most the one key
    frozenset().  The weights of one state's smoothings are summed per
    landing key first, so a state pays one multiplication per distinct key
    it reaches, not per smoothing.

    Those loops, the free circles and the loops the joins close, are a
    factor delta^laid of every entry: the table starts at 1 without it,
    and each caller applies it once to what it reads off the table.
    """
    ends: dict[int, int] = {}
    laid = circles + sum(_join(ends, x, y) for x, y in joins)
    states = {frozenset(ends.items()): ONE}
    all_nodes = [_crossing_node(t) for t in crossings] + list(nodes)
    for smoothings, cover, done in _absorption_order(all_nodes, vertices,
                                                     options):
        nxt: dict[frozenset, LaurentPoly] = {}
        for key, coeff in states.items():
            base = key
            if cover is not None:
                # skipped: the key is kept, and the take keys all carry cover
                nxt[key] = nxt[key] + coeff if key in nxt else coeff
                if not cover.isdisjoint(key):
                    continue
                base = key | cover
            landed: dict[frozenset, LaurentPoly] = {}
            for arcs, weights in smoothings:
                cur = dict(base)
                loops = 0
                for x, y in arcs:
                    loops += _join(cur, x, y)
                new = frozenset(cur.items())
                w = weights[loops]
                landed[new] = landed[new] + w if new in landed else w
            for new, wsum in landed.items():
                if wsum:
                    term = coeff * wsum
                    nxt[new] = nxt[new] + term if new in nxt else term
        if done:
            states = {key - done: coeff for key, coeff in nxt.items()
                      if coeff and done <= key}
        else:
            states = {key: coeff for key, coeff in nxt.items() if coeff}
    return states, laid


def bracket_oracle(d: TangleDiagram) -> CoordinateVector:
    """Independent bracket: enumerate all 2^c smoothing states over a union-find.

    Each state is scored q^(#A - #B) * delta^circles on its boundary class.
    No diagram surgery and no recursion; kept separate from bracket() so the
    two can check each other.
    """
    _check_strand_diagram(d)
    ensure_valid(d)
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
