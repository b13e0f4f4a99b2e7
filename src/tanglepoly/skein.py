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
"""

from __future__ import annotations

from functools import lru_cache

from .diagram import TangleDiagram, _Record, ensure_valid
# bench/tracing.py patches skein.merge_edges by attribute
from .diagram import merge_edges  # noqa: F401
from .errors import DomainError, InvalidDiagramError
from .laurent import LaurentPoly, Q, ZERO, delta_power
from .unionfind import UnionFind

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
    _FIELDS = ("m", "n", "elements")
    __slots__ = _FIELDS + ("_index",)

    def __init__(self, m: int, n: int, elements: tuple[Matching, ...]):
        super().__init__(m, n, elements,
                         {mt: i for i, mt in enumerate(elements)})

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, matching: Matching) -> int:
        try:
            return self._index[matching]
        except KeyError:
            raise DomainError(f"matching {format_matching(matching)} not in "
                              f"the ({self.m},{self.n}) basis") from None


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

    def __getitem__(self, i: int) -> LaurentPoly:
        return self.coords[i]

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


def _absorption_order(nodes, open_labels: set[int]):
    """Smoothings of the nodes in contraction order: most labels already
    open first, ties by list order.  open_labels holds the labels open
    before any node."""
    open_labels = set(open_labels)
    holders: dict[int, list[int]] = {}
    for i, (labels, _) in enumerate(nodes):
        for lab in labels:
            holders.setdefault(lab, []).append(i)
    score = [sum(lab in open_labels for lab in labels) for labels, _ in nodes]
    remaining = dict.fromkeys(range(len(nodes)))
    while remaining:
        # max keeps the first of equal scores, and remaining is in list order
        i = max(remaining, key=score.__getitem__)
        del remaining[i]
        labels, smoothings = nodes[i]
        for lab in labels:
            if lab in open_labels:
                open_labels.discard(lab)
            else:
                open_labels.add(lab)
                for j in holders[lab]:
                    score[j] += 1
        yield smoothings


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
    acc = {tuple(sorted((-u, -v) for u, v in key if u > v)): coeff
           for key, coeff in _frontier_states(d).items()}
    return CoordinateVector(basis, tuple(acc.get(mt, ZERO) for mt in basis.elements))


def _frontier_states(d: TangleDiagram, joins=(), nodes=()) -> dict[frozenset, LaurentPoly]:
    """The final state table of the frontier contraction, zeros dropped.

    joins lists extra arcs (x, y), each connecting an end of edge x to an
    end of edge y, laid before any node is absorbed.  The nodes absorbed
    are d's crossings followed by the given nodes, each a pair (labels,
    smoothings): every smoothing is (arcs, weights), and weights[k] is its
    weight when its arcs close k loops.  The vertices of d are not read.

    Keys are frozensets of (end, partner) items over the boundary ends.  A
    diagram with no boundary, such as a closure whose caps are laid as
    joins, leaves at most the one key frozenset().  The weights of one
    state's smoothings are summed per landing key first, so a state pays
    one multiplication per distinct key it reaches, not per smoothing.
    """
    # boundary ends are named by their negated circular position, so they
    # never collide with the positive edge labels
    ends: dict[int, int] = {}
    for side, labels in (("bot", d.bottom), ("top", d.top)):
        for i, lab in enumerate(labels):
            _join(ends, -circular_position(d.m, d.n, side, i), lab)
    loops = sum(_join(ends, x, y) for x, y in joins)
    states = {frozenset(ends.items()): delta_power(len(d.circles) + loops)}
    all_nodes = [_crossing_node(t) for t in d.crossings] + list(nodes)
    for smoothings in _absorption_order(all_nodes, {x for x in ends if x > 0}):
        nxt: dict[frozenset, LaurentPoly] = {}
        for key, coeff in states.items():
            landed: dict[frozenset, LaurentPoly] = {}
            for arcs, weights in smoothings:
                cur = dict(key)
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
        states = {key: coeff for key, coeff in nxt.items() if coeff}
    return states


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
        uf = UnionFind()
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
                if not uf.union(x, y):
                    circles += 1
        by_root: dict[int, list[int]] = {}
        for pos, lab in boundary:
            by_root.setdefault(uf.find(lab), []).append(pos)
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
