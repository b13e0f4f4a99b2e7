"""Planar diagram codes for tangles and graph tangles, with .tng text I/O.

A diagram in the strip is recorded as a combinatorial map.  Every node lists
the labels of its incident edge ends in counterclockwise order:

    X a b c d   crossing; the strand through slots a and c passes under
    V a b c     trivalent vertex
    F a b c d   4-valent (contracted) vertex
    O a         crossing-free circle component

Boundary points are listed left to right, bottom then top:

    B b1 ... bm | t1 ... tn

Walking counterclockwise around the strip the boundary points appear as
bottom left-to-right followed by top right-to-left; several operations rely
on that circular order.  An optional line

    T e1 e2 ...

marks thick edges.  Labels are positive integers; each non-circle label
occurs exactly twice across node slots and boundary entries, and each circle
label occurs exactly once, on its O line.  '#' starts a comment.

Planarity is not implied by the code.  validate() closes the boundary with a
frame of arcs joining consecutive boundary points, traverses the faces of
the resulting rotation system, and requires every connected component to
have the Euler characteristic of a sphere.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterator, NamedTuple

from .errors import InvalidDiagramError, ParseError

NONPLANAR_MESSAGE = "nonplanar or inconsistent rotation system"


def _min_rotation(t: tuple, steps: tuple[int, ...]) -> tuple:
    return min(t[s:] + t[:s] for s in steps)


class _Record:
    """Immutable value, compared, hashed and shown by the fields in _FIELDS."""

    __slots__ = _FIELDS = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._FIELDS, self._key()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, so cached slots start empty
        return self.__class__, self._key()


class TangleDiagram(_Record):
    _FIELDS = ("m", "n", "crossings", "trivalent", "fourvalent", "circles",
               "bottom", "top", "thick")
    # _occurrences caches edge_occurrences(self) and _report validate(self),
    # each built on first use
    __slots__ = _FIELDS + ("_occurrences", "_report")

    def __init__(self, m: int, n: int, crossings=(), trivalent=(),
                 fourvalent=(), circles=(), bottom=(), top=(),
                 thick=frozenset()):
        # Rotating a crossing or 4-valent code by two slots presents the same
        # node (the under-strand convention is slot-pair {0, 2} either way);
        # a trivalent code is free under any rotation.  Store the least one.
        super().__init__(
            m, n, tuple(_min_rotation(tuple(t), (0, 2)) for t in crossings),
            tuple(_min_rotation(tuple(t), (0, 1, 2)) for t in trivalent),
            tuple(_min_rotation(tuple(t), (0, 2)) for t in fourvalent),
            tuple(circles), tuple(bottom), tuple(top), frozenset(thick), None,
            None)

    def node_lines(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        for t in self.crossings:
            yield "X", t
        for t in self.trivalent:
            yield "V", t
        for t in self.fourvalent:
            yield "F", t


def replace(d: TangleDiagram, **changes) -> TangleDiagram:
    """d with the given fields changed, normalised like the constructor."""
    return TangleDiagram(**dict(zip(d._FIELDS, d._key()), **changes))


def all_labels(d: TangleDiagram) -> set[int]:
    out: set[int] = set(d.circles)
    for _, t in d.node_lines():
        out.update(t)
    out.update(d.bottom)
    out.update(d.top)
    return out


def max_label(d: TangleDiagram) -> int:
    # the index holds every label but the circles'
    return max(chain(edge_occurrences(d), d.circles), default=0)


def edge_occurrences(d: TangleDiagram) -> dict[int, list[tuple[str, int, int]]]:
    """Map each label to its occurrence slots (kind, node index, slot index).

    Kinds are "X", "V", "F" for node slots and "bot"/"top" for boundary
    entries (slot = position index).  Circle labels do not appear.  The
    index is built on the first call and the same dict is returned after,
    so callers must not mutate it.
    """
    occ = d._occurrences
    if occ is not None:
        return occ
    occ = {}
    for kind, nodes in (("X", d.crossings), ("V", d.trivalent), ("F", d.fourvalent)):
        for i, t in enumerate(nodes):
            for s, lab in enumerate(t):
                occ.setdefault(lab, []).append((kind, i, s))
    for kind, points in (("bot", d.bottom), ("top", d.top)):
        for p, lab in enumerate(points):
            occ.setdefault(lab, []).append((kind, 0, p))
    object.__setattr__(d, "_occurrences", occ)
    return occ


def boundary_circular_labels(d: TangleDiagram) -> list[int]:
    """Boundary labels in circular order: bottom left-to-right, top right-to-left."""
    return list(d.bottom) + list(reversed(d.top))


# ---------------------------------------------------------------------------
# structural invariants


def invariant_problems(d: TangleDiagram) -> list[str]:
    """Label, boundary and thick-edge problems, in a fixed order."""
    problems: list[str] = []
    if (d.m + d.n) % 2:
        problems.append(f"boundary size m+n = {d.m + d.n} is odd")
    if len(d.bottom) != d.m:
        problems.append(f"header says m={d.m} but B lists {len(d.bottom)} bottom points")
    if len(d.top) != d.n:
        problems.append(f"header says n={d.n} but B lists {len(d.top)} top points")

    occ = edge_occurrences(d)
    circle_set = set(d.circles)
    if len(circle_set) != len(d.circles):
        problems.append("a circle label is repeated")
    for lab in sorted(circle_set):
        if lab in occ:
            problems.append(f"label {lab} is a circle but also occurs at a node or boundary")
    for lab in sorted(occ):
        if lab <= 0:
            problems.append(f"label {lab} is not a positive integer")
        k = len(occ[lab])
        if k != 2:
            problems.append(f"label {lab} occurs {k} time(s), expected 2")

    for lab in sorted(d.thick):
        if lab in circle_set:
            problems.append(f"thick edge {lab} is a circle")
            continue
        ends = occ.get(lab, [])
        kinds = [e[0] for e in ends]
        if len(ends) != 2 or kinds != ["V", "V"]:
            problems.append(f"thick edge {lab} does not join two trivalent vertices")
        elif ends[0][1] == ends[1][1]:
            problems.append(f"thick edge {lab} is a self-loop at a trivalent vertex")
    return problems


def ensure_invariants(d: TangleDiagram) -> TangleDiagram:
    problems = invariant_problems(d)
    if problems:
        raise InvalidDiagramError("; ".join(problems))
    return d


# ---------------------------------------------------------------------------
# union-find over a dict that maps each non-root item to its parent


def _root(parent: dict, x):
    """The root of x's class, halving the path to it."""
    while x in parent:
        up = parent[x]
        parent[x] = x = parent.get(up, up)
    return x


def _union(parent: dict, x, y) -> bool:
    """Merge the classes of x and y, keeping x's root; False if they were
    one class already."""
    x, y = _root(parent, x), _root(parent, y)
    if x == y:
        return False
    parent[y] = x
    return True


# ---------------------------------------------------------------------------
# planarity via rotation-system faces

def _rotation_system(d: TangleDiagram):
    """Dart lists of the boundary-closed map: (sigma, twin, owner, labels).

    Every node lists its slots as darts in ccw order.  Every boundary point
    becomes a degree-3 vertex (frame arc to the next point in circular
    order, tangle edge, frame arc to the previous point).  Indexed by dart:
    sigma is the ccw next dart at the same vertex, twin the other end of the
    edge, owner the vertex id and labels the edge label (None on the frame).
    Every label of d must occur twice (invariant_problems finds none).
    """
    rings: list[tuple] = [*d.crossings, *d.trivalent, *d.fourvalent]
    points = boundary_circular_labels(d)
    rings += [(None, lab, None) for lab in points]
    labels = [lab for ring in rings for lab in ring]
    owner = [vertex for vertex, ring in enumerate(rings) for _ in ring]
    sigma = list(range(1, len(labels) + 1))
    end = 0
    for ring in rings:
        end += len(ring)
        sigma[end - 1] = end - len(ring)

    twin = [0] * len(labels)
    by_label: dict[int, list[int]] = {}
    for dart, lab in enumerate(labels):
        if lab is not None:
            by_label.setdefault(lab, []).append(dart)
    for a, b in by_label.values():
        twin[a], twin[b] = b, a
    # the frame arc from point p to point p+1 (darts follow the node darts)
    first = len(labels) - 3 * len(points)
    for p in range(len(points)):
        a = first + 3 * p
        b = first + 3 * ((p + 1) % len(points)) + 2
        twin[a], twin[b] = b, a
    return sigma, twin, owner, labels


def _faces(sigma: list[int], twin: list[int]) -> tuple[list[int], int]:
    """Face number per dart and the face count.

    Faces are the orbits of dart -> sigma[twin[dart]], numbered in order of
    their least dart.
    """
    face_of = [-1] * len(sigma)
    n_faces = 0
    for start in range(len(sigma)):
        if face_of[start] < 0:
            dart = start
            while face_of[dart] < 0:
                face_of[dart] = n_faces
                dart = sigma[twin[dart]]
            n_faces += 1
    return face_of, n_faces


def planarity_problems(d: TangleDiagram) -> list[str]:
    """[NONPLANAR_MESSAGE] unless every component of the closed map is a sphere.

    d must have no invariant_problems; validate, its one caller in the
    package, checks those first, since the rotation system pairs the two
    darts of every label.

    A connected map has V - E + F = 2 - 2g with genus g >= 0, so summed
    over C components V - E + F = 2C holds exactly when all are planar.
    """
    sigma, twin, owner, _ = _rotation_system(d)
    _, n_faces = _faces(sigma, twin)
    # owners are numbered in dart order
    n_vertices = owner[-1] + 1 if owner else 0
    parent: dict[int, int] = {}
    n_components = n_vertices
    for dart, other in enumerate(twin):
        if dart < other and _union(parent, owner[dart], owner[other]):
            n_components -= 1
    if n_vertices - len(sigma) // 2 + n_faces != 2 * n_components:
        return [NONPLANAR_MESSAGE]
    return []


class ValidationReport(NamedTuple):
    ok: bool
    problems: tuple[str, ...]


def validate(d: TangleDiagram) -> ValidationReport:
    """Full structural and planarity check; never raises on bad diagrams.

    The check runs on the first call; later calls return the same report.
    """
    report = d._report
    if report is not None:
        return report
    problems = invariant_problems(d)
    if not problems:
        problems = planarity_problems(d)
    report = ValidationReport(not problems, tuple(problems))
    object.__setattr__(d, "_report", report)
    return report


def ensure_valid(d: TangleDiagram) -> TangleDiagram:
    report = validate(d)
    if not report.ok:
        raise InvalidDiagramError("; ".join(report.problems))
    return d


# ---------------------------------------------------------------------------
# .tng text format

_HEADER_RE = re.compile(r"^tangle\s+m=(\d+)\s+n=(\d+)$")
# labels per node line
_NODE_ARITY = {"X": 4, "V": 3, "F": 4}


def _int(tok: str, lineno: int, what: str) -> int:
    # int() refuses more digits than sys.get_int_max_str_digits()
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"{what} {tok[:12]}... is too long: "
                                 f"{len(tok)} digits") from None


def _parse_label(tok: str, lineno: int) -> int:
    # str.isdigit also accepts digits such as '²' that int() rejects
    label = _int(tok, lineno, "label") if tok.isascii() and tok.isdigit() else 0
    if label <= 0:
        raise ParseError(lineno, f"expected a positive integer label, got {tok!r}")
    return label


def parse_tng(text: str) -> TangleDiagram:
    """Parse .tng text; raises ParseError on syntax, InvalidDiagramError on invariants."""
    header: tuple[int, int] | None = None
    nodes: dict[str, list] = {tag: [] for tag in _NODE_ARITY}
    circles: list[int] = []
    boundary: tuple[list[int], list[int]] | None = None
    thick: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag == "tangle":
            if header is not None:
                raise ParseError(lineno, "duplicate header line")
            match = _HEADER_RE.match(line)
            if not match:
                raise ParseError(lineno, "header must be 'tangle m=<int> n=<int>'")
            header = tuple(_int(x, lineno, "header count") for x in match.groups())
            try:
                # validation prints m+n, which may have one digit more than
                # either count
                str(sum(header))
            except ValueError:
                raise ParseError(lineno, "header count sum m+n is too long: "
                                         "more digits than Python prints") from None
        elif tag in _NODE_ARITY:
            arity = _NODE_ARITY[tag]
            if len(tokens) != arity + 1:
                raise ParseError(lineno,
                                 f"{tag} line needs exactly {arity} labels")
            nodes[tag].append(tuple(_parse_label(t, lineno) for t in tokens[1:]))
        elif tag == "O":
            if len(tokens) != 2:
                raise ParseError(lineno, "O line needs exactly 1 label")
            circles.append(_parse_label(tokens[1], lineno))
        elif tag == "B":
            if boundary is not None:
                raise ParseError(lineno, "duplicate B line")
            rest = tokens[1:]
            if rest.count("|") != 1:
                raise ParseError(lineno, "B line needs exactly one '|' separator")
            bar = rest.index("|")
            bottom = [_parse_label(t, lineno) for t in rest[:bar]]
            top = [_parse_label(t, lineno) for t in rest[bar + 1:]]
            boundary = (bottom, top)
        elif tag == "T":
            for t in tokens[1:]:
                thick.add(_parse_label(t, lineno))
        else:
            raise ParseError(lineno, f"unknown line tag {tag!r}")

    if header is None:
        raise ParseError(1, "missing 'tangle m=... n=...' header")
    if boundary is None:
        raise ParseError(1, "missing B line")

    d = TangleDiagram(
        m=header[0], n=header[1],
        crossings=tuple(nodes["X"]), trivalent=tuple(nodes["V"]),
        fourvalent=tuple(nodes["F"]), circles=tuple(circles),
        bottom=tuple(boundary[0]), top=tuple(boundary[1]),
        thick=frozenset(thick),
    )
    return ensure_invariants(d)


def serialize_tng(d: TangleDiagram) -> str:
    lines = [f"tangle m={d.m} n={d.n}"]
    lines += [f"{tag} " + " ".join(map(str, t)) for tag, t in d.node_lines()]
    for lab in d.circles:
        lines.append(f"O {lab}")
    lines.append("B " + " ".join(map(str, d.bottom)) + " | " + " ".join(map(str, d.top)))
    if d.thick:
        lines.append("T " + " ".join(map(str, sorted(d.thick))))
    return "\n".join(" ".join(line.split()) for line in lines) + "\n"


def read_text(path) -> str:
    """The UTF-8 text of a file; a file that cannot be read is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(0, f"cannot read {path}: {reason}") from exc


def load_tng(path) -> TangleDiagram:
    """The valid diagram a .tng file holds: ParseError for a file that cannot
    be read or parsed, InvalidDiagramError for one that validate refuses.
    Every command reads its files here, so each file is judged valid or
    not before any domain check sees it."""
    return ensure_valid(parse_tng(read_text(path)))


def map_faces(d: TangleDiagram) -> tuple[frozenset[int], ...]:
    """Edge-label sets of the faces of the boundary-closed rotation system;
    an invalid d raises InvalidDiagramError."""
    ensure_valid(d)
    sigma, twin, _, labels = _rotation_system(d)
    face_of, n_faces = _faces(sigma, twin)
    faces: list[set[int]] = [set() for _ in range(n_faces)]
    for face, lab in zip(face_of, labels):
        if lab is not None:
            faces[face].add(lab)
    return tuple(map(frozenset, faces))


# ---------------------------------------------------------------------------
# diagram operations


def _renamed(d: TangleDiagram, rename, circles: tuple[int, ...]) -> TangleDiagram:
    """d with rename applied to every node, boundary and thick label, and the
    given circles in place of its own."""
    def ren(t):
        return tuple(map(rename, t))

    return replace(
        d,
        crossings=tuple(map(ren, d.crossings)),
        trivalent=tuple(map(ren, d.trivalent)),
        fourvalent=tuple(map(ren, d.fourvalent)),
        circles=circles,
        bottom=ren(d.bottom), top=ren(d.top),
        thick=frozenset(map(rename, d.thick)),
    )


def relabeled(d: TangleDiagram, mapping: dict[int, int]) -> TangleDiagram:
    def rename(x: int) -> int:
        return mapping.get(x, x)

    return _renamed(d, rename, tuple(map(rename, d.circles)))


_OCCURRENCE_FIELDS = {"X": "crossings", "V": "trivalent", "F": "fourvalent",
                      "bot": "bottom", "top": "top"}


def relabel_occurrence(d: TangleDiagram, kind: str, idx: int, slot: int,
                       new_label: int) -> TangleDiagram:
    """Rename a single edge end, identified by its occurrence coordinates."""
    def patched(t: tuple, i: int, value) -> tuple:
        return t[:i] + (value,) + t[i + 1:]

    if kind not in _OCCURRENCE_FIELDS:
        raise ValueError(f"unknown occurrence kind {kind!r}")
    name = _OCCURRENCE_FIELDS[kind]
    seq = getattr(d, name)
    if kind in ("bot", "top"):
        return replace(d, **{name: patched(seq, slot, new_label)})
    return replace(d, **{name: patched(seq, idx, patched(seq[idx], slot, new_label))})


def merge_edges(d: TangleDiagram, joins) -> TangleDiagram:
    """Connect edge ends pairwise; joining an edge to itself closes a circle.

    Each (x, y) join substitutes one surviving label for the other across
    the whole diagram; a join whose two sides have already become the same
    edge adds a fresh circle component instead.
    """
    parent: dict[int, int] = {}
    circles = list(d.circles)
    # join lists may name edges that occur nowhere else (a cup capped on
    # both ends), so fresh labels must clear those too
    fresh = max((max_label(d),) + tuple(x for j in joins for x in j))
    for x, y in joins:
        if not _union(parent, x, y):
            fresh += 1
            circles.append(fresh)
    return _renamed(d, lambda x: _root(parent, x), tuple(circles))


def mirror(d: TangleDiagram) -> TangleDiagram:
    """Swap over- and under-strands at every crossing (reflect through the plane)."""
    flipped = tuple((b, c, dd, a) for (a, b, c, dd) in d.crossings)
    return replace(d, crossings=flipped)


def reflect(d: TangleDiagram) -> TangleDiagram:
    """Reflect the strip left to right.

    Boundary points reverse on both sides, and every node's ccw order
    reverses: a crossing (a,b,c,d) becomes (a,d,c,b), keeping its
    under-pair (a,c) while its A and B smoothings trade places.
    """
    def reverse(t):
        return (t[0],) + t[:0:-1]

    return replace(
        d,
        crossings=tuple(map(reverse, d.crossings)),
        trivalent=tuple(map(reverse, d.trivalent)),
        fourvalent=tuple(map(reverse, d.fourvalent)),
        bottom=d.bottom[::-1], top=d.top[::-1],
    )


def tensor(d1: TangleDiagram, d2: TangleDiagram) -> TangleDiagram:
    """Place d2 to the right of d1; d2 is relabeled above d1's labels."""
    offset = max_label(d1)
    d2r = relabeled(d2, {lab: lab + offset for lab in all_labels(d2)})
    return TangleDiagram(
        m=d1.m + d2.m, n=d1.n + d2.n,
        crossings=d1.crossings + d2r.crossings,
        trivalent=d1.trivalent + d2r.trivalent,
        fourvalent=d1.fourvalent + d2r.fourvalent,
        circles=d1.circles + d2r.circles,
        bottom=d1.bottom + d2r.bottom,
        top=d1.top + d2r.top,
        thick=d1.thick | d2r.thick,
    )


# ---------------------------------------------------------------------------
# isomorphism up to relabeling (and optionally free 4-valent rotation)

_ROT_STEPS = {"X": (0, 2), "V": (0, 1, 2), "F": (0, 2)}


def is_isomorphic(d1: TangleDiagram, d2: TangleDiagram, *,
                  free_fourvalent: bool = False) -> bool:
    """Label-bijection equivalence with boundary points matched in order.

    Crossing and 4-valent codes may rotate by two slots, trivalent codes by
    any amount; free_fourvalent additionally allows odd rotations of F codes
    (the same embedded vertex with the smoothing convention re-anchored).
    An invalid d1 or d2 raises InvalidDiagramError.

    Every label of a valid diagram has two ends.  So once a label is bound,
    a node holding it has one possible image, the node at the matching end
    of the label's image, and placing it binds the node's other labels.
    The boundary's labels place what they reach that way.  Each node
    component they do not reach is placed from the first seed image that
    places all of it: a component placed from a seed is isomorphic to its
    image, so any other component that could take that image could take
    this one's instead.  Nothing recurses, so no depth grows with d1.
    """
    ensure_valid(d1)
    ensure_valid(d2)
    if (d1.m, d1.n, len(d1.circles)) != (d2.m, d2.n, len(d2.circles)):
        return False
    nodes1 = list(d1.node_lines())
    nodes2 = list(d2.node_lines())
    if sorted(k for k, _ in nodes1) != sorted(k for k, _ in nodes2):
        return False

    rot_steps = dict(_ROT_STEPS)
    if free_fourvalent:
        rot_steps["F"] = (0, 1, 2, 3)
    # the (node, slot) ends of every label
    at1: dict[int, list[tuple[int, int]]] = {}
    at2: dict[int, list[tuple[int, int]]] = {}
    for at, nodes in ((at1, nodes1), (at2, nodes2)):
        for i, (_, t) in enumerate(nodes):
            for s, lab in enumerate(t):
                at.setdefault(lab, []).append((i, s))

    fwd: dict[int, int] = {}
    back: dict[int, int] = {}
    # node of d1 -> node of d2; undo cuts fwd and image back to a length,
    # as dicts keep the order of insertion
    image: dict[int, int] = {}
    used = [False] * len(nodes2)

    def bind(a: int, b: int) -> bool:
        if (a in fwd) != (b in back):
            return False
        if a in fwd:
            return fwd[a] == b
        if (a in d1.thick) != (b in d2.thick):
            return False
        fwd[a], back[b] = b, a
        return True

    def undo(bound: int, placed: int) -> None:
        """Keep only the first bound labels and placed nodes."""
        for a in list(fwd)[bound:]:
            del back[fwd.pop(a)]
        for i in list(image)[placed:]:
            used[image.pop(i)] = False

    def place(i: int, j: int, step: int) -> bool:
        """Map node i of d1 onto node j of d2 rotated by step."""
        (kind, t1), (kind2, t2) = nodes1[i], nodes2[j]
        if used[j] or kind2 != kind or step not in rot_steps[kind]:
            return False
        bound = len(fwd)
        if not all(bind(a, t2[(s + step) % len(t2)]) for s, a in enumerate(t1)):
            undo(bound, len(image))
            return False
        image[i] = j
        used[j] = True
        return True

    def spread(todo: list[int]) -> bool:
        """Place every node reached from the bound labels in todo."""
        while todo:
            a = todo.pop()
            for i, s in at1.get(a, ()):
                if i in image:
                    continue
                t1 = nodes1[i][1]
                if not any(place(i, j, (s2 - s) % len(t1))
                           for j, s2 in at2.get(fwd[a], ())):
                    return False
                todo += t1
        return True

    def seeded(i: int) -> bool:
        """Place node i's component from the first seed image that places
        all of it."""
        bound, placed = len(fwd), len(image)
        for j in range(len(nodes2)):
            for step in rot_steps[nodes1[i][0]]:
                if place(i, j, step) and spread(list(nodes1[i][1])):
                    return True
                undo(bound, placed)
        return False

    points = d1.bottom + d1.top
    return (all(bind(a, b) for a, b in zip(points, d2.bottom + d2.top))
            and spread(list(points))
            and all(i in image or seeded(i) for i in range(len(nodes1))))
