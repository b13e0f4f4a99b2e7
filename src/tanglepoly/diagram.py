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
from dataclasses import dataclass, field, replace
from typing import Iterator

from .errors import InvalidDiagramError, ParseError

Crossing = tuple[int, int, int, int]
Trivalent = tuple[int, int, int]
Fourvalent = tuple[int, int, int, int]

NONPLANAR_MESSAGE = "nonplanar or inconsistent rotation system"


def _min_rotation(t: tuple, steps: tuple[int, ...]) -> tuple:
    return min(tuple(t[(i + s) % len(t)] for i in range(len(t))) for s in steps)


@dataclass(frozen=True)
class TangleDiagram:
    m: int
    n: int
    crossings: tuple[Crossing, ...] = ()
    trivalent: tuple[Trivalent, ...] = ()
    fourvalent: tuple[Fourvalent, ...] = ()
    circles: tuple[int, ...] = ()
    bottom: tuple[int, ...] = ()
    top: tuple[int, ...] = ()
    thick: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        # Rotating a crossing or 4-valent code by two slots presents the same
        # node (the under-strand convention is slot-pair {0, 2} either way);
        # a trivalent code is free under any rotation.  Store the least one.
        object.__setattr__(self, "crossings", tuple(
            _min_rotation(tuple(t), (0, 2)) for t in self.crossings))
        object.__setattr__(self, "trivalent", tuple(
            _min_rotation(tuple(t), (0, 1, 2)) for t in self.trivalent))
        object.__setattr__(self, "fourvalent", tuple(
            _min_rotation(tuple(t), (0, 2)) for t in self.fourvalent))
        object.__setattr__(self, "circles", tuple(self.circles))
        object.__setattr__(self, "bottom", tuple(self.bottom))
        object.__setattr__(self, "top", tuple(self.top))
        object.__setattr__(self, "thick", frozenset(self.thick))

    def node_lines(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        for t in self.crossings:
            yield "X", t
        for t in self.trivalent:
            yield "V", t
        for t in self.fourvalent:
            yield "F", t


def all_labels(d: TangleDiagram) -> set[int]:
    out: set[int] = set(d.circles)
    for _, t in d.node_lines():
        out.update(t)
    out.update(d.bottom)
    out.update(d.top)
    return out


def max_label(d: TangleDiagram) -> int:
    labels = all_labels(d)
    return max(labels) if labels else 0


def edge_occurrences(d: TangleDiagram) -> dict[int, list[tuple[str, int, int]]]:
    """Map each label to its occurrence slots (kind, node index, slot index).

    Kinds are "X", "V", "F" for node slots and "bot"/"top" for boundary
    entries (slot = position index).  Circle labels do not appear.
    """
    occ: dict[int, list[tuple[str, int, int]]] = {}
    for i, t in enumerate(d.crossings):
        for s, lab in enumerate(t):
            occ.setdefault(lab, []).append(("X", i, s))
    for i, t in enumerate(d.trivalent):
        for s, lab in enumerate(t):
            occ.setdefault(lab, []).append(("V", i, s))
    for i, t in enumerate(d.fourvalent):
        for s, lab in enumerate(t):
            occ.setdefault(lab, []).append(("F", i, s))
    for p, lab in enumerate(d.bottom):
        occ.setdefault(lab, []).append(("bot", 0, p))
    for p, lab in enumerate(d.top):
        occ.setdefault(lab, []).append(("top", 0, p))
    return occ


def boundary_circular_labels(d: TangleDiagram) -> list[int]:
    """Boundary labels in circular order: bottom left-to-right, top right-to-left."""
    return list(d.bottom) + list(reversed(d.top))


# ---------------------------------------------------------------------------
# structural invariants


def invariant_problems(d: TangleDiagram) -> list[str]:
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
# planarity via rotation-system faces

def _rotation_system(d: TangleDiagram):
    """Darts, ccw-next map, twin map and dart owner vertices of the closed map.

    Boundary points become degree-3 vertices once the frame arcs joining
    consecutive points (in circular order) are added, so a planar code must
    give every connected component V - E + F = 2.
    """
    sigma: list[int] = []   # ccw next dart at the same vertex
    owner: list[int] = []   # vertex id per dart
    twin: dict[int, int] = {}
    by_label: dict[int, list[int]] = {}
    n_vertices = 0

    def new_vertex(labels: list[int | None]) -> list[int]:
        nonlocal n_vertices
        base = len(sigma)
        ids = list(range(base, base + len(labels)))
        for j, lab in enumerate(labels):
            sigma.append(base + (j + 1) % len(labels))
            owner.append(n_vertices)
            if lab is not None:
                by_label.setdefault(lab, []).append(base + j)
        n_vertices += 1
        return ids

    for _, t in d.node_lines():
        new_vertex(list(t))

    N = d.m + d.n
    if N:
        ring = boundary_circular_labels(d)
        # per point: (frame to next, tangle edge, frame to previous)
        point_darts = [new_vertex([None, ring[p], None]) for p in range(N)]
        for p in range(N):
            twin_a = point_darts[p][0]
            twin_b = point_darts[(p + 1) % N][2]
            twin[twin_a] = twin_b
            twin[twin_b] = twin_a

    for lab, darts in by_label.items():
        if len(darts) != 2:
            raise InvalidDiagramError(f"label {lab} occurs {len(darts)} time(s), expected 2")
        twin[darts[0]] = darts[1]
        twin[darts[1]] = darts[0]

    return sigma, twin, owner, n_vertices


def planarity_problems(d: TangleDiagram) -> list[str]:
    try:
        sigma, twin, owner, n_vertices = _rotation_system(d)
    except InvalidDiagramError as exc:
        return [str(exc)]
    n_darts = len(sigma)
    if not n_darts:
        return []

    # faces: orbits of dart -> sigma(twin(dart))
    face_of = [-1] * n_darts
    n_faces = 0
    for start in range(n_darts):
        if face_of[start] >= 0:
            continue
        dart = start
        while face_of[dart] < 0:
            face_of[dart] = n_faces
            dart = sigma[twin[dart]]
        n_faces += 1

    from .unionfind import UnionFind
    comp = UnionFind(range(n_darts))
    for dart in range(n_darts):
        comp.union(dart, twin[dart])
        comp.union(dart, sigma[dart])

    verts: dict[int, set[int]] = {}
    edges: dict[int, int] = {}
    faces: dict[int, set[int]] = {}
    for dart in range(n_darts):
        root = comp.find(dart)
        verts.setdefault(root, set()).add(owner[dart])
        edges[root] = edges.get(root, 0) + 1
        faces.setdefault(root, set()).add(face_of[dart])

    problems = []
    for root in verts:
        euler = len(verts[root]) - edges[root] // 2 + len(faces[root])
        if euler != 2:
            problems.append(NONPLANAR_MESSAGE)
            break
    return problems


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def validate(d: TangleDiagram) -> ValidationReport:
    """Full structural and planarity check; never raises on bad diagrams."""
    problems = invariant_problems(d)
    if not problems:
        problems = planarity_problems(d)
    return ValidationReport(not problems, tuple(problems))


def ensure_valid(d: TangleDiagram) -> TangleDiagram:
    report = validate(d)
    if not report.ok:
        raise InvalidDiagramError("; ".join(report.problems))
    return d


# ---------------------------------------------------------------------------
# .tng text format

_HEADER_RE = re.compile(r"^tangle\s+m=(\d+)\s+n=(\d+)$")


def _parse_label(tok: str, lineno: int) -> int:
    # str.isdigit also accepts digits such as '²' that int() rejects
    if not (tok.isascii() and tok.isdigit()) or int(tok) <= 0:
        raise ParseError(lineno, f"expected a positive integer label, got {tok!r}")
    return int(tok)


def parse_tng(text: str) -> TangleDiagram:
    """Parse .tng text; raises ParseError on syntax, InvalidDiagramError on invariants."""
    header: tuple[int, int] | None = None
    crossings: list[Crossing] = []
    trivalent: list[Trivalent] = []
    fourvalent: list[Fourvalent] = []
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
            header = (int(match.group(1)), int(match.group(2)))
        elif tag == "X":
            if len(tokens) != 5:
                raise ParseError(lineno, "X line needs exactly 4 labels")
            crossings.append(tuple(_parse_label(t, lineno) for t in tokens[1:]))  # type: ignore[arg-type]
        elif tag == "V":
            if len(tokens) != 4:
                raise ParseError(lineno, "V line needs exactly 3 labels")
            trivalent.append(tuple(_parse_label(t, lineno) for t in tokens[1:]))  # type: ignore[arg-type]
        elif tag == "F":
            if len(tokens) != 5:
                raise ParseError(lineno, "F line needs exactly 4 labels")
            fourvalent.append(tuple(_parse_label(t, lineno) for t in tokens[1:]))  # type: ignore[arg-type]
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
        crossings=tuple(crossings), trivalent=tuple(trivalent),
        fourvalent=tuple(fourvalent), circles=tuple(circles),
        bottom=tuple(boundary[0]), top=tuple(boundary[1]),
        thick=frozenset(thick),
    )
    return ensure_invariants(d)


def serialize_tng(d: TangleDiagram) -> str:
    lines = [f"tangle m={d.m} n={d.n}"]
    for t in d.crossings:
        lines.append("X " + " ".join(map(str, t)))
    for t in d.trivalent:
        lines.append("V " + " ".join(map(str, t)))
    for t in d.fourvalent:
        lines.append("F " + " ".join(map(str, t)))
    for lab in d.circles:
        lines.append(f"O {lab}")
    lines.append("B " + " ".join(map(str, d.bottom)) + " | " + " ".join(map(str, d.top)))
    if d.thick:
        lines.append("T " + " ".join(map(str, sorted(d.thick))))
    return "\n".join(" ".join(line.split()) for line in lines) + "\n"


def load_tng(path) -> TangleDiagram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tng(fh.read())


def map_faces(d: TangleDiagram) -> tuple[frozenset[int], ...]:
    """Edge-label sets of the faces of the boundary-closed rotation system."""
    sigma, twin, _, _ = _rotation_system(d)
    labels = _dart_labels(d, len(sigma))
    faces: list[frozenset[int]] = []
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        face: set[int] = set()
        dart = start
        while not seen[dart]:
            seen[dart] = True
            if labels[dart] is not None:
                face.add(labels[dart])
            dart = sigma[twin[dart]]
        faces.append(frozenset(face))
    return tuple(faces)


def _dart_labels(d: TangleDiagram, n_darts: int) -> list[int | None]:
    labels: list[int | None] = []
    for _, t in d.node_lines():
        labels.extend(t)
    for lab in boundary_circular_labels(d):
        labels.extend((None, lab, None))
    assert len(labels) == n_darts
    return labels


# ---------------------------------------------------------------------------
# diagram operations


def relabeled(d: TangleDiagram, mapping: dict[int, int]) -> TangleDiagram:
    def ren(t):
        return tuple(mapping.get(x, x) for x in t)

    return replace(
        d,
        crossings=tuple(ren(t) for t in d.crossings),
        trivalent=tuple(ren(t) for t in d.trivalent),
        fourvalent=tuple(ren(t) for t in d.fourvalent),
        circles=ren(d.circles),
        bottom=ren(d.bottom),
        top=ren(d.top),
        thick=frozenset(mapping.get(x, x) for x in d.thick),
    )


def relabel_occurrence(d: TangleDiagram, kind: str, idx: int, slot: int,
                       new_label: int) -> TangleDiagram:
    """Rename a single edge end, identified by its occurrence coordinates."""
    def patched(tuples, i):
        out = list(tuples)
        t = list(out[i])
        t[slot] = new_label
        out[i] = tuple(t)
        return tuple(out)

    if kind == "X":
        return replace(d, crossings=patched(d.crossings, idx))
    if kind == "V":
        return replace(d, trivalent=patched(d.trivalent, idx))
    if kind == "F":
        return replace(d, fourvalent=patched(d.fourvalent, idx))
    if kind == "bot":
        t = list(d.bottom)
        t[slot] = new_label
        return replace(d, bottom=tuple(t))
    if kind == "top":
        t = list(d.top)
        t[slot] = new_label
        return replace(d, top=tuple(t))
    raise ValueError(f"unknown occurrence kind {kind!r}")


def merge_edges(d: TangleDiagram, joins) -> TangleDiagram:
    """Connect edge ends pairwise; joining an edge to itself closes a circle.

    Each (x, y) join substitutes one surviving label for the other across
    the whole diagram; a join whose two sides have already become the same
    edge adds a fresh circle component instead.
    """
    sub: dict[int, int] = {}

    def canon(x: int) -> int:
        while x in sub:
            x = sub[x]
        return x

    circles = list(d.circles)
    # join lists may name edges that occur nowhere else (a cup capped on
    # both ends), so fresh labels must clear those too
    fresh = max((max_label(d),) + tuple(x for j in joins for x in j))
    for x, y in joins:
        x, y = canon(x), canon(y)
        if x == y:
            fresh += 1
            circles.append(fresh)
        else:
            sub[y] = x

    def ren(t):
        return tuple(canon(x) for x in t)

    return replace(
        d,
        crossings=tuple(ren(t) for t in d.crossings),
        trivalent=tuple(ren(t) for t in d.trivalent),
        fourvalent=tuple(ren(t) for t in d.fourvalent),
        circles=tuple(circles),
        bottom=ren(d.bottom), top=ren(d.top),
        thick=frozenset(canon(x) for x in d.thick),
    )


def mirror(d: TangleDiagram) -> TangleDiagram:
    """Swap over- and under-strands at every crossing (reflect through the plane)."""
    flipped = tuple((b, c, dd, a) for (a, b, c, dd) in d.crossings)
    return replace(d, crossings=flipped)


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
    """
    if (d1.m, d1.n) != (d2.m, d2.n):
        return False
    if len(d1.circles) != len(d2.circles):
        return False
    nodes1 = list(d1.node_lines())
    nodes2 = list(d2.node_lines())
    if sorted(k for k, _ in nodes1) != sorted(k for k, _ in nodes2):
        return False

    rot_steps = dict(_ROT_STEPS)
    if free_fourvalent:
        rot_steps["F"] = (0, 1, 2, 3)

    fwd: dict[int, int] = {}
    back: dict[int, int] = {}

    def bind(a: int, b: int, trail: list[int]) -> bool:
        if (a in fwd) != (b in back):
            return False
        if a in fwd:
            return fwd[a] == b
        if (a in d1.thick) != (b in d2.thick):
            return False
        fwd[a] = b
        back[b] = a
        trail.append(a)
        return True

    def unbind(trail: list[int]) -> None:
        for a in trail:
            back.pop(fwd.pop(a))

    for pa, pb in zip(d1.bottom + d1.top, d2.bottom + d2.top):
        if not bind(pa, pb, []):
            return False

    used = [False] * len(nodes2)

    def pick_next(remaining: list[int]) -> int:
        for idx in remaining:
            if any(lab in fwd for lab in nodes1[idx][1]):
                return idx
        return remaining[0]

    def search(remaining: list[int]) -> bool:
        if not remaining:
            return True
        idx = pick_next(remaining)
        kind, t1 = nodes1[idx]
        rest = [i for i in remaining if i != idx]
        for j, (kind2, t2) in enumerate(nodes2):
            if used[j] or kind2 != kind:
                continue
            for step in rot_steps[kind]:
                rotated = tuple(t2[(i + step) % len(t2)] for i in range(len(t2)))
                trail: list[int] = []
                if all(bind(a, b, trail) for a, b in zip(t1, rotated)):
                    used[j] = True
                    if search(rest):
                        return True
                    used[j] = False
                unbind(trail)
        return False

    return search(list(range(len(nodes1))))
