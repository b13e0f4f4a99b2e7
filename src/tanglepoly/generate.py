"""Diagram constructions that no command runs: surgery, isomorphism, the
local rewrites, and random generators for property tests and benchmarks.

The package loads this module on first use of any of its names (see
tanglepoly.__getattr__), so a command-line call never compiles it.

Surgery: relabeling, single-end relabeling, the faces of the
boundary-closed rotation system, mirror, left-right reflection and the
side-by-side tensor.  Isomorphism is label-bijection equivalence with the
boundary matched in order.

Rewrites that are always locally applicable are programmatic: kink
insertion (R1), splicing a (2,2) pattern across two coboundary edges
(carries R2 composites and the 3-move), and the IH exchange on a thick
edge.  The remaining moves ship as curated diagram pairs (see moves).

Random diagrams are grown bottom-to-top from a list of active strand ends,
one elementary row at a time (cup, cap, crossing, split, merge), so every
output is planar by construction.  Caps are recorded as pending joins and
resolved at the end through the shared label-merging surgery, which also
turns a cap meeting its own cup into a circle.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .diagram import (TangleDiagram, _faces, _renamed, _rotation_system,
                      all_labels, edge_occurrences, ensure_valid, max_label,
                      merge_edges, replace)
from .enhanced import _contracted_vertex
from .errors import DomainError, InvalidDiagramError

# ---------------------------------------------------------------------------
# surgery


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

    Before any seed is tried, both diagrams' labels are compared by type:
    the sorted types of a label's two ends, each its node kind (or
    boundary side) and, where every allowed rotation keeps it, its slot
    parity, plus the label's thick flag.  An isomorphism keeps every
    label's type, so unequal multisets answer False in n log n.  Equal
    multisets can still cost a seed search per component, which is
    quadratic when it fails late.
    """
    ensure_valid(d1)
    ensure_valid(d2)
    if (d1.m, d1.n, len(d1.circles)) != (d2.m, d2.n, len(d2.circles)):
        return False
    rot_steps = dict(_ROT_STEPS)
    if free_fourvalent:
        rot_steps["F"] = (0, 1, 2, 3)

    # half turns keep a slot's parity: always at X, at F unless free
    parity = {"X"} if free_fourvalent else {"X", "F"}

    def label_types(d: TangleDiagram) -> list:
        return sorted((tuple(sorted((kind, s % 2 if kind in parity else 0)
                                    for kind, _, s in ends)),
                       lab in d.thick)
                      for lab, ends in edge_occurrences(d).items())

    if label_types(d1) != label_types(d2):
        return False
    nodes1 = list(d1.node_lines())
    nodes2 = list(d2.node_lines())
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


# ---------------------------------------------------------------------------
# local rewrites


def braid_pattern(*signs: int) -> TangleDiagram:
    """(2,2) braid with one crossing per sign; no signs gives the identity."""
    x, y = 1, 2
    nxt = 3
    crossings = []
    for s in signs:
        u, v = nxt, nxt + 1
        nxt += 2
        crossings.append((y, v, u, x) if s > 0 else (x, y, v, u))
        x, y = u, v
    return TangleDiagram(m=2, n=2, crossings=tuple(crossings),
                         bottom=(1, 2), top=(x, y))


def insert_kink(d: TangleDiagram, edge: int, sign: int = 1) -> TangleDiagram:
    """Subdivide an edge (or circle) with a single positive or negative kink."""
    if edge in d.thick:
        raise DomainError(f"edge {edge} is thick and cannot be kinked")
    z = max_label(d) + 1
    if edge in d.circles:
        crossing = (z, z, edge, edge) if sign > 0 else (edge, z, z, edge)
        return replace(d, circles=tuple(x for x in d.circles if x != edge),
                       crossings=d.crossings + (crossing,))
    occ = edge_occurrences(d)
    if edge not in occ:
        raise DomainError(f"edge {edge} not in diagram")
    w = z + 1
    cut = relabel_occurrence(d, *occ[edge][0], w)
    crossing = (z, z, w, edge) if sign > 0 else (edge, z, z, w)
    return replace(cut, crossings=cut.crossings + (crossing,))


class SpliceSite(NamedTuple):
    """Two cut points: an edge plus which of its occurrences keeps the label."""
    edge_a: int
    end_a: int
    edge_b: int
    end_b: int


def splice_22(d: TangleDiagram, site: SpliceSite,
              pattern: TangleDiagram) -> TangleDiagram:
    """Glue a (2,2) pattern across two cut edges of the diagram.

    The kept end of edge_a meets the pattern's first bottom point, the kept
    end of edge_b the second; the detached ends meet the pattern's top
    points in the same order.  Splicing the identity pattern reproduces the
    diagram up to relabeling.
    """
    if pattern.m != 2 or pattern.n != 2:
        raise DomainError("splice pattern must be a (2,2) diagram")
    if pattern.trivalent or pattern.fourvalent or pattern.thick:
        raise DomainError("splice pattern must be a strand diagram")
    if site.edge_a == site.edge_b:
        raise DomainError("splice site edges must be distinct")
    for edge in (site.edge_a, site.edge_b):
        if edge in d.circles:
            raise DomainError(f"edge {edge} is a circle; cut it with a kink first")
        if edge in d.thick:
            raise DomainError(f"edge {edge} is thick and cannot be spliced")
    occ = edge_occurrences(d)
    for edge in (site.edge_a, site.edge_b):
        if edge not in occ:
            raise DomainError(f"edge {edge} not in diagram")
    if site.end_a not in (0, 1) or site.end_b not in (0, 1):
        raise DomainError("occurrence ends must be 0 or 1")
    if not any(site.edge_a in face and site.edge_b in face
               for face in map_faces(d)):
        raise DomainError("splice site edges do not cobound a face")

    base = max_label(d)
    a2, b2 = base + 1, base + 2
    cut = relabel_occurrence(d, *occ[site.edge_a][1 - site.end_a], a2)
    cut = relabel_occurrence(cut, *edge_occurrences(cut)[site.edge_b][1 - site.end_b], b2)
    pat = relabeled(pattern, {lab: lab + base + 2 for lab in all_labels(pattern)})

    assembled = replace(cut, crossings=cut.crossings + pat.crossings,
                        circles=cut.circles + pat.circles)
    joins = (
        (site.edge_a, pat.bottom[0]), (site.edge_b, pat.bottom[1]),
        (a2, pat.top[0]), (b2, pat.top[1]),
    )
    out = merge_edges(assembled, joins)
    ensure_valid(out)
    return out


def ih_rewrite(d: TangleDiagram, edge: int) -> TangleDiagram:
    """Exchange the H- and I-shaped neighborhoods of a thick edge.

    With endpoint rotations (e,a,b) and (e,c,d), the rewritten vertices are
    (e,b,c) and (e,d,a); the edge stays thick.  Contracting before and
    after gives the same 4-valent code up to rotation and relabeling, and
    the per-enhancement invariant is unchanged term for term.
    """
    if edge not in d.thick:
        raise DomainError(f"edge {edge} is not thick")
    (_, ui, _), (_, vi, _) = edge_occurrences(d)[edge]
    a, b, c, dd = _contracted_vertex(d, edge)
    new_tri = list(d.trivalent)
    new_tri[ui] = (edge, b, c)
    new_tri[vi] = (edge, dd, a)
    return replace(d, trivalent=tuple(new_tri))


# ---------------------------------------------------------------------------
# random diagrams

MAX_ACTIVE = 5
# random face and edge picks random_splice_site tries before giving up
SPLICE_ATTEMPTS = 20


class _MorseBuilder:
    def __init__(self, m: int):
        self.bottom = tuple(range(1, m + 1))
        self.active = list(self.bottom)
        self.next_label = m + 1
        self.crossings: list[tuple[int, int, int, int]] = []
        self.trivalent: list[tuple[int, int, int]] = []
        self.joins: list[tuple[int, int]] = []

    def fresh(self) -> int:
        label = self.next_label
        self.next_label += 1
        return label

    def cup(self, i: int) -> None:
        w = self.fresh()
        self.active[i:i] = [w, w]

    def cap(self, i: int) -> None:
        x = self.active.pop(i)
        y = self.active.pop(i)
        self.joins.append((x, y))

    def cross(self, i: int, sign: int) -> None:
        x, y = self.active[i], self.active[i + 1]
        u, v = self.fresh(), self.fresh()
        self.crossings.append((y, v, u, x) if sign > 0 else (x, y, v, u))
        self.active[i], self.active[i + 1] = u, v

    def split(self, i: int) -> None:
        x = self.active[i]
        u, v = self.fresh(), self.fresh()
        self.trivalent.append((x, v, u))
        self.active[i:i + 1] = [u, v]

    def merge(self, i: int) -> None:
        x, y = self.active[i], self.active[i + 1]
        u = self.fresh()
        self.trivalent.append((u, x, y))
        self.active[i:i + 2] = [u]

    def finish(self) -> TangleDiagram:
        d = TangleDiagram(m=len(self.bottom), n=len(self.active),
                          crossings=tuple(self.crossings),
                          trivalent=tuple(self.trivalent),
                          bottom=self.bottom, top=tuple(self.active))
        if self.joins:
            d = merge_edges(d, self.joins)
        ensure_valid(d)
        return d


def random_tangle(rng: random.Random, max_crossings: int = 5) -> TangleDiagram:
    """Random strand diagram with at most max_crossings crossings.

    The boundary stays small enough for the flat basis and pairing matrix
    to be cheap: (m + n) / 2 never exceeds (MAX_ACTIVE + 3) / 2 rounded up.
    """
    b = _MorseBuilder(rng.randint(0, 3))
    crossings_left = rng.randint(0, max_crossings)
    for _ in range(rng.randint(0, 12)):
        ops = []
        if len(b.active) + 2 <= MAX_ACTIVE:
            ops.append("cup")
        if len(b.active) >= 2:
            ops.append("cap")
            if crossings_left > 0:
                ops += ["cross", "cross"]
        if not ops:
            ops = ["cup"]
        op = rng.choice(ops)
        if op == "cup":
            b.cup(rng.randint(0, len(b.active)))
        elif op == "cap":
            b.cap(rng.randint(0, len(b.active) - 2))
        else:
            b.cross(rng.randint(0, len(b.active) - 2), rng.choice((1, -1)))
            crossings_left -= 1
    return b.finish()


def random_trivalent(rng: random.Random, max_vertices: int = 8) -> TangleDiagram:
    """Random closed crossing-free graph diagram with at most max_vertices
    trivalent vertices; may contain circles, never crossings."""
    b = _MorseBuilder(0)
    vertices_left = max(max_vertices - 1, 1)
    for _ in range(rng.randint(1, 10)):
        ops = []
        if len(b.active) + 2 <= MAX_ACTIVE + 2:
            ops.append("cup")
        if len(b.active) >= 1 and vertices_left > 0:
            ops.append("split")
        if len(b.active) >= 2:
            ops.append("cap")
            if vertices_left > 0:
                ops.append("merge")
        if not ops:
            ops = ["cup"]
        op = rng.choice(ops)
        if op == "cup":
            b.cup(rng.randint(0, len(b.active)))
        elif op == "split":
            b.split(rng.randint(0, len(b.active) - 1))
            vertices_left -= 1
        elif op == "merge":
            b.merge(rng.randint(0, len(b.active) - 2))
            vertices_left -= 1
        else:
            b.cap(rng.randint(0, len(b.active) - 2))
    if len(b.active) % 2 == 1:
        if len(b.active) >= 2:
            b.merge(rng.randint(0, len(b.active) - 2))
        else:
            b.split(0)
    while b.active:
        b.cap(rng.randint(0, len(b.active) - 2))
    return b.finish()


def random_splice_site(rng: random.Random,
                       d: TangleDiagram) -> SpliceSite | None:
    """A splice site in d for which the identity-pattern splice is planar,
    or None when no face offers one."""
    candidates = []
    for face in map_faces(d):
        edges = sorted(x for x in face if x not in d.circles and x not in d.thick)
        if len(edges) >= 2:
            candidates.append(edges)
    if not candidates:
        return None
    # The identity pattern only re-joins the cut ends, so it is planar at any
    # end choice; a single crossing actually occupies the band and filters
    # side-incompatible end pairs.
    probe = braid_pattern(1)
    for _ in range(SPLICE_ATTEMPTS):
        edges = rng.choice(candidates)
        a, bb = rng.sample(edges, 2)
        for end_a, end_b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            site = SpliceSite(a, end_a, bb, end_b)
            try:
                splice_22(d, site, probe)
            except (DomainError, InvalidDiagramError):
                continue
            return site
    return None
