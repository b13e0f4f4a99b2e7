"""Random diagram generators for property tests and benchmarks.

Diagrams are grown bottom-to-top from a list of active strand ends, one
elementary row at a time (cup, cap, crossing, split, merge), so every
output is planar by construction.  Caps are recorded as pending joins and
resolved at the end through the shared label-merging surgery, which also
turns a cap meeting its own cup into a circle.
"""

from __future__ import annotations

import random

from .diagram import TangleDiagram, ensure_valid, map_faces, merge_edges
from .errors import DomainError, InvalidDiagramError
from .moves import SpliceSite, braid_pattern, splice_22

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
