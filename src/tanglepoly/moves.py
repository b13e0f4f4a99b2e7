"""Local rewrites and the fixture-pair verifier.

Rewrites that are always locally applicable are programmatic: kink
insertion (R1), splicing a (2,2) pattern across two coboundary edges
(carries R2 composites and the 3-move), and the IH exchange on a thick
edge.  The remaining moves ship as curated diagram pairs listed in a
manifest, one per line:

    pair <name> <fileA> <fileB> <move> <expected>

where expected is "exact" (the comparison polynomial must match term for
term) or "root" (the values at the admissible roots must agree, which holds
exactly when the polynomials have equal residues modulo q^8 - q^4 + 1, so
no tolerance is needed; a failure shows both exact texts at one root).  The
comparison polynomial is the pairing polynomial for strand diagrams, the
per-enhancement invariant when the files declare thick sets, and the total
invariant for other graph diagrams.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .diagram import (TangleDiagram, all_labels, edge_occurrences, ensure_valid,
                      load_tng, map_faces, max_label, merge_edges,
                      read_text, relabel_occurrence, relabeled, replace)
from .enhanced import (_contracted_vertex, invariant_rho_poly,
                       invariant_total_poly)
from .errors import DomainError, ParseError
from .laurent import (ROOT_INDICES, LaurentPoly, complex_text,
                      ensure_root_index)
from .pairing import p_poly


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

    assembled = TangleDiagram(
        m=d.m, n=d.n,
        crossings=cut.crossings + pat.crossings,
        trivalent=cut.trivalent,
        fourvalent=cut.fourvalent,
        circles=cut.circles + pat.circles,
        bottom=cut.bottom, top=cut.top,
        thick=cut.thick,
    )
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
# fixture-pair manifest


class MovePair(NamedTuple):
    name: str
    file_a: str
    file_b: str
    move: str
    expected: str


class PairResult(NamedTuple):
    name: str
    move: str
    expected: str
    ok: bool
    detail: str = ""


def parse_manifest(text: str) -> tuple[MovePair, ...]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 6 or tokens[0] != "pair":
            raise ParseError(
                lineno, "expected 'pair <name> <fileA> <fileB> <move> <expected>'")
        _, name, file_a, file_b, move, expected = tokens
        if expected not in ("exact", "root"):
            raise ParseError(lineno, f"expected 'exact' or 'root', got {expected!r}")
        pairs.append(MovePair(name, file_a, file_b, move, expected))
    return tuple(pairs)


def comparison_poly(d: TangleDiagram) -> LaurentPoly:
    """The polynomial a fixture pair is compared by (see module docstring)."""
    if d.trivalent or d.fourvalent:
        if d.thick:
            return invariant_rho_poly(d, frozenset(d.thick))
        return invariant_total_poly(d)
    return p_poly(d)


def verify_pair(pair: MovePair, base_dir: str, k: int | None = None) -> PairResult:
    da = load_tng(os.path.join(base_dir, pair.file_a))
    db = load_tng(os.path.join(base_dir, pair.file_b))
    if bool(da.thick) != bool(db.thick):
        raise DomainError(
            f"pair {pair.name}: one side declares thick edges, the other does not")
    pa, pb = comparison_poly(da), comparison_poly(db)
    if pair.expected == "exact":
        if pa == pb:
            return PairResult(pair.name, pair.move, pair.expected, True)
        return PairResult(pair.name, pair.move, pair.expected, False,
                          f"{pa} != {pb}")
    # unequal residues differ at every admissible root, so a failure is
    # reported at the root asked for, or else at the first
    kk = ROOT_INDICES[0] if k is None else ensure_root_index(k)
    if pa.residue() == pb.residue():
        return PairResult(pair.name, pair.move, pair.expected, True)
    va, vb = (complex_text(p.rounded_root(kk)) for p in (pa, pb))
    return PairResult(pair.name, pair.move, pair.expected, False,
                      f"k={kk}: {va} != {vb}")


def verify_manifest(path: str, k: int | None = None) -> tuple[PairResult, ...]:
    pairs = parse_manifest(read_text(path))
    base_dir = os.path.dirname(os.path.abspath(path))
    return tuple(verify_pair(p, base_dir, k) for p in pairs)
