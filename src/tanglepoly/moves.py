"""The fixture-pair verifier.

The rewrites that are always locally applicable (kink insertion, pattern
splicing, the IH exchange) are programmatic and live in generate; the
remaining moves ship as curated diagram pairs listed in a manifest, one
per line:

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

from .diagram import TangleDiagram, load_tng, read_text
from .enhanced import invariant_rho_poly, invariant_total_poly
from .errors import DomainError, ParseError
from .laurent import (ROOT_INDICES, LaurentPoly, complex_text,
                      ensure_root_index)
from .pairing import p_poly


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


def pair_mismatch(expected: str, pa: LaurentPoly, pb: LaurentPoly,
                  k: int | None = None) -> str:
    """How pa and pb break the relation expected names, "" when they keep
    it (see module docstring)."""
    if expected == "exact":
        return "" if pa == pb else f"{pa} != {pb}"
    # unequal residues differ at every admissible root, so a failure is
    # reported at the root asked for, or else at the first
    kk = ROOT_INDICES[0] if k is None else ensure_root_index(k)
    if pa.residue() == pb.residue():
        return ""
    va, vb = (complex_text(p.rounded_root(kk)) for p in (pa, pb))
    return f"k={kk}: {va} != {vb}"


def verify_pair(pair: MovePair, base_dir: str, k: int | None = None) -> PairResult:
    da = load_tng(os.path.join(base_dir, pair.file_a))
    db = load_tng(os.path.join(base_dir, pair.file_b))
    if bool(da.thick) != bool(db.thick):
        raise DomainError(
            f"pair {pair.name}: one side declares thick edges, the other does not")
    detail = pair_mismatch(pair.expected, comparison_poly(da),
                           comparison_poly(db), k)
    return PairResult(pair.name, pair.move, pair.expected, not detail, detail)


def verify_manifest(path: str, k: int | None = None) -> tuple[PairResult, ...]:
    pairs = parse_manifest(read_text(path))
    base_dir = os.path.dirname(os.path.abspath(path))
    return tuple(verify_pair(p, base_dir, k) for p in pairs)
