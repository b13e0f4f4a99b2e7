"""Command-line front end.

Every subcommand reads .tng files (see the diagram module grammar), writes
deterministic text to stdout, and supports --json for a machine-readable
object (schema in the README).  Exit codes: 0 success, 1 usage, 2 parse or
validation error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import TangleDiagram, load_tng, validate
from .enhanced import (check_state_listing, check_state_sum, contract,
                       enumerate_enhancements, invariant_rho_poly,
                       invariant_total_poly, state_polys)
from .errors import DomainError, InvalidDiagramError, ParseError, TangleError
from .laurent import (DIGITS, ROOT_INDICES, LaurentPoly, complex_text,
                      ensure_root_index)
from .moves import verify_manifest
from .pairing import p_poly, pairing_matrix
from .skein import bracket, enumerate_basis, format_matching


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def poly_json(p: LaurentPoly) -> dict:
    return {"terms": [[e, c] for e, c in p.items_desc()], "text": str(p)}


def complex_json(value: tuple[int, int]) -> dict:
    """Both parts as the doubles nearest to their rounded decimals."""
    re, im = value
    try:
        return {"re": re / 10 ** DIGITS, "im": im / 10 ** DIGITS}
    except OverflowError:
        raise DomainError(
            "root value past the double range of --json") from None


def _emit(args, text_lines, obj) -> None:
    # the JSON object, and with it every double, is built only under --json
    if args.json:
        print(json.dumps(obj(), indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _matching_json(mt) -> list:
    return [list(pair) for pair in mt]


def cmd_basis(args) -> int:
    basis = enumerate_basis(args.m, args.n)
    lines = [format_matching(mt) for mt in basis.elements]
    _emit(args, lines, lambda: {
        "m": args.m, "n": args.n, "count": len(basis),
        "elements": [_matching_json(mt) for mt in basis.elements],
    })
    return 0


def cmd_bracket(args) -> int:
    d = load_tng(args.file)
    vec = bracket(d)
    lines = [f"{format_matching(mt)}: {coeff}"
             for mt, coeff in zip(vec.basis.elements, vec.coords)]
    _emit(args, lines, lambda: {
        "m": d.m, "n": d.n,
        "coords": [{"element": _matching_json(mt), "poly": poly_json(c)}
                   for mt, c in zip(vec.basis.elements, vec.coords)],
    })
    return 0


def cmd_pairing(args) -> int:
    A = pairing_matrix(args.m, args.n)
    lines = [" | ".join(str(entry) for entry in row) for row in A.entries]
    _emit(args, lines, lambda: {
        "m": args.m, "n": args.n, "size": len(A.entries),
        "entries": [[poly_json(entry) for entry in row] for row in A.entries],
    })
    return 0


def cmd_p(args) -> int:
    d = load_tng(args.file)
    if args.k is not None:
        ensure_root_index(args.k)
    p = p_poly(d)
    if args.k is None:
        _emit(args, [f"P(D) = {p}"], lambda: {"p": poly_json(p)})
    else:
        z = p.rounded_root(args.k)
        _emit(args, [f"P(D)_{args.k} = {complex_text(z)}"],
              lambda: {"k": args.k, "value": complex_json(z)})
    return 0


def cmd_rho(args) -> int:
    d = load_tng(args.file)
    enhancements = enumerate_enhancements(d)
    lines = ["{" + ",".join(str(x) for x in sorted(rho)) + "}"
             for rho in enhancements]
    _emit(args, lines, lambda: {
        "count": len(enhancements),
        "enhancements": [sorted(rho) for rho in enhancements],
    })
    return 0


def _pick_rho(d: TangleDiagram, rho_index: int | None) -> frozenset:
    """The enhancement a state/invariant command should work with."""
    if rho_index is not None:
        if d.thick:
            raise DomainError(
                "--rho conflicts with the file's own thick-edge lines")
        enhancements = enumerate_enhancements(d)
        if not 0 <= rho_index < len(enhancements):
            raise DomainError(
                f"rho index {rho_index} out of range: "
                f"{len(enhancements)} enhancements")
        return enhancements[rho_index]
    if d.thick:
        return frozenset(d.thick)
    if d.trivalent:
        raise DomainError(
            "diagram has trivalent vertices: pick an enhancement with --rho "
            "or declare thick edges in the file")
    return frozenset()


def cmd_states(args) -> int:
    d = load_tng(args.file)
    check_state_listing(d)
    rho = _pick_rho(d, args.rho)
    entries = state_polys(contract(d, rho))
    lines = [f"state {i} [{','.join(patterns)}]: {p}"
             for i, (patterns, p) in enumerate(entries)]
    _emit(args, lines, lambda: {
        "rho": sorted(rho),
        "states": [{"assignment": list(patterns), "poly": poly_json(p)}
                   for patterns, p in entries],
    })
    return 0


def cmd_invariant(args) -> int:
    d = load_tng(args.file)
    ks = ROOT_INDICES if args.all_k else (args.k,)
    for k in ks:
        ensure_root_index(k)
    check_state_sum(d)
    if args.rho is not None or d.thick:
        rho = _pick_rho(d, args.rho)
        poly = invariant_rho_poly(d, rho)
    else:
        poly = invariant_total_poly(d)
    values = [(k, poly.rounded_root(k)) for k in ks]
    lines = [f"I_{k}(G) = {complex_text(z)}" for k, z in values]
    _emit(args, lines, lambda: {
        "values": [{"k": k, "value": complex_json(z)} for k, z in values],
    })
    return 0


def cmd_verify(args) -> int:
    if args.k is not None:
        ensure_root_index(args.k)
    results = verify_manifest(args.manifest, k=args.k)
    lines = []
    for r in results:
        status = "ok" if r.ok else f"FAIL ({r.detail})"
        lines.append(f"pair {r.name} ({r.move}, {r.expected}): {status}")
    _emit(args, lines, lambda: {
        "ok": all(r.ok for r in results),
        "results": [{"name": r.name, "move": r.move, "expected": r.expected,
                     "ok": r.ok, "detail": r.detail} for r in results],
    })
    return 0 if all(r.ok for r in results) else 3


def cmd_validate(args) -> int:
    try:
        problems = list(validate(load_tng(args.file)).problems)
    except (ParseError, InvalidDiagramError) as exc:
        problems = [str(exc)]
    _emit(args, [f"problem: {p}" for p in problems] or ["ok"],
          lambda: {"ok": not problems, "problems": problems})
    return 2 if problems else 0


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON object instead of text")

    parser = _Parser(prog="tanglepoly",
                     description="Skein-module invariants of tangles and "
                                 "trivalent graph diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", parents=[common],
                             help="list the flat (m,n) basis")
    p_basis.add_argument("m", type=int)
    p_basis.add_argument("n", type=int)
    p_basis.set_defaults(func=cmd_basis)

    p_bracket = sub.add_parser("bracket", parents=[common],
                               help="bracket coordinates of a strand diagram")
    p_bracket.add_argument("file")
    p_bracket.set_defaults(func=cmd_bracket)

    p_pairing = sub.add_parser("pairing", parents=[common],
                               help="pairing matrix for boundary (m,n)")
    p_pairing.add_argument("m", type=int)
    p_pairing.add_argument("n", type=int)
    p_pairing.set_defaults(func=cmd_pairing)

    p_p = sub.add_parser("p", parents=[common],
                         help="pairing polynomial P(D), or its value at a root")
    p_p.add_argument("file")
    p_p.add_argument("--k", type=int, default=None,
                     help="evaluate at the admissible root index K")
    p_p.set_defaults(func=cmd_p)

    p_rho = sub.add_parser("rho", parents=[common],
                           help="list the enhancements of a graph diagram")
    p_rho.add_argument("file")
    p_rho.set_defaults(func=cmd_rho)

    p_states = sub.add_parser("states", parents=[common],
                              help="per-state polynomials after contraction")
    p_states.add_argument("file")
    p_states.add_argument("--rho", type=int, default=None, metavar="INDEX",
                          help="enhancement index from the rho listing")
    p_states.set_defaults(func=cmd_states)

    p_inv = sub.add_parser("invariant", parents=[common],
                           help="root values of the summed invariant")
    p_inv.add_argument("file")
    p_inv.add_argument("--rho", type=int, default=None, metavar="INDEX",
                       help="enhancement index from the rho listing")
    group = p_inv.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, default=None,
                       help="single admissible root index")
    group.add_argument("--all-k", action="store_true",
                       help="all eight admissible root indices")
    p_inv.set_defaults(func=cmd_invariant)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check every pair in a fixture manifest")
    p_verify.add_argument("manifest")
    p_verify.add_argument("--k", type=int, default=None,
                          help="admissible root index at which a failed root "
                               "pair is reported")
    p_verify.set_defaults(func=cmd_verify)

    p_validate = sub.add_parser("validate", parents=[common],
                                help="structural and planarity check")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidDiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TangleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
