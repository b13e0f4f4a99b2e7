"""Regenerate the fixture corpus and print the frozen golden values.

Builds every .tng fixture programmatically, re-checks the relation each
move pair is supposed to satisfy, then writes fixtures/, fixtures/pairs/,
fixtures/bad/ and fixtures/moves.manifest.  Run from anywhere:

    python3 scripts/make_goldens.py [--out DIR]

The printed table is the source of the literal constants frozen in the
test suite; regenerate after any representation change and re-freeze.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tanglepoly import (
    ROOT_INDICES,
    TangleDiagram,
    braid_pattern,
    comparison_poly,
    complex_text,
    enumerate_enhancements,
    ensure_valid,
    ih_rewrite,
    invariant_total_poly,
    p_poly,
    pairing_matrix,
    serialize_tng,
)

D = TangleDiagram


def _fixtures() -> dict[str, TangleDiagram]:
    return {
        "circle": D(m=0, n=0, circles=(1,)),
        "two_circles": D(m=0, n=0, circles=(1, 2)),
        "identity_11": D(m=1, n=1, bottom=(1,), top=(1,)),
        "identity_22": D(m=2, n=2, bottom=(1, 2), top=(1, 2)),
        "three_strand": D(m=3, n=3, bottom=(1, 2, 3), top=(1, 2, 3)),
        "one_crossing": D(m=2, n=2, crossings=((1, 2, 4, 3),),
                          bottom=(1, 2), top=(3, 4)),
        "sigma": braid_pattern(+1),
        "sigma_cubed": braid_pattern(+1, +1, +1),
        "pattern_identity": D(m=2, n=2, fourvalent=((1, 2, 4, 3),),
                              bottom=(1, 2), top=(3, 4)),
        "theta": D(m=0, n=0, trivalent=((1, 2, 3), (3, 2, 1))),
        "handcuff": D(m=0, n=0, trivalent=((1, 1, 2), (2, 3, 3))),
        "all_external": D(m=3, n=3, trivalent=((1, 2, 3), (6, 5, 4)),
                          bottom=(1, 2, 3), top=(4, 5, 6)),
        "trefoil": D(m=0, n=0,
                     crossings=((2, 4, 3, 1), (4, 6, 5, 3), (6, 2, 1, 5))),
    }


def _pairs(fx: dict[str, TangleDiagram]):
    # (name, a, b, move, expected); expected "exact" means equal polynomials,
    # "root" means equal values at every admissible root index.
    theta_thick = D(m=0, n=0, trivalent=((1, 2, 3), (3, 2, 1)),
                    thick=frozenset({2}))
    return [
        ("r1", fx["identity_11"],
         D(m=1, n=1, crossings=((2, 2, 3, 1),), bottom=(3,), top=(1,)),
         "R1", "exact"),
        ("r2", fx["identity_22"], braid_pattern(+1, -1), "R2", "exact"),
        ("r3",
         D(m=3, n=3, crossings=((2, 5, 4, 1), (3, 7, 6, 5), (6, 9, 8, 4)),
           bottom=(1, 2, 3), top=(8, 9, 7)),
         D(m=3, n=3, crossings=((3, 5, 4, 2), (4, 7, 6, 1), (5, 9, 8, 7)),
           bottom=(1, 2, 3), top=(6, 8, 9)),
         "R3", "exact"),
        ("m3_pos", fx["sigma_cubed"], fx["identity_22"], "+3", "root"),
        ("m3_neg", braid_pattern(-1, -1, -1), fx["identity_22"], "-3", "root"),
        ("m3_knot", fx["trefoil"], fx["two_circles"], "+3", "root"),
        # strand poked under the loop lobe at one vertex vs the other;
        # the connecting edge stays crossing-free on both sides
        ("r4",
         D(m=1, n=1, trivalent=((2, 3, 8), (2, 4, 4)),
           crossings=((5, 8, 6, 7), (6, 3, 9, 7)), bottom=(5,), top=(9,)),
         D(m=1, n=1, trivalent=((2, 1, 1), (3, 2, 8)),
           crossings=((5, 7, 6, 8), (6, 7, 9, 3)), bottom=(5,), top=(9,)),
         "R4", "root"),
        # loop legs twisted once at the vertex vs plain loop
        ("r5",
         D(m=0, n=0, trivalent=((1, 2, 3), (1, 5, 5)),
           crossings=((3, 2, 4, 4),)),
         fx["handcuff"], "R5", "root"),
        # strand slid past a 4-valent vertex: crosses the two connecting
        # edges on one side, the two loop legs on the other
        ("n4",
         D(m=1, n=1, fourvalent=((1, 2, 2, 3), (4, 5, 6, 4)),
           crossings=((7, 6, 8, 3), (8, 5, 9, 1)), bottom=(7,), top=(9,)),
         D(m=1, n=1, fourvalent=((1, 2, 2, 3), (4, 1, 3, 6)),
           crossings=((7, 5, 8, 6), (8, 5, 9, 4)), bottom=(7,), top=(9,)),
         "N4", "root"),
        # loop legs twisted once at a 4-valent vertex vs plain
        ("n5",
         D(m=0, n=0, fourvalent=((2, 3, 1, 1),), crossings=((3, 2, 4, 4),)),
         D(m=0, n=0, fourvalent=((1, 1, 2, 2),)),
         "N5", "root"),
        ("ih", theta_thick, ih_rewrite(theta_thick, 2), "IH", "exact"),
    ]


BAD = {
    # X line with the wrong arity: rejected by the parser
    "bad_syntax": "tangle m=1 n=1\nX 1 2 3\nB 1 | 1\n",
    # label 1 occurs three times, label 2 once
    "bad_count": "tangle m=0 n=0\nX 1 1 1 2\nB |\n",
    # counts fine, but the boundary wiring forces the strands off the plane
    "bad_nonplanar": "tangle m=2 n=2\nX 1 2 4 3\nB 1 2 | 4 3\n",
    # a self-loop may not be declared thick
    "bad_thick": "tangle m=0 n=0\nV 1 1 2\nV 2 3 3\nB |\nT 1\n",
    # odd number of boundary points
    "bad_odd": "tangle m=1 n=0\nB 1 |\n",
    # circle labels must not occur anywhere else
    "bad_circle_reuse": "tangle m=1 n=1\nO 2\nB 1 | 2\n",
}

MANIFEST_HEADER = "# pair <name> <fileA> <fileB> <move> <expected: exact|root>\n"


def _check_pair(name, a, b, expected) -> None:
    pa, pb = comparison_poly(a), comparison_poly(b)
    if expected == "exact":
        if pa != pb:
            raise SystemExit(f"pair {name}: polynomials differ, expected exact")
        return
    # equal residues modulo q^8 - q^4 + 1 agree at every admissible root
    if pa.residue() != pb.residue():
        raise SystemExit(f"pair {name}: root values differ")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    parser.add_argument("--out", type=pathlib.Path, default=default_out)
    args = parser.parse_args()

    fx = _fixtures()
    pairs = _pairs(fx)

    for name, d in fx.items():
        ensure_valid(d)
    for name, a, b, move, expected in pairs:
        ensure_valid(a)
        ensure_valid(b)
        _check_pair(name, a, b, expected)

    out = args.out
    (out / "pairs").mkdir(parents=True, exist_ok=True)
    (out / "bad").mkdir(parents=True, exist_ok=True)
    for name, d in fx.items():
        (out / f"{name}.tng").write_text(serialize_tng(d), encoding="utf-8")
    manifest_lines = [MANIFEST_HEADER]
    for name, a, b, move, expected in pairs:
        (out / "pairs" / f"{name}_a.tng").write_text(serialize_tng(a),
                                                     encoding="utf-8")
        (out / "pairs" / f"{name}_b.tng").write_text(serialize_tng(b),
                                                     encoding="utf-8")
        manifest_lines.append(
            f"pair {name} pairs/{name}_a.tng pairs/{name}_b.tng "
            f"{move} {expected}\n")
    (out / "moves.manifest").write_text("".join(manifest_lines),
                                        encoding="utf-8")
    for name, text in BAD.items():
        (out / "bad" / f"{name}.tng").write_text(text, encoding="utf-8")

    print(f"wrote {len(fx)} fixtures, {len(pairs)} pairs, "
          f"{len(BAD)} bad files under {out}")
    print()
    print("golden polynomials")
    for name in ("identity_11", "circle", "two_circles", "identity_22",
                 "one_crossing", "sigma_cubed", "trefoil", "three_strand"):
        print(f"  P({name}) = {p_poly(fx[name])}")
    print()
    print("golden graph invariants")
    for name in ("circle", "theta", "handcuff", "all_external"):
        poly = invariant_total_poly(fx[name])
        print(f"  I({name}) = {poly}")
        values = ", ".join(f"k={k}: {complex_text(poly.rounded_root(k))}"
                           for k in ROOT_INDICES[:2])
        print(f"    at roots: {values}, ... (all eight printed by --all-k)")
    print()
    print("enhancement counts")
    for name in ("theta", "handcuff", "circle", "all_external"):
        print(f"  {name}: {len(enumerate_enhancements(fx[name]))}")
    print()
    print("pairing matrix (2,2)")
    for row in pairing_matrix(2, 2).entries:
        print("  " + " | ".join(str(entry) for entry in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
