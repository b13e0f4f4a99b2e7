import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, decimal_root_text, fixture_path
from tanglepoly import cli, enhanced, moves, pairing, skein
from tanglepoly.cli import main
from tanglepoly.diagram import (TangleDiagram, ensure_valid, load_tng,
                                max_label, replace, serialize_tng)
from tanglepoly.generate import braid_pattern
from tanglepoly.laurent import (MAX_DELTA_POWER, ROOT_INDICES, LaurentPoly,
                                complex_text, delta_power)

DELTA2 = "q^4 + 2 + q^-4"
DELTA3 = "-q^6 - 3q^2 - 3q^-2 - q^-6"
DELTA4 = "q^8 + 4q^4 + 6 + 4q^-4 + q^-8"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complex_text_format():
    # parts come as integers in units of 10^-9, as rounded_root gives them
    assert complex_text((3 * 10**9, 0)) == "3.000000000 + 0.000000000i"
    assert complex_text((-1_500_000_000, -2_250_000_000)) \
        == "-1.500000000 - 2.250000000i"
    # a part that rounds to zero prints unsigned, never as -0
    assert complex_text((0, 0)) == "0.000000000 + 0.000000000i"
    assert complex_text((-7, 3 * 10**18)) \
        == "-0.000000007 + 3000000000.000000000i"


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "2", "2")
    assert code == 0
    assert out == "(1,2)(3,4)\n(1,4)(2,3)\n"


def test_basis_json(capsys):
    code, out, _ = run(capsys, "basis", "2", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"m": 2, "n": 2, "count": 2,
                   "elements": [[[1, 2], [3, 4]], [[1, 4], [2, 3]]]}


def test_basis_rejects_odd_boundary(capsys):
    code, _, err = run(capsys, "basis", "1", "2")
    assert code == 3
    assert "error:" in err


def test_basis_refuses_a_catalan_sized_boundary(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "basis", "40", "40")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: flat basis supported only for (m+n)/2 <= 11\n"


def test_bracket_coordinates(capsys):
    code, out, _ = run(capsys, "bracket", fixture_path("one_crossing.tng"))
    assert code == 0
    assert out == "(1,2)(3,4): q\n(1,4)(2,3): q^-1\n"


def test_bracket_json(capsys):
    code, out, _ = run(capsys, "bracket", fixture_path("one_crossing.tng"),
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coords"][0] == {"element": [[1, 2], [3, 4]],
                                "poly": {"terms": [[1, 1]], "text": "q"}}
    assert obj["coords"][1]["poly"]["terms"] == [[-1, 1]]


def test_pairing_matrix(capsys):
    code, out, _ = run(capsys, "pairing", "2", "2")
    assert code == 0
    assert out == f"{DELTA4} | {DELTA3}\n{DELTA3} | {DELTA2}\n"


def test_pairing_json(capsys):
    code, out, _ = run(capsys, "pairing", "1", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 1
    assert obj["entries"][0][0]["terms"] == [[2, -1], [-2, -1]]


def test_p_polynomial(capsys):
    code, out, _ = run(capsys, "p", fixture_path("one_crossing.tng"))
    assert code == 0
    assert out == f"P(D) = {DELTA2}\n"


def test_p_of_a_long_braid(tmp_path, capsys):
    # far more crossings than any recursion limit; the plat closure of a
    # two-strand braid is one unknot, so P(D) is delta^2 whatever the word
    rng = random.Random(1100)
    d = braid_pattern(*(rng.choice((1, -1)) for _ in range(1100)))
    path = tmp_path / "long_braid.tng"
    path.write_text(serialize_tng(d))
    code, out, _ = run(capsys, "p", str(path))
    assert code == 0
    assert out == f"P(D) = {DELTA2}\n"


def _refuse(*args, **kwargs):
    raise AssertionError("matrix route reached")


@pytest.mark.parametrize("width", [11, 41])
def test_p_of_a_wide_identity_is_a_delta_power(width, tmp_path, capsys,
                                               monkeypatch):
    # the closure route builds no basis and no matrix at any width
    for owner, name in ((pairing, "pairing_matrix"), (pairing, "bracket"),
                        (pairing, "enumerate_basis"),
                        (skein, "enumerate_basis")):
        monkeypatch.setattr(owner, name, _refuse)
    labels = tuple(range(1, width + 1))
    path = tmp_path / "identity.tng"
    path.write_text(serialize_tng(
        TangleDiagram(m=width, n=width, bottom=labels, top=labels)))
    code, out, _ = run(capsys, "p", str(path))
    assert (code, out) == (0, f"P(D) = {delta_power(width)}\n")


def _wide_fourvalent():
    """(9,9) identity with the two left strands through one 4-valent vertex."""
    rest = tuple(range(3, 10))
    return TangleDiagram(m=9, n=9, fourvalent=((1, 2, 11, 10),),
                         bottom=(1, 2) + rest, top=(10, 11) + rest)


@pytest.mark.parametrize("argv", [["pairing", "9", "9"],
                                  ["pairing", "8", "8"]])
def test_wide_pairings_are_refused_before_any_basis(argv, capsys,
                                                     monkeypatch):
    for owner in (pairing, skein):
        monkeypatch.setattr(owner, "enumerate_basis", _refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: pairing supported only for (m+n)/2 <= 7\n"


def test_invariant_at_a_wide_boundary_builds_no_basis(tmp_path, capsys,
                                                      monkeypatch):
    d = ensure_valid(_wide_fourvalent())
    states = enhanced.state_polys(d)
    assert len(states) == 4
    expected = sum(p for _, p in states).rounded_root(1)
    for owner, name in ((pairing, "enumerate_basis"), (skein, "enumerate_basis"),
                        (pairing, "pairing_matrix"), (pairing, "pair")):
        monkeypatch.setattr(owner, name, _refuse)
    path = tmp_path / "wide.tng"
    path.write_text(serialize_tng(d))
    code, out, _ = run(capsys, "invariant", str(path), "--k", "1")
    assert (code, out) == (0, f"I_1(G) = {complex_text(expected)}\n")


def test_p_at_a_root(capsys):
    code, out, _ = run(capsys, "p", fixture_path("one_crossing.tng"),
                       "--k", "1")
    assert code == 0
    assert out == "P(D)_1 = 3.000000000 + 0.000000000i\n"


def _with_circles(name, count):
    """A fixture with `count` extra free loops, each a factor -q^2 - q^-2."""
    d = load_tng(fixture_path(name))
    start = max_label(d) + 1
    return replace(d, circles=d.circles + tuple(range(start, start + count)))


@pytest.mark.parametrize("name, circles, k, text", [
    # the float sum printed 2761448.439675651 + 0.000000007i, and the
    # float sum over the residue 2761448.439675635 - 0.000000001i
    ("three_strand.tng", 12, 7, "2761448.439675635 + 0.000000000i"),
    # 3^34 > 2^53: the float sum over the residue printed ...568
    ("sigma.tng", 33, 1, "16677181699666569.000000000 + 0.000000000i"),
    # 3^700 > 2^1024: the float route raised OverflowError
    pytest.param("circle.tng", 699, 1, f"{3**700}.000000000 + 0.000000000i",
                 id="circle.tng-699-1-3^700"),
    # delta^4000 in closed form, where repeated squaring took about 20 s
    pytest.param("circle.tng", 1999, 1, f"{3**2000}.000000000 + 0.000000000i",
                 id="circle.tng-1999-1-3^2000"),
])
def test_p_at_a_root_prints_exactly_rounded_digits(name, circles, k, text,
                                                  tmp_path, capsys):
    d = _with_circles(name, circles)
    assert decimal_root_text(pairing.p_poly(d), k) == text
    path = tmp_path / "loops.tng"
    path.write_text(serialize_tng(d))
    code, out, _ = run(capsys, "p", str(path), "--k", str(k))
    assert (code, out) == (0, f"P(D)_{k} = {text}\n")


# past 2^1024 in both parts at every root, and irrational at k = 1
HUGE = LaurentPoly({0: 3**700, 3: 2**1100})


@pytest.mark.parametrize("argv, name, line, ks", [
    (["p", fixture_path("circle.tng"), "--k", "1"], "p_poly", "P(D)_{} = {}",
     (1,)),
    (["invariant", fixture_path("theta.tng"), "--all-k"],
     "invariant_total_poly", "I_{}(G) = {}", ROOT_INDICES),
], ids=["p", "invariant"])
def test_root_values_past_the_double_range_print_exactly(argv, name, line, ks,
                                                         capsys, monkeypatch):
    monkeypatch.setattr(cli, name, lambda d: HUGE)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [line.format(k, decimal_root_text(HUGE, k))
                                for k in ks]
    # JSON numbers are doubles: refused, with nothing on stdout
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# Python's limit on the digits of a printed integer; 0 means none
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _constants(digits):
    """A stand-in computation: a new constant of `digits` digits per call."""
    count = itertools.count()
    return lambda d: LaurentPoly({0: 10 ** (digits - 1) + next(count)})


@pytest.mark.skipif(not INT_DIGITS, reason="integers print at any length")
@pytest.mark.parametrize("expected", [None, "exact", "root"],
                         ids=["p", "verify-exact", "verify-root"])
def test_integers_past_the_printing_limit_are_domain_errors(
        expected, tmp_path, capsys, monkeypatch):
    if expected is None:
        argv, owner, name = ["p", fixture_path("circle.tng")], cli, "p_poly"
    else:
        manifest = tmp_path / "big.manifest"
        manifest.write_text(f"pair big {FIXTURES / 'circle.tng'} "
                            f"{FIXTURES / 'two_circles.tng'} M3 {expected}\n")
        argv, owner, name = ["verify", str(manifest)], moves, "comparison_poly"
    for flags in ([], ["--json"]):
        monkeypatch.setattr(owner, name, _constants(INT_DIGITS + 100))
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out) == (3, "")
        assert err == ("error: cannot print an integer of more than "
                       f"{INT_DIGITS} digits (Python's limit, raised by "
                       "PYTHONINTMAXSTRDIGITS)\n")
        # just under the limit it prints; verify's pair fails, with exit 3
        monkeypatch.setattr(owner, name, _constants(INT_DIGITS))
        code, out, err = run(capsys, *argv, *flags)
        assert (code, err) == (0 if expected is None else 3, "")
        assert str(10 ** (INT_DIGITS - 1)) in out


@pytest.mark.parametrize("argv", [["p"], ["bracket"], ["invariant", "--k", "1"]],
                         ids=["p", "bracket", "invariant"])
def test_delta_powers_past_the_bound_are_refused_unbuilt(argv, tmp_path,
                                                         capsys, monkeypatch):
    # 40000 free circles: the bracket needs delta^40000, P and I(G) delta^80000
    path = tmp_path / "circles.tng"
    path.write_text("tangle m=0 n=0\n"
                    + "".join(f"O {i}\n" for i in range(1, 40001)) + "B |\n")
    init = LaurentPoly.__init__

    def bounded(self, terms=None):
        assert len(terms or ()) <= MAX_DELTA_POWER + 1, "delta^n was built"
        init(self, terms)

    monkeypatch.setattr(LaurentPoly, "__init__", bounded)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (3, "")
    assert err == ("error: loop factor delta^n supported only for "
                   f"n <= {MAX_DELTA_POWER}\n")


@pytest.mark.parametrize("text", [
    "tangle m=0 n=0\nO " + "9" * 5000 + "\nB |\n",
    "tangle m=" + "1" * 5000 + " n=0\nB |\n",
], ids=["label", "header"])
def test_oversized_integers_are_parse_errors(text, tmp_path, capsys):
    path = tmp_path / "huge.tng"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (2, "")
    assert out.startswith("problem: line ") and out.count("\n") == 1
    assert len(out) < 100
    code, out, err = run(capsys, "p", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line ") and err.count("\n") == 1


@pytest.mark.skipif(not INT_DIGITS, reason="integers print at any length")
def test_a_header_whose_sum_cannot_print_is_a_parse_error(tmp_path, capsys):
    # each count prints, but the odd sum m+n has one digit too many
    path = tmp_path / "big.tng"
    path.write_text(f"tangle m={'9' * INT_DIGITS} n=2\nB |\n")
    manifest = tmp_path / "big.manifest"
    manifest.write_text(f"pair big {path} {path} M3 exact\n")
    message = ("line 1: header count sum m+n is too long: more digits than "
               "Python prints")
    assert run(capsys, "validate", str(path)) == (2, f"problem: {message}\n", "")
    code, out, err = run(capsys, "validate", str(path), "--json")
    assert (code, json.loads(out), err) == (
        2, {"ok": False, "problems": [message]}, "")
    for argv in (["p", str(path)], ["invariant", str(path), "--k", "1"],
                 ["verify", str(manifest)]):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    # a sum that prints keeps its problem line
    path.write_text(f"tangle m=1{'0' * (INT_DIGITS - 1)} n=1\nB |\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert out.startswith("problem: boundary size m+n = "
                          f"1{'0' * (INT_DIGITS - 2)}1 is odd; ")


def test_p_json(capsys):
    code, out, _ = run(capsys, "p", fixture_path("trefoil.tng"), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["p"]["terms"] == [[16, -1], [12, -1], [4, 2], [0, 4],
                                 [-4, 2], [-12, -1], [-16, -1]]


def test_p_rejects_graph_diagrams(capsys):
    code, _, err = run(capsys, "p", fixture_path("theta.tng"))
    assert code == 3
    assert "error:" in err


def test_p_rejects_bad_root_index(capsys, monkeypatch):
    def refuse(d):
        raise AssertionError("P(D) computed before the root check")

    monkeypatch.setattr(cli, "p_poly", refuse)
    code, _, err = run(capsys, "p", fixture_path("circle.tng"), "--k", "2")
    assert code == 3
    assert "root index" in err


def test_rho_listing(capsys):
    code, out, _ = run(capsys, "rho", fixture_path("theta.tng"))
    assert code == 0
    assert out == "{1}\n{2}\n{3}\n"
    code, out, _ = run(capsys, "rho", fixture_path("circle.tng"))
    assert code == 0
    assert out == "{}\n"
    code, out, _ = run(capsys, "rho", fixture_path("all_external.tng"))
    assert code == 0
    assert out == ""


def test_rho_json(capsys):
    code, out, _ = run(capsys, "rho", fixture_path("handcuff.tng"), "--json")
    assert code == 0
    assert json.loads(out) == {"count": 1, "enhancements": [[2]]}


def test_states_of_a_contracted_pattern(capsys):
    code, out, _ = run(capsys, "states", fixture_path("pattern_identity.tng"))
    assert code == 0
    assert out.splitlines() == [
        f"state 0 [T-]: {DELTA2}",
        f"state 1 [T+]: {DELTA2}",
        f"state 2 [T0]: {DELTA4}",
        f"state 3 [Tinf]: {DELTA2}",
    ]


def test_states_with_chosen_enhancement(capsys):
    code, out, _ = run(capsys, "states", fixture_path("theta.tng"),
                       "--rho", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("state 0 [T-]: ")


def test_states_of_a_strand_diagram(capsys):
    code, out, _ = run(capsys, "states", fixture_path("one_crossing.tng"))
    assert code == 0
    assert out == f"state 0 []: {DELTA2}\n"


def test_states_needs_an_enhancement_for_graphs(capsys):
    code, _, err = run(capsys, "states", fixture_path("theta.tng"))
    assert code == 3
    assert "--rho" in err


def test_states_rho_out_of_range(capsys):
    code, _, err = run(capsys, "states", fixture_path("theta.tng"),
                       "--rho", "5")
    assert code == 3
    assert "out of range" in err


def test_states_json(capsys):
    code, out, _ = run(capsys, "states", fixture_path("pattern_identity.tng"),
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rho"] == []
    assert [s["assignment"] for s in obj["states"]] == \
        [["T-"], ["T+"], ["T0"], ["Tinf"]]


def test_invariant_single_root(capsys):
    code, out, _ = run(capsys, "invariant", fixture_path("circle.tng"),
                       "--k", "1")
    assert code == 0
    assert out == "I_1(G) = 3.000000000 + 0.000000000i\n"


def test_invariant_all_roots(capsys):
    code, out, _ = run(capsys, "invariant", fixture_path("theta.tng"),
                       "--all-k")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    for k, line in zip(ROOT_INDICES, lines):
        assert line == f"I_{k}(G) = 54.000000000 + 0.000000000i"


def test_invariant_of_a_six_rung_ladder_prints_no_float_noise(tmp_path,
                                                             capsys):
    # the float sum printed + 0.000000001i at k = 5, 11, 17 and 23
    d = ensure_valid(_ladder(6))
    text = "2903040.000000000 + 0.000000000i"
    poly = enhanced.invariant_total_poly(d)
    assert all(decimal_root_text(poly, k) == text for k in ROOT_INDICES)
    path = tmp_path / "ladder.tng"
    path.write_text(serialize_tng(d))
    code, out, _ = run(capsys, "invariant", str(path), "--all-k")
    assert code == 0
    assert out == "".join(f"I_{k}(G) = {text}\n" for k in ROOT_INDICES)


def test_root_texts_of_every_fixture_are_pinned(capsys):
    # frozen from the float route before the residue route replaced it:
    # `invariant --all-k` on every fixture and pair file, and `p --k K`
    # for every K on the strand files
    pinned = (pathlib.Path(__file__).parent / "data" / "root_texts.txt"
              ).read_text()
    files = sorted(FIXTURES.glob("*.tng")) + sorted(FIXTURES.glob("pairs/*.tng"))
    assert len(files) == 35
    got = []
    for path in files:
        name = path.relative_to(FIXTURES).as_posix()
        d = load_tng(str(path))
        argvs = [["invariant", name, "--all-k"]]
        if not (d.trivalent or d.fourvalent):
            argvs += [["p", name, "--k", str(k)] for k in ROOT_INDICES]
        for argv in argvs:
            code, out, _ = run(capsys, argv[0], str(path), *argv[2:])
            assert code == 0
            got.append("$ tanglepoly " + " ".join(argv) + "\n" + out)
    assert "".join(got) == pinned


def _rho_transcript(capsys) -> str:
    """`invariant NAME --rho I --all-k` for every enhancement index I of
    every graph fixture and pair file that declares no thick edges."""
    files = sorted(FIXTURES.glob("*.tng")) + sorted(FIXTURES.glob("pairs/*.tng"))
    got = []
    for path in files:
        d = load_tng(str(path))
        if not (d.trivalent or d.fourvalent) or d.thick:
            continue
        name = path.relative_to(FIXTURES).as_posix()
        for i in range(len(enhanced.enumerate_enhancements(d))):
            argv = ["invariant", name, "--rho", str(i), "--all-k"]
            code, out, _ = run(capsys, argv[0], str(path), *argv[2:])
            assert code == 0
            got.append("$ tanglepoly " + " ".join(argv) + "\n" + out)
    return "".join(got)


def test_rho_texts_of_every_graph_fixture_are_pinned(capsys):
    # frozen before I_rho became the sweep of contract(d, rho): every
    # enhancement's root values stay byte for byte as they were
    pinned = (pathlib.Path(__file__).parent / "data" / "rho_texts.txt"
              ).read_text()
    transcript = _rho_transcript(capsys)
    assert transcript.count("$ tanglepoly") == 13
    assert transcript == pinned


def _exact_transcript(capsys) -> str:
    """Text stdout, stderr and exit code of `p` and `bracket` on every
    strand fixture and pair file, `rho` and `states --rho 0` on every graph
    one, and `verify` on the move manifest."""
    files = sorted(FIXTURES.glob("*.tng")) + sorted(FIXTURES.glob("pairs/*.tng"))
    argvs = []
    for path in files:
        d = load_tng(str(path))
        name = path.relative_to(FIXTURES).as_posix()
        if d.trivalent or d.fourvalent:
            argvs += [["rho", name], ["states", name, "--rho", "0"]]
        else:
            argvs += [["p", name], ["bracket", name]]
    argvs.append(["verify", "moves.manifest"])
    got = []
    for argv in argvs:
        code, out, err = run(capsys, argv[0], str(FIXTURES / argv[1]),
                             *argv[2:])
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
        got.append(f"$ tanglepoly {' '.join(argv)}\n{out}{err}[exit {code}]\n")
    return "".join(got)


def test_exact_texts_of_every_fixture_are_pinned(capsys):
    # frozen before the sweep state became (open ends, covered vertices):
    # every exact text the CLI prints stays byte for byte as it was
    pinned = (pathlib.Path(__file__).parent / "data" / "exact_texts.txt"
              ).read_text()
    assert _exact_transcript(capsys) == pinned


def test_invariant_with_rho_index(capsys):
    code, out, _ = run(capsys, "invariant", fixture_path("theta.tng"),
                       "--k", "1", "--rho", "1")
    assert code == 0
    assert out == "I_1(G) = 18.000000000 + 0.000000000i\n"


def test_invariant_respects_declared_thick_edges(capsys):
    code, out, _ = run(capsys, "invariant",
                       str(FIXTURES / "pairs" / "ih_a.tng"), "--k", "1")
    assert code == 0
    assert out == "I_1(G) = 18.000000000 + 0.000000000i\n"


def test_invariant_rho_conflicts_with_thick_file(capsys):
    code, _, err = run(capsys, "invariant",
                       str(FIXTURES / "pairs" / "ih_a.tng"),
                       "--k", "1", "--rho", "0")
    assert code == 3
    assert "conflicts" in err


def _necklace(n):
    """Closed chain of n 4-valent vertices, neighbours joined by two edges."""
    up, low = range(1, n + 1), range(n + 1, 2 * n + 1)
    return TangleDiagram(m=0, n=0, fourvalent=tuple(
        (up[k], up[k - 1], low[k - 1], low[k]) for k in range(n)))


def _ladder(rungs):
    """Closed ladder spine, end rungs doubled: 2 * rungs trivalent vertices."""
    rung = range(1, rungs + 1)
    top = range(rungs + 1, 2 * rungs)
    bot = range(2 * rungs, 3 * rungs - 1)
    first, last = 3 * rungs - 1, 3 * rungs
    vertices = [(top[0], first, rung[0]), (bot[0], rung[0], first),
                (last, top[-1], rung[-1]), (last, rung[-1], bot[-1])]
    for i in range(1, rungs - 1):
        vertices += [(top[i], top[i - 1], rung[i]),
                     (bot[i], rung[i], bot[i - 1])]
    return TangleDiagram(m=0, n=0, trivalent=tuple(vertices))


def _ladder_and_claws(rungs):
    """A closed ladder beside two vertices whose legs all end on the
    boundary: the claws have no links, so there is no enhancement."""
    legs = tuple(range(3 * rungs + 1, 3 * rungs + 7))
    return TangleDiagram(m=6, n=0, bottom=legs, trivalent=_ladder(
        rungs).trivalent + (legs[:3], legs[3:]))


@pytest.mark.parametrize("diagram", [_necklace(11), _ladder(11)],
                         ids=["necklace", "ladder"])
def test_invariant_refuses_too_many_vertices(diagram, tmp_path, capsys,
                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enhancements searched or swept")

    for name in ("enumerate_enhancements", "_matchings", "_frontier_states"):
        monkeypatch.setattr(enhanced, name, refuse)
    # the command looks the listing up in its own module
    monkeypatch.setattr(cli, "enumerate_enhancements", refuse)
    assert enhanced.MAX_STATE_VERTICES == 10
    path = tmp_path / "big.tng"
    path.write_text(serialize_tng(ensure_valid(diagram)))
    for flags in ([], ["--rho", "0"]):
        code, out, err = run(capsys, "invariant", str(path), "--all-k", *flags)
        assert (code, out) == (3, "")
        assert err == ("error: state sum supported only for at most 10 "
                       "4-valent vertices after contraction, got 11\n")


@pytest.mark.parametrize("diagram,flags", [
    (_necklace(8), []), (_ladder(8), ["--rho", "0"])],
    ids=["necklace", "ladder"])
def test_states_refuses_too_many_vertices(diagram, flags, tmp_path, capsys,
                                          monkeypatch):
    def refuse(d):
        raise AssertionError("states expanded")

    monkeypatch.setattr(enhanced, "expand_states", refuse)
    assert enhanced.MAX_LISTED_STATE_VERTICES == 7
    path = tmp_path / "big.tng"
    path.write_text(serialize_tng(ensure_valid(diagram)))
    code, out, err = run(capsys, "states", str(path), *flags)
    assert (code, out) == (3, "")
    assert err == ("error: state listing supported only for at most 7 "
                   "4-valent vertices after contraction, got 8\n")


def _legged_path(pairs):
    """Path of 2 * pairs trivalent vertices, every vertex's spare ends
    legs to the bottom boundary: its one enhancement takes every other
    path edge."""
    n = 2 * pairs
    edge = range(1, n)
    leg = range(n, 2 * n + 2)
    vertices = [(edge[0], leg[0], leg[1])]
    vertices += [(edge[i], edge[i - 1], leg[i + 1]) for i in range(1, n - 1)]
    vertices.append((leg[n + 1], edge[n - 2], leg[n]))
    return TangleDiagram(m=n + 2, n=0, trivalent=tuple(vertices),
                         bottom=tuple(leg))


def _refuse_listing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enhancements listed")

    monkeypatch.setattr(enhanced, "_matchings", refuse)


LISTING_REFUSED = ("error: enhancement listing supported only for at most "
                   "100000 enhancements\n")


def test_rho_refuses_too_many_enhancements_before_listing(tmp_path, capsys,
                                                          monkeypatch):
    # Fibonacci(1203) enhancements, about 10^251
    _refuse_listing(monkeypatch)
    assert enhanced.MAX_LISTED_ENHANCEMENTS == 100000
    path = tmp_path / "ladder.tng"
    path.write_text(serialize_tng(ensure_valid(_ladder(1200))))
    for flags in (["--json"], []):
        code, out, err = run(capsys, "rho", str(path), *flags)
        assert (code, out, err) == (3, "", LISTING_REFUSED)


@pytest.mark.parametrize("argv", [
    ["rho"], ["states", "--rho", "0"], ["invariant", "--rho", "0", "--k", "1"]],
    ids=["rho", "states", "invariant"])
def test_every_enhancement_listing_refuses_above_the_limit(argv, capsys,
                                                          monkeypatch):
    _refuse_listing(monkeypatch)
    monkeypatch.setattr(enhanced, "MAX_LISTED_ENHANCEMENTS", 2)
    code, out, err = run(capsys, argv[0], fixture_path("theta.tng"), *argv[1:])
    assert (code, out) == (3, "")
    assert err == LISTING_REFUSED.replace("100000", "2")


def test_rho_without_enhancements_lists_none_unsearched(tmp_path, capsys,
                                                        monkeypatch):
    # the backtracking search took 0.54 s at 24 rungs to find nothing,
    # about 2.7 times more per two rungs
    _refuse_listing(monkeypatch)
    path = tmp_path / "claws.tng"
    path.write_text(serialize_tng(ensure_valid(_ladder_and_claws(24))))
    code, out, err = run(capsys, "rho", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"count": 0, "enhancements": []}


def test_rho_lists_a_path_deeper_than_the_recursion_limit(tmp_path, capsys):
    pairs = sys.getrecursionlimit() + 1
    path = tmp_path / "path.tng"
    path.write_text(serialize_tng(ensure_valid(_legged_path(pairs))))
    code, out, err = run(capsys, "rho", str(path))
    assert (code, err) == (0, "")
    assert out == "{" + ",".join(map(str, range(1, 2 * pairs, 2))) + "}\n"


def test_invariant_json(capsys):
    code, out, _ = run(capsys, "invariant", fixture_path("handcuff.tng"),
                       "--k", "5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"values": [{"k": 5, "value": {"re": 18.0, "im": 0.0}}]}


def test_verify_manifest_all_ok(capsys):
    code, out, _ = run(capsys, "verify", str(FIXTURES / "moves.manifest"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.endswith(": ok") for line in lines)
    assert lines[0] == "pair r1 (R1, exact): ok"
    assert lines[-1] == "pair ih (IH, exact): ok"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", str(FIXTURES / "moves.manifest"),
                       "--k", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert len(obj["results"]) == 11


def test_verify_reports_failures(tmp_path, capsys):
    manifest = tmp_path / "bad.manifest"
    manifest.write_text(
        f"pair differ {FIXTURES / 'trefoil.tng'} {FIXTURES / 'circle.tng'} "
        "M3 root\n")
    code, out, _ = run(capsys, "verify", str(manifest))
    assert code == 3
    assert "FAIL" in out and "k=" in out


@pytest.mark.parametrize("argv", [
    ("bracket",), ("p",), ("p", "--k", "1"), ("rho",), ("states",),
    ("states", "--rho", "0"), ("invariant", "--k", "1"),
    ("invariant", "--rho", "0", "--k", "1"), ("validate",),
])
@pytest.mark.parametrize("text", [
    # a theta whose two vertices turn the same way only embeds in a torus
    "tangle m=0 n=0\nV 1 2 3\nV 1 2 3\nB |\n",
    # a thick edge must join two trivalent vertices
    "tangle m=1 n=1\nB 1 | 1\nT 1\n",
], ids=["nonplanar_theta", "thick_strand"])
def test_an_invalid_file_exits_2_whatever_the_command(argv, text, tmp_path,
                                                      capsys):
    path = tmp_path / "invalid.tng"
    path.write_text(text)
    code, _, _ = run(capsys, *argv, str(path))
    assert code == 2


def test_verify_refuses_an_invalid_pair_file_before_its_thick_sets(tmp_path,
                                                                   capsys):
    # the nonplanar side declares no thick edge and the other side does;
    # the file is invalid before the pair's thick sets are compared
    (tmp_path / "a.tng").write_bytes(
        (FIXTURES / "bad" / "bad_nonplanar.tng").read_bytes())
    (tmp_path / "b.tng").write_bytes(
        (FIXTURES / "pairs" / "ih_a.tng").read_bytes())
    manifest = tmp_path / "pairs.manifest"
    manifest.write_text("pair x a.tng b.tng IH exact\n")
    code, out, err = run(capsys, "verify", str(manifest))
    assert (code, out) == (2, "")
    assert err == "error: nonplanar or inconsistent rotation system\n"


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("theta.tng"))
    assert code == 0
    assert out == "ok\n"


def test_validate_reports_nonplanar(capsys):
    code, out, _ = run(capsys, "validate",
                       str(FIXTURES / "bad" / "bad_nonplanar.tng"))
    assert code == 2
    assert out.startswith("problem: ")


def test_validate_reports_parse_errors_in_band(capsys):
    code, out, _ = run(capsys, "validate",
                       str(FIXTURES / "bad" / "bad_syntax.tng"))
    assert code == 2
    assert out.startswith("problem: line 2:")


def test_validate_reports_non_ascii_digits_in_band(tmp_path, capsys):
    path = tmp_path / "superscript.tng"
    path.write_text("tangle m=1 n=1\nB 1 | \u00b2\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert out.startswith("problem: line 2:")


def test_validate_reports_a_top_count_off_the_header(tmp_path, capsys):
    path = tmp_path / "short_top.tng"
    path.write_text("tangle m=1 n=3\nB 1 | 1\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (2, "")
    assert out == "problem: header says n=3 but B lists 1 top points\n"


def test_validate_reports_a_non_utf8_file_in_band(tmp_path, capsys):
    path = tmp_path / "latin1.tng"
    path.write_bytes(b"tangle m=1 n=1\nB 1 | 1\n# caf\xe9\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert out.startswith(f"problem: line 0: cannot read {path}: 'utf-8' codec")


def test_p_of_a_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.tng"
    path.write_bytes(b"\xfftangle m=1 n=1\nB 1 | 1\n")
    code, out, err = run(capsys, "p", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 0: cannot read {path}:")


def test_validate_json_of_a_nonplanar_file_is_pinned(capsys):
    code, out, err = run(capsys, "validate",
                         str(FIXTURES / "bad" / "bad_nonplanar.tng"), "--json")
    assert (code, err) == (2, "")
    assert out == ('{\n  "ok": false,\n  "problems": [\n'
                   '    "nonplanar or inconsistent rotation system"\n  ]\n}\n')


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate",
                       str(FIXTURES / "bad" / "bad_count.tng"), "--json")
    assert code == 2
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["problems"]


# planarity checks per command: one per input diagram value, so the
# command's own validation repeats none of load_tng's; `states` also checks
# its four state diagrams, and `verify` the 22 files of the manifest
@pytest.mark.parametrize("argv, checks", [
    (("p", "trefoil.tng"), 1),
    (("bracket", "trefoil.tng"), 1),
    (("invariant", "--all-k", "theta.tng"), 1),
    (("invariant", "--rho", "2", "--all-k", "theta.tng"), 1),
    (("rho", "theta.tng"), 1),
    (("states", "--rho", "2", "theta.tng"), 5),
    (("validate", "theta.tng"), 1),
    (("verify", "moves.manifest"), 22),
])
def test_each_input_is_checked_for_planarity_once(argv, checks, capsys,
                                                  planarity_calls):
    code, _, _ = run(capsys, *argv[:-1], fixture_path(argv[-1]))
    assert code == 0
    assert len(planarity_calls) == checks
    assert len(set(map(id, planarity_calls))) == checks


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "p", "/nonexistent/nothing.tng")
    assert code == 2
    assert "cannot read" in err


def test_missing_manifest_is_a_parse_error(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/nothing.manifest")
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_manifest_is_a_parse_error(tmp_path, capsys):
    manifest = tmp_path / "latin1.manifest"
    manifest.write_bytes(b"# \xff\n")
    code, _, err = run(capsys, "verify", str(manifest))
    assert code == 2
    assert err.startswith(f"error: line 0: cannot read {manifest}:")


def test_missing_pair_file_is_named(tmp_path, capsys):
    manifest = tmp_path / "pairs.manifest"
    manifest.write_text(
        f"pair gone {FIXTURES / 'circle.tng'} absent.tng R1 exact\n")
    code, _, err = run(capsys, "verify", str(manifest))
    assert code == 2
    assert err == (f"error: line 0: cannot read {tmp_path / 'absent.tng'}: "
                   "No such file or directory\n")


@pytest.mark.parametrize("argv", [
    [],
    ["unknown-command"],
    ["p"],
    ["p", "--bogus-flag", "x.tng"],
    ["invariant", "somefile.tng"],
    ["basis", "two", "2"],
    ["invariant", fixture_path("theta.tng"), "--all-k", "--threads", "4"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_import_does_not_load_concurrent_futures():
    src = FIXTURES.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tanglepoly.cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


COLD_START = """
import io, sys
from contextlib import redirect_stdout
import tanglepoly
core = [m for m in ("diagram", "pairing", "enhanced", "laurent", "skein",
                    "moves") if "tanglepoly." + m not in sys.modules]
import tanglepoly.cli
LAZY = ("dataclasses", "inspect", "json", "tanglepoly.generate")
loaded = {"import": [m for m in LAZY if m in sys.modules]}
fx = sys.argv[1]
for argv in (["validate", fx + "/trefoil.tng"], ["p", fx + "/trefoil.tng"],
             ["bracket", fx + "/trefoil.tng"],
             ["invariant", fx + "/theta.tng", "--all-k"],
             ["verify", fx + "/moves.manifest"],
             ["states", fx + "/theta.tng", "--rho", "0"],
             ["rho", fx + "/theta.tng"], ["basis", "2", "2"],
             ["pairing", "2", "2"], ["p", "--json", fx + "/trefoil.tng"]):
    with redirect_stdout(io.StringIO()):
        code = tanglepoly.cli.main(argv)
    key = argv[0] + " --json" * ("--json" in argv)
    loaded[key] = [code] + [m for m in LAZY if m in sys.modules]
lazy = (tanglepoly.random_trivalent
        is sys.modules["tanglepoly.generate"].random_trivalent)
names = {}
exec("from tanglepoly import *", names)
unbound = sorted(set(tanglepoly.__all__) - names.keys())
import json
print(json.dumps([core, loaded, lazy, unbound]))
"""


def test_cli_cold_start_imports_no_dataclasses_or_generators():
    # the bench reads the six core modules from sys.modules after
    # `import tanglepoly`; generate loads on first use, and json only
    # under --json, so no command without it compiles either
    src = FIXTURES.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START, str(FIXTURES)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    core, loaded, lazy, unbound = json.loads(proc.stdout)
    assert core == []
    assert loaded.pop("import") == []
    assert loaded.pop("p --json") == [0, "json"]
    assert loaded == {cmd: [0] for cmd in (
        "validate", "p", "bracket", "invariant", "verify", "states", "rho",
        "basis", "pairing")}
    assert lazy is True
    assert unbound == []
    for path in src.rglob("*.py"):
        text = path.read_text()
        assert "import dataclasses" not in text, path
        assert "from dataclasses" not in text, path


def test_module_entry_point():
    src = FIXTURES.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "tanglepoly", "p",
         fixture_path("sigma_cubed.tng"), "--k", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stdout == "P(D)_1 = 3.000000000 + 0.000000000i\n"


FIXTURE_FILES = sorted(str(p) for p in FIXTURES.rglob("*") if p.is_file())
FILE_COMMANDS = ("bracket", "p", "rho", "states", "invariant", "verify",
                 "validate")


@st.composite
def _flags(draw):
    argv = []
    for flag in draw(st.lists(st.sampled_from(("--json", "--k", "--rho",
                                               "--all-k")), unique=True)):
        argv.append(flag)
        if flag == "--k":
            argv.append(str(draw(st.sampled_from((-1, 0, 1, 2, 13, 24)))))
        elif flag == "--rho":
            argv.append(str(draw(st.integers(-1, 3))))
    return argv


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", FILE_COMMANDS)
@settings(max_examples=15)
@given(flags=_flags())
def test_no_traceback_on_any_fixture_file(command, flags):
    for path in FIXTURE_FILES:
        assert _exit_code([command, path, *flags]) in (0, 1, 2, 3), path


@pytest.mark.parametrize("command", ["basis", "pairing"])
@settings(max_examples=25)
@given(m=st.integers(-1, 5), n=st.integers(-1, 5), flags=_flags())
def test_no_traceback_on_any_boundary_counts(command, m, n, flags):
    assert _exit_code([command, str(m), str(n), *flags]) in (0, 1, 2, 3)


# counts of as many digits as Python prints and of one more: beside a
# count of 2 the first sums to one digit too many, and the second is too
# long itself
_LONG_COUNTS = ["9" * (INT_DIGITS or 4300), "1" + "0" * (INT_DIGITS or 4300)]


@st.composite
def _tng_texts(draw):
    """Small random .tng text over labels 1..k: a header, up to three node
    or circle lines, a B line and an optional T line."""
    label = st.integers(1, draw(st.integers(1, 6))).map(str)
    counts = [str(draw(st.integers(0, 3))) for _ in "mn"]
    long = draw(st.sampled_from([None, *_LONG_COUNTS]))
    if long:
        counts[draw(st.integers(0, 1))] = long
    lines = ["tangle m={} n={}".format(*counts)]
    for tag, arity in draw(st.lists(st.sampled_from(
            (("X", 4), ("V", 3), ("F", 4), ("O", 1))), max_size=3)):
        lines.append(" ".join([tag, *draw(st.lists(
            label, min_size=arity, max_size=arity))]))
    lines.append(" ".join(["B", *draw(st.lists(label, max_size=3)), "|",
                           *draw(st.lists(label, max_size=3))]))
    if draw(st.booleans()):
        lines.append(" ".join(["T", *draw(st.lists(label, max_size=2))]))
    return "\n".join(lines) + "\n"


@settings(max_examples=60)
@given(text=_tng_texts(), rho=st.sampled_from([[], ["--rho", "0"]]))
def test_no_traceback_on_any_random_text(text, rho, tmp_path_factory):
    folder = tmp_path_factory.mktemp("text")
    path = folder / "random.tng"
    path.write_text(text)
    manifest = folder / "random.manifest"
    manifest.write_text(f"pair random {path} {path} M3 exact\n")
    for argv in (["bracket", str(path)], ["p", str(path)], ["rho", str(path)],
                 ["states", str(path), *rho],
                 ["invariant", str(path), "--all-k", *rho],
                 ["verify", str(manifest)], ["validate", str(path)]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = _exit_code(argv)
        assert code in (0, 2, 3), (argv, text)
        if argv[0] == "validate":
            # problems go to stdout, one line each
            assert err.getvalue() == "", (argv, text)
            assert code == 0 or out.getvalue().startswith("problem: ")
        elif code:
            assert err.getvalue().startswith("error: "), (argv, text)
            assert err.getvalue().count("\n") == 1, (argv, text)
