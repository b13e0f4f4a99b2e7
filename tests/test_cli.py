import json
import random
import subprocess
import sys

import pytest

from conftest import FIXTURES, fixture_path
from tanglepoly.cli import complex_text, main
from tanglepoly.diagram import serialize_tng
from tanglepoly.laurent import ROOT_INDICES
from tanglepoly.moves import braid_pattern

DELTA2 = "q^4 + 2 + q^-4"
DELTA3 = "-q^6 - 3q^2 - 3q^-2 - q^-6"
DELTA4 = "q^8 + 4q^4 + 6 + 4q^-4 + q^-8"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complex_text_format():
    assert complex_text(3 + 0j) == "3.000000000 + 0.000000000i"
    assert complex_text(-1.5 - 2.25j) == "-1.500000000 - 2.250000000i"
    # rounding squashes tiny parts to +0.0, never -0.0
    assert complex_text(1e-13 - 1e-13j) == "0.000000000 + 0.000000000i"


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


def test_p_at_a_root(capsys):
    code, out, _ = run(capsys, "p", fixture_path("one_crossing.tng"),
                       "--k", "1")
    assert code == 0
    assert out == "P(D)_1 = 3.000000000 + 0.000000000i\n"


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


def test_p_rejects_bad_root_index(capsys):
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


def test_invariant_threads_do_not_change_output(capsys):
    _, serial, _ = run(capsys, "invariant", fixture_path("theta.tng"),
                       "--all-k", "--threads", "1")
    _, threaded, _ = run(capsys, "invariant", fixture_path("theta.tng"),
                         "--all-k", "--threads", "4")
    assert serial == threaded


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


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate",
                       str(FIXTURES / "bad" / "bad_count.tng"), "--json")
    assert code == 2
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["problems"]


def test_missing_file_is_a_parse_error(capsys):
    code, _, err = run(capsys, "p", "/nonexistent/nothing.tng")
    assert code == 2
    assert "cannot read" in err


def test_missing_manifest_is_a_parse_error(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/nothing.manifest")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("argv", [
    [],
    ["unknown-command"],
    ["p"],
    ["p", "--bogus-flag", "x.tng"],
    ["invariant", "somefile.tng"],
    ["basis", "two", "2"],
])
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tanglepoly", "p",
         fixture_path("sigma_cubed.tng"), "--k", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "P(D)_1 = 3.000000000 + 0.000000000i\n"
