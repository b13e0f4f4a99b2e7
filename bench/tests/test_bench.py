"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

wl.require_source()
POOL = wl.load_pool()
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())

#: Small rounds so each test runs in seconds.
SMALL = {
    "braid": {"c8": 2, "c9": 1},
    "graph": {"random": 4},
    "cli": {"bracket": 1, "validate": 1, "p4": 1},
}


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "WORK", tmp_path / "work")
    return tmp_path / "work"


def _one_round(workload, seed=3):
    return wl.make_rounds(POOL, workload, seed, SMALL[workload], n_rounds=1)


def _check_nesting(spans):
    for name, start, end, parent, input_id in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_input = spans[parent]
            assert p_start <= start and end <= p_end
            assert p_input == input_id


@pytest.mark.parametrize("workload", ["braid", "graph"])
def test_traced_and_untraced_outputs_are_identical(workload):
    rounds = _one_round(workload)
    load = wl.InProcess(workload, rounds)
    load.setup()
    keys = [entry["id"] for entry in rounds[0]]
    plain = [load.compute(key) for key in keys]
    rec = tracing.Recorder()
    with tracing.installed(rec, load.mods):
        traced = [load.compute(key) for key in keys]
    assert rec.spans
    for (p1, v1), (p2, v2) in zip(plain, traced):
        assert p1 == p2 and v1 == v2
    assert all(load.check(key, out) for key, out in zip(keys, traced))


def test_traced_cli_command_matches_untraced(work_dir):
    rounds = _one_round("cli")
    load = wl.CliLoad(POOL, rounds)
    load.setup()
    spans_out = work_dir / "spans.json"
    for entry in rounds[0]:
        runs = [subprocess.run(cmd, cwd=load.inputs, env=load.env,
                               capture_output=True, check=False)
                for cmd in (load.command(entry),
                            load.command(entry, spans_out))]
        assert runs[0].returncode == runs[1].returncode == entry["exit"]
        assert runs[0].stdout == runs[1].stdout
        child = json.loads(spans_out.read_text())
        _check_nesting(child["spans"])
        assert child["spans"][0][0] == f"cli.main.{entry['argv'][0]}"


@pytest.mark.parametrize("workload", ["braid", "graph"])
def test_spans_nest_and_self_times_fit_in_wall(workload):
    rounds = _one_round(workload)
    load = wl.InProcess(workload, rounds)
    load.setup()
    rec = tracing.Recorder()
    start = time.perf_counter()
    with tracing.installed(rec, load.mods):
        for entry in rounds[0]:
            load.traced_item(entry, rec)
    wall = time.perf_counter() - start
    _check_nesting(rec.spans)
    roots = [s for s in rec.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["bench.item"] * len(rounds[0])
    selfs = tracing.self_times(rec.spans)
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= wall


def test_self_time_subtracts_covered_child_time():
    spans = [["a", 0.0, 10.0, -1, "x"], ["b", 1.0, 3.0, 0, "x"],
             ["c", 2.0, 4.0, 0, "x"], ["d", 6.0, 7.0, 0, "x"]]
    assert tracing.self_times(spans) == [6.0, 2.0, 2.0, 1.0]


COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


@pytest.mark.parametrize("workload", ["braid", "graph", "cli"])
def test_work_counters_repeat_for_a_seed(workload, work_dir):
    runs = [wl.traced_pass(workload, POOL, 7, 0, SMALL[workload],
                           work_dir / f"spans{i}.json")
            for i in range(2)]
    first, second = (r["metrics"] for r in runs)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(first)
    assert {name: first[name] for name in COUNTS} == \
        {name: second[name] for name in COUNTS}
    work = {"braid": "skein.flat_leaves", "graph": "enhanced.states",
            "cli": "pairing.matrix_entries"}[workload]
    assert first[work] > 0
    assert first["laurent.mul_calls"] > 0
    assert runs[0]["failed"] == 0


def test_wrong_expected_value_raises_fail_ratio():
    pool = copy.deepcopy(POOL)
    entries = pool["braid"]["classes"]["c8"]
    entries[0]["terms"][0][1] += 1
    result = wl.timed_pass("braid", pool, 1, 0, {"c8": len(entries)})
    assert result["fail_ratio"] > 0
    assert result["failed"] == result["samples"] // len(entries)


def test_braid_results_depend_on_the_tangle():
    """A fixed answer for every (2,2) input must not pass the check."""
    for entries in POOL["braid"]["classes"].values():
        assert len({json.dumps(e["terms"]) for e in entries}) > 1
        assert len({json.dumps(e["bracket"]) for e in entries}) > 1


def _mirrored(vec, skein, laurent):
    return skein.vector_bar(vec)


def _times_unit(vec, skein, laurent):
    unit = laurent.LaurentPoly({3: -1})
    return skein.CoordinateVector(vec.basis,
                                  tuple(unit * c for c in vec.coords))


@pytest.mark.parametrize("wrong", [_mirrored, _times_unit])
def test_wrong_bracket_is_caught(wrong, monkeypatch):
    """A mirrored bracket or one off by a unit leaves P(D) unchanged, so the
    bracket vectors are checked on their own."""
    rounds = _one_round("braid")
    load = wl.InProcess("braid", rounds)
    load.setup()
    skein, laurent = load.mods["skein"], load.mods["laurent"]
    right = skein.bracket
    assert load.check_brackets(rounds[0]) == (len(rounds[0]), 0)
    monkeypatch.setattr(skein, "bracket",
                        lambda d: wrong(right(d), skein, laurent))
    assert load.check_brackets(rounds[0]) == (len(rounds[0]), len(rounds[0]))


def test_constant_p_poly_is_caught(monkeypatch):
    rounds = wl.make_rounds(POOL, "braid", 5, {"c8": 16}, n_rounds=1)
    load = wl.InProcess("braid", rounds)
    load.setup()
    fixed = load.mods["laurent"].delta_power(2)
    monkeypatch.setattr(load.mods["pairing"], "p_poly", lambda d: fixed)
    outcomes = [load.run_item(entry)[1] for entry in rounds[0]]
    assert not all(outcomes)


def test_wrong_cli_exit_code_counts_as_failure():
    pool = copy.deepcopy(POOL)
    entry = pool["cli"]["classes"]["validate"][0]
    entry["exit"] = 0
    load = wl.CliLoad(pool, [[entry]])
    load.setup()
    _, failed = wl.run_round(load, [entry])
    assert failed == 1


def test_every_per_layer_metric_is_mapped():
    mapping = json.loads((BENCH / "layer_map.json").read_text())
    mapped = {name for row in mapping["map"] for name in row["layer_metrics"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert all(set(row["on"]) <= workloads for row in mapping["map"])


def test_fails_without_package_source(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "braid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
