"""Layered benchmark for tanglepoly.

    python3 bench/run.py --workload braid|graph|cli|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Workloads (why each was chosen is in BENCHMARK.json):

* braid: P(D) and its eight root values, in-process, for (2,2) tangles of
  8 to 12 crossings: a cup, a braid word on four strands, a cap.  Their
  bracket vectors are checked too, untimed, after the pass.
* graph: I(G) and its eight root values, in-process, for closed trivalent
  graphs of 6 to 8 vertices from `generate.random_trivalent` and 3- and
  4-rung ladder spines.
* cli: one `python -m tanglepoly` process per command, one after another.

End-to-end metrics (BENCHMARK.json gives units and bounds):

* item_p50_ms, item_p90_ms: median and 90th percentile of the time per
  input, from the call (or process spawn) to the exact polynomial and its
  eight root values (or process exit).  A run has at least 100 inputs.
* items_per_s: inputs over the sum of their per-input times (the pass
  also runs a calibration kernel and the output check between inputs).
* setup_s: median of repeated set-ups: input generation, package import
  and cache warm-up (cli: writing the input files and one warm-up process).
* peak_rss_mib: peak resident memory of the benchmark process (cli: of the
  largest child process).

The failure ratio is `failed / attempted` in the result object; it is not
a listed metric because it is 0 on a correct program.

With `--trace 0` the run measures the end-to-end metrics with tracing off;
with `--trace 1` it reports the per-layer metrics of a traced pass (see
`tracing.py`).  Times are scaled to a reference machine speed by a
calibration kernel timed next to every measurement (see `calibrate.py`);
the unscaled figures are printed and kept in the result file.  Every output
is checked against the frozen pool; a wrong result, an exception or an
unexpected exit code counts as failed.

Stdout carries a readable report, one `{"env": ...}` line, and as its last
line the result object `{"correct", "attempted", "failed", "metrics"}`.
The full result, environment included, is also written under
`bench/.work/results/`.  `--workload all` runs each workload in its own
process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import envinfo  # noqa: E402
import workloads as wl  # noqa: E402


def load_spec() -> dict:
    path = wl.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise wl.BenchError(f"{path} missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    wl.require_source()
    spec = load_spec()
    pool = wl.load_pool()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        result = wl.traced_pass(workload, pool, seed, seconds)
        values = result["metrics"]
        attempted, failed = result["attempted"], result["failed"]
        extra = {}
    else:
        values = wl.timed_pass(workload, pool, seed, seconds)
        attempted, failed = values["attempted"], values["failed"]
        extra = {key: values[key] for key in ("fail_ratio", "samples", "raw")}
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise wl.BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    env = envinfo.environment(seed)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(f"  {'fail_ratio':<32} {extra['fail_ratio']:>14.6g} ratio")
        print(f"  {'samples':<32} {extra['samples']:>14d} count")
        for name, value in extra["raw"].items():
            print(f"  {'unscaled ' + name:<32} {value:>14.6g}")
    record = {"workload": workload, "trace": int(trace), "env": env,
              "attempted": attempted, "failed": failed,
              "metrics": metrics, **extra}
    out = wl.WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one table and a combined result."""
    combined: dict = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
    rows = []
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        record = json.loads(
            (wl.WORK / "results" /
             f"{workload}-seed{seed}-trace{int(trace)}.json").read_text())
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
        if not trace:
            rows.append((workload, "fail_ratio", record["fail_ratio"], "ratio"))
    for workload, name, value, unit in rows:
        print(f"{workload:<6} {name:<32} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark for tanglepoly.")
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    calibrate.pin_to_one_cpu()
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except wl.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
