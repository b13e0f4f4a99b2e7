"""Inputs, set-up and timed passes for the three benchmark workloads.

Every input comes from the frozen pool in `data/pool.json`, which also holds
each input's exact expected result, taken from the package at the commit
that introduced the benchmark (see `freeze.py`).  A run draws its inputs in
rounds.  A round takes PER_CLASS[workload] inputs from every class of the
workload (a seeded draw within the class; None takes the whole class) and
shuffles them.  Rounds are always completed, so every run has the same
class mix whatever the host's speed:

* braid: one tangle of each crossing count from 8 to 12.
* graph: every pool input: the random graphs and both ladders.  Seeded
  independent draws from the random graphs' long-tailed costs do not give
  steady percentiles (five seeds on a 2-core Xeon host: 18-27% quartile
  spread of item_p50_ms and item_p90_ms, against 3-4% for whole-pool
  rounds); the seed still sets the order.
* cli: one command of each kind, `p` once for each width 4, 5 and 6.

All load is a closed loop with one client: the next input starts when the
previous result is complete.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
POOL_PATH = BENCH_DIR / "data" / "pool.json"

ROOT_INDICES = (1, 5, 7, 11, 13, 17, 19, 23)

#: Inputs per class in one round; None takes the whole class.
PER_CLASS = {"braid": 1, "graph": None, "cli": 1}
WORKLOADS = tuple(PER_CLASS)

#: The 90th percentile needs ten samples beyond it.
MIN_SAMPLES = 100
#: Rounds drawn before timing; a pass stops at the first round boundary
#: after both the time and MIN_SAMPLES are reached.
MAX_ROUNDS = 400
#: Hard stop for a pass, well inside the 180 s a run may take.
PASS_CAP_S = 120.0
#: Set-up is repeated this often per run; setup_s is the median.
SETUP_REPEATS = 15
STARTUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run here (no package source, no pool)."""


def require_source() -> None:
    if not (SRC / "tanglepoly" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_pool() -> dict:
    if not POOL_PATH.is_file():
        raise BenchError(f"frozen pool {POOL_PATH} missing")
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# input builders (shared with freeze.py)


def _braid(ends: list[int], word) -> list[tuple[int, ...]]:
    """Crossings of a braid word on the strand ends `ends`, which it moves
    to the top; word items are (generator index, sign).  Same crossing
    convention as `moves.braid_pattern`."""
    nxt = max(ends) + 1
    crossings = []
    for gen, sign in word:
        x, y = ends[gen], ends[gen + 1]
        u, v = nxt, nxt + 1
        nxt += 2
        crossings.append((y, v, u, x) if sign > 0 else (x, y, v, u))
        ends[gen], ends[gen + 1] = u, v
    return crossings


def _tng(m: int, n: int, crossings, bottom, top) -> str:
    lines = [f"tangle m={m} n={n}"]
    lines += ["X " + " ".join(map(str, c)) for c in crossings]
    lines.append(f"B {' '.join(map(str, bottom))} | {' '.join(map(str, top))}")
    return "\n".join(lines) + "\n"


def braid_tng(strands: int, word) -> str:
    """.tng text of a braid on `strands` strands."""
    ends = list(range(1, strands + 1))
    crossings = _braid(ends, word)
    return _tng(strands, strands, crossings, range(1, strands + 1), ends)


def tangle_tng(word) -> str:
    """.tng text of a (2,2) tangle: a cup between the two bottom strands, a
    braid word on the four strands above it, a cap on the middle two ends.

    Unlike a two-strand braid, whose P(D) is the same for every word, such
    tangles have P(D) that depends on the word.  Raises ValueError when the
    cap closes the cup into a circle.
    """
    ends = [1, 3, 3, 2]
    crossings = _braid(ends, word)
    a, b, c, d = ends
    if b == c:
        raise ValueError("the cap closes the cup into a circle")
    crossings = [tuple(b if e == c else e for e in x) for x in crossings]
    return _tng(2, 2, crossings, (1, 2), (a, d))


def entry_tng(workload: str, entry: dict) -> str:
    if workload == "braid":
        return tangle_tng(entry["word"])
    return entry["tng"]


def poly_eval(terms: dict[int, int], k: int) -> complex:
    """Value at q = exp(k*pi*i/12), computed independently of the package."""
    return sum((c * cmath.exp(1j * math.pi * ((k * e) % 24) / 12)
                for e, c in terms.items()), complex(0))


def make_rounds(pool: dict, workload: str, seed: int,
                round_spec: dict | None = None,
                n_rounds: int = MAX_ROUNDS) -> list[list[dict]]:
    """Seeded rounds of pool entries: a fixed count per class (None: the
    whole class), shuffled.  `round_spec` maps class to count; it defaults
    to PER_CLASS for every class of the workload."""
    classes = pool[workload]["classes"]
    spec = round_spec or dict.fromkeys(classes, PER_CLASS[workload])
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for _ in range(n_rounds):
        items: list[dict] = []
        for cls, count in spec.items():
            entries = classes[cls]
            items.extend(entries if count is None
                         else rng.sample(entries, count))
        rng.shuffle(items)
        rounds.append(items)
    return rounds


def distinct(rounds: list[list[dict]]) -> list[dict]:
    """Each entry of the rounds once, in first-use order."""
    return list({e["id"]: e for rnd in rounds for e in rnd}.values())


# ---------------------------------------------------------------------------
# statistics


def summarize(samples: list[float], setup: list[float], rss_mib: float,
              attempted: int, failed: int) -> dict:
    """End-to-end metrics from per-input seconds and set-up seconds.

    items_per_s is the inputs over the summed per-input times, not over the
    pass's wall time: the pass also runs a calibration kernel and the output
    check between inputs, and neither is the program's work.
    """
    return {
        "item_p50_ms": statistics.median(samples) * 1000.0,
        "item_p90_ms": statistics.quantiles(samples, n=10)[8] * 1000.0,
        "items_per_s": len(samples) / sum(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss_mib,
        "fail_ratio": failed / attempted,
        "samples": len(samples),
        "attempted": attempted,
        "failed": failed,
    }


def _done(start: float, seconds: float, samples: int = MIN_SAMPLES) -> bool:
    """Whether a pass begun at `start` may stop; without `samples` only the
    time counts."""
    elapsed = time.perf_counter() - start
    return elapsed >= PASS_CAP_S or (elapsed >= seconds
                                     and samples >= MIN_SAMPLES)


# ---------------------------------------------------------------------------
# in-process workloads: braid and graph


class InProcess:
    """Set-up state for braid or graph: package modules, parsed inputs."""

    def __init__(self, workload: str, rounds: list[list[dict]]):
        self.workload = workload
        self.entries = distinct(rounds)
        self.mods: dict = {}
        self.diagrams: dict[str, object] = {}
        self.expected: dict[str, tuple[dict, list[complex]]] = {}

    def setup(self) -> float:
        """Import the package afresh, parse inputs, warm caches; seconds."""
        start = time.perf_counter()
        for name in [m for m in sys.modules
                     if m == "tanglepoly" or m.startswith("tanglepoly.")]:
            del sys.modules[name]
        importlib.import_module("tanglepoly")
        self.mods = {name: sys.modules[f"tanglepoly.{name}"]
                     for name in ("diagram", "pairing", "enhanced", "laurent",
                                  "skein", "moves")}
        parse = self.mods["diagram"].parse_tng
        self.diagrams, self.expected = {}, {}
        for entry in self.entries:
            key = entry["id"]
            self.diagrams[key] = parse(entry_tng(self.workload, entry))
            terms = {e: c for e, c in entry["terms"]}
            self.expected[key] = (terms, [poly_eval(terms, k)
                                          for k in ROOT_INDICES])
        boundaries = {(d.m, d.n) for d in self.diagrams.values()}
        for m, n in sorted(boundaries):
            self.mods["pairing"].pairing_matrix(m, n)
        for i in range(32):
            self.mods["laurent"].delta_power(i)
        return time.perf_counter() - start

    def compute(self, key: str):
        """The workload's result for one input: exact polynomial and roots."""
        d = self.diagrams[key]
        if self.workload == "braid":
            poly = self.mods["pairing"].p_poly(d)
        else:
            poly = self.mods["enhanced"].invariant_total_poly(d)
        return poly, [poly.eval_root(k) for k in ROOT_INDICES]

    def check(self, key: str, result) -> bool:
        poly, values = result
        terms, roots = self.expected[key]
        if poly.terms != terms:
            return False
        scale = 1.0 + sum(abs(c) for c in terms.values())
        return all(abs(v - r) <= 1e-9 * scale for v, r in zip(values, roots))

    def check_brackets(self, entries: list[dict]) -> tuple[int, int]:
        """(checked, failed) for the untimed bracket vectors of braid
        entries, against their frozen vectors.

        P(D) = v A bar(v) cannot catch a bracket v that is off by a unit or
        mirrored (A and A^-1 swapped): both leave it unchanged.
        """
        failed = 0
        for entry in entries:
            try:
                got = [c.terms for c in
                       self.mods["skein"].bracket(self.diagrams[entry["id"]])
                       .coords]
            except Exception:
                failed += 1
                continue
            failed += got != [dict(terms) for terms in entry["bracket"]]
        return len(entries), failed

    def run_item(self, entry: dict) -> tuple[float, bool]:
        """(seconds, output correct) for one input."""
        key = entry["id"]
        start = time.perf_counter()
        try:
            result = self.compute(key)
        except Exception:
            return time.perf_counter() - start, False
        elapsed = time.perf_counter() - start
        return elapsed, self.check(key, result)

    def traced_item(self, entry: dict, rec) -> tuple[float, bool]:
        """run_item inside a `bench.item` span; the caller installs the
        recorder's wrappers."""
        with rec.span("bench.item", entry["id"]):
            return self.run_item(entry)


# ---------------------------------------------------------------------------
# cli workload: one process per command


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliLoad:
    """Set-up state for the cli workload: input files on disk."""

    def __init__(self, pool: dict, rounds: list[list[dict]]):
        self.pool = pool["cli"]
        self.entries = distinct(rounds)
        self.inputs = WORK / "inputs"
        self.env = python_env()

    def setup(self) -> float:
        """Write every input file, then start one warm-up process; seconds."""
        start = time.perf_counter()
        if self.inputs.exists():
            shutil.rmtree(self.inputs)
        for rel, text in self.pool["files"].items():
            path = self.inputs / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        for entry in self.entries:
            if "word" in entry:
                path = self.inputs / entry["argv"][-1]
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(braid_tng(entry["strands"], entry["word"]),
                                encoding="utf-8")
        warm = subprocess.run(
            [sys.executable, "-m", "tanglepoly", "validate",
             self.pool["warmup"]],
            cwd=self.inputs, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, check=False)
        if warm.returncode != 0:
            raise BenchError("warm-up command failed")
        return time.perf_counter() - start

    def command(self, entry: dict, trace_out: Path | None = None) -> list[str]:
        if trace_out is None:
            return [sys.executable, "-m", "tanglepoly", *entry["argv"]]
        return [sys.executable, str(BENCH_DIR / "trace_cli.py"),
                str(trace_out), entry["id"], *entry["argv"]]

    def _spawn(self, entry: dict,
               trace_out: Path | None = None) -> tuple[float, bool, bool]:
        """(seconds, output correct, exit code as expected)."""
        start = time.perf_counter()
        proc = subprocess.run(self.command(entry, trace_out), cwd=self.inputs,
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
        elapsed = time.perf_counter() - start
        exit_ok = proc.returncode == entry["exit"]
        ok = exit_ok and _digest(proc.stdout) == entry["stdout_sha256"]
        return elapsed, ok, exit_ok

    def run_item(self, entry: dict) -> tuple[float, bool]:
        """(seconds, output correct) for one command."""
        return self._spawn(entry)[:2]

    def traced_item(self, entry: dict, rec) -> tuple[float, bool]:
        """run_item through trace_cli.py; the child's spans and counters are
        merged into rec."""
        child_out = WORK / "trace" / "child.json"
        child_out.parent.mkdir(parents=True, exist_ok=True)
        elapsed, ok, exit_ok = self._spawn(entry, child_out)
        rec.counters["cli.exit_mismatches"] += not exit_ok
        with open(child_out, encoding="utf-8") as fh:
            child = json.load(fh)
        child_out.unlink()
        offset = len(rec.spans)
        for span in child["spans"]:
            if span[3] >= 0:
                span[3] += offset
            rec.spans.append(span)
        for name, value in child["counters"].items():
            if name == "skein.basis_size":
                rec.counters[name] = max(rec.counters[name], value)
            else:
                rec.counters[name] += value
        return elapsed, ok


def peak_children_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def peak_self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def startup_ms() -> float:
    """Median scaled wall time of a process that only imports tanglepoly.cli."""
    env = python_env()

    def one() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tanglepoly.cli"],
                       env=env, check=True)
        return time.perf_counter() - start

    scaled, _ = calibrate.measure(one, STARTUP_REPEATS)
    return statistics.median(scaled) * 1000.0


# ---------------------------------------------------------------------------
# passes


def run_round(load, rnd: list[dict],
              kernels: list[float] | None = None) -> tuple[list[float], int]:
    """Seconds per input and failures of an untraced round; a calibration
    kernel runs before each input when `kernels` collects its times."""
    samples, failed = [], 0
    for entry in rnd:
        if kernels is not None:
            kernels.append(calibrate.kernel_seconds())
        elapsed, ok = load.run_item(entry)
        samples.append(elapsed)
        failed += not ok
    return samples, failed


def make_load(workload: str, pool: dict, rounds):
    if workload == "cli":
        return CliLoad(pool, rounds)
    return InProcess(workload, rounds)


def timed_pass(workload: str, pool: dict, seed: int, seconds: float,
               round_spec: dict | None = None) -> dict:
    """Untraced run: end-to-end metrics, scaled to the reference speed.

    The unscaled figures are returned under "raw".
    """
    rounds = make_rounds(pool, workload, seed, round_spec)
    load = make_load(workload, pool, rounds)
    setup, raw_setup = calibrate.measure(load.setup, SETUP_REPEATS)
    samples: list[float] = []
    kernels: list[float] = []
    failed = 0
    start = time.perf_counter()
    for rnd in rounds:
        s, f = run_round(load, rnd, kernels)
        samples.extend(s)
        failed += f
        if _done(start, seconds, len(samples)):
            break
    kernels.append(calibrate.kernel_seconds())
    rss = (peak_children_rss_mib() if workload == "cli"
           else peak_self_rss_mib())
    checked, bad = (load.check_brackets(rounds[0]) if workload == "braid"
                    else (0, 0))
    attempted, failed = len(samples) + checked, failed + bad
    scaled = [s * f for s, f in zip(samples, calibrate.scale(kernels))]
    result = summarize(scaled, setup, rss, attempted, failed)
    raw = summarize(samples, raw_setup, rss, attempted, failed)
    result["raw"] = {key: raw[key] for key in
                     ("item_p50_ms", "item_p90_ms", "items_per_s", "setup_s")}
    result["raw"]["kernel_ms"] = statistics.median(kernels) * 1000.0
    return result


def traced_pass(workload: str, pool: dict, seed: int, seconds: float,
                round_spec: dict | None = None,
                spans_out: Path | None = None) -> dict:
    """Traced run: per-layer metrics.

    In the first round every input runs untraced and then traced right
    after it; the two sums give trace.overhead_ratio, and the work counters
    are those of this round, so they repeat exactly for a seed.  Further
    traced rounds run until the time is up and add to the per-input times.
    The spans of each traced input are scaled by the kernels around it, by
    the same rule as the untraced pass.
    """
    import tracing

    rounds = make_rounds(pool, workload, seed, round_spec)
    load = make_load(workload, pool, rounds)
    load.setup()
    rec = tracing.Recorder()

    def wrappers():
        if workload == "cli":
            return contextlib.nullcontext()
        return tracing.installed(rec, load.mods)

    start = time.perf_counter()
    kernels: list[float] = []
    # index of each traced input's first span, then the end of the last
    first_span: list[int] = []
    untraced = traced = 0.0
    failed = 0

    def traced_item(entry: dict) -> tuple[float, bool]:
        kernels.append(calibrate.kernel_seconds())
        first_span.append(len(rec.spans))
        return load.traced_item(entry, rec)

    for entry in rounds[0]:
        elapsed, ok = load.run_item(entry)
        untraced += elapsed
        failed += not ok
        with wrappers():
            elapsed, ok = traced_item(entry)
        traced += elapsed
        failed += not ok
    counts = dict(rec.counters)
    attempted = n_items = len(rounds[0])
    with wrappers():
        for rnd in rounds[1:]:
            if _done(start, seconds):
                break
            for entry in rnd:
                _, ok = traced_item(entry)
                failed += not ok
            n_items += len(rnd)
    kernels.append(calibrate.kernel_seconds())
    first_span.append(len(rec.spans))
    span_scales = [1.0] * len(rec.spans)
    for f, lo, hi in zip(calibrate.scale(kernels), first_span,
                         first_span[1:]):
        span_scales[lo:hi] = [f] * (hi - lo)
    metrics = tracing.layer_metrics(rec.spans, counts, n_items, span_scales)
    metrics["trace.overhead_ratio"] = traced / untraced
    spans_out = spans_out or WORK / "trace" / f"{workload}.json"
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    rec.dump(spans_out)
    metrics["cli.startup_ms"] = startup_ms()
    checked, bad = (load.check_brackets(rounds[0]) if workload == "braid"
                    else (0, 0))
    return {"metrics": metrics, "attempted": attempted + n_items + checked,
            "failed": failed + bad}
