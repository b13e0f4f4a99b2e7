"""Span recorder for the traced benchmark run.

The recorder lives entirely outside the package.  `installed()` replaces
public functions at the module attribute through which their callers look
them up (for example `pairing.bracket`, the name `p_poly` resolves at call
time) with wrappers that open a span, and restores the originals on exit.
A span is `[name, start, end, parent, input_id]`; times come from
`time.perf_counter()`.  Spans stay in memory until the run writes them out.

Hot leaf functions (`skein.resolve_flat`, `LaurentPoly.__mul__`) are counted,
not spanned: their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter

#: Counters every traced run reports, whether or not its inputs reach them.
COUNTERS = (
    "skein.flat_leaves", "diagram.merge_edges_calls", "skein.basis_size",
    "pairing.matrix_entries", "pairing.products", "enhanced.enhancements",
    "enhanced.states", "enhanced.zero_states", "laurent.mul_calls",
    "moves.pairs", "cli.exit_mismatches",
)
LAYERS = ("cli", "diagram", "skein", "pairing", "enhanced", "laurent", "moves")

#: Span name -> (per-layer metric, "self" or "total").  Times are reported
#: in milliseconds per input item.
SPAN_METRICS = {
    "skein.bracket": ("skein.bracket_self_ms", "self"),
    "diagram.merge_edges": ("diagram.merge_edges_ms", "total"),
    "skein.basis": ("skein.basis_ms", "total"),
    "pairing.matrix": ("pairing.matrix_ms", "total"),
    "pairing.p_poly": ("pairing.p_poly_self_ms", "self"),
    "enhanced.enumerate": ("enhanced.enumerate_ms", "total"),
    "enhanced.contract": ("enhanced.contract_ms", "total"),
    "enhanced.state_polys": ("enhanced.state_sum_self_ms", "self"),
    "enhanced.invariant_rho": ("enhanced.state_sum_self_ms", "self"),
    "enhanced.invariant_total": ("enhanced.state_sum_self_ms", "self"),
    "laurent.eval": ("laurent.eval_ms", "total"),
    "diagram.load": ("diagram.load_ms", "total"),
    "diagram.validate": ("diagram.validate_ms", "total"),
    "moves.verify_pair": ("moves.verify_pair_ms", "total"),
}

CLI_SUBCOMMANDS = ("p", "invariant", "bracket", "verify", "validate")


class Recorder:
    """In-memory spans and work counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = dict.fromkeys(
            COUNTERS + tuple(f"{layer}.errors" for layer in LAYERS), 0)
        self.input_id = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.input_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, input_id: str | None = None):
        if input_id is not None:
            self.input_id = input_id
        idx = self.open(name)
        try:
            yield
        except Exception:
            self.counters[f"{name.split('.')[0]}.errors"] += 1
            raise
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, on_result=None):
        layer = name.split(".")[0]
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[f"{layer}.errors"] += 1
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def count(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": self.counters, "spans": self.spans}, fh)


def _patches(rec: Recorder, mods: dict) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced lookup point.

    A module missing from `mods` (the cli, in-process) is left alone.
    """
    sk, pa, en = mods["skein"], mods["pairing"], mods["enhanced"]
    mv, dg, la = mods["moves"], mods["diagram"], mods["laurent"]
    cl = mods.get("cli")
    c = rec.counters
    matrix_cache = pa.pairing_matrix

    def on_bracket(vec):
        # p_poly multiplies every pair of nonzero coordinates once
        nnz = sum(1 for x in vec.coords if x)
        c["pairing.products"] += nnz * nnz

    def on_basis(basis):
        c["skein.basis_size"] = max(c["skein.basis_size"], len(basis))

    misses = [matrix_cache.cache_info().misses]

    def on_matrix(matrix):
        now = matrix_cache.cache_info().misses
        if now != misses[0]:
            c["pairing.matrix_entries"] += len(matrix.entries) ** 2
            misses[0] = now

    def on_enhancements(rhos):
        c["enhanced.enhancements"] += len(rhos)

    def on_states(entries):
        c["enhanced.states"] += len(entries)
        c["enhanced.zero_states"] += sum(1 for _, p in entries if not p)

    def on_merge(_):
        c["diagram.merge_edges_calls"] += 1

    def on_pair(_):
        c["moves.pairs"] += 1

    table = [
        ("skein.bracket", [pa, cl], "bracket", on_bracket),
        ("diagram.merge_edges", [sk, en], "merge_edges", on_merge),
        ("skein.basis", [sk, pa, cl], "enumerate_basis", on_basis),
        ("pairing.matrix", [pa, cl], "pairing_matrix", on_matrix),
        ("pairing.p_poly", [pa, en, mv, cl], "p_poly", None),
        ("enhanced.enumerate", [en, cl], "enumerate_enhancements",
         on_enhancements),
        ("enhanced.contract", [en, cl], "contract", None),
        ("enhanced.state_polys", [en, cl], "state_polys", on_states),
        ("enhanced.invariant_rho", [en, mv, cl], "invariant_rho_poly", None),
        ("enhanced.invariant_total", [en, mv, cl], "invariant_total_poly",
         None),
        ("diagram.validate", [dg, cl], "validate", None),
        ("diagram.load", [mv, cl], "load_tng", None),
        ("moves.verify_pair", [mv], "verify_pair", on_pair),
    ]
    out = []
    for name, owners, attr, hook in table:
        for owner in filter(None, owners):
            out.append((owner, attr, rec.wrap(name, getattr(owner, attr), hook)))
    out.append((sk, "resolve_flat",
                rec.count("skein.flat_leaves", sk.resolve_flat)))
    poly = la.LaurentPoly
    out.append((poly, "__mul__", rec.count("laurent.mul_calls", poly.__mul__)))
    out.append((poly, "eval_root", rec.wrap("laurent.eval", poly.eval_root)))
    return out


def package_modules() -> dict:
    """The package modules, imported if need be, keyed by layer name."""
    return {name: importlib.import_module(f"tanglepoly.{name}")
            for name in ("skein", "pairing", "enhanced", "moves", "diagram",
                         "laurent", "cli")}


@contextmanager
def installed(rec: Recorder, mods: dict | None = None):
    """Route the package's layer calls through `rec` for the block."""
    patches = _patches(rec, mods or package_modules())
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list], counters: dict[str, int],
                  n_items: int, scales: list[float] | None = None
                  ) -> dict[str, float]:
    """Per-layer metrics from spans (ms per item) and round counters.

    `scales` gives each span's calibration factor (see calibrate.scale).
    """
    ms: dict[str, float] = {metric: 0.0 for metric, _ in SPAN_METRICS.values()}
    main_total = {sub: 0.0 for sub in CLI_SUBCOMMANDS}
    main_count = {sub: 0 for sub in CLI_SUBCOMMANDS}
    selfs = self_times(spans)
    scales = scales or [1.0] * len(spans)
    for (name, start, end, _, _), own, f in zip(spans, selfs, scales):
        if name.startswith("cli.main."):
            sub = name[len("cli.main."):]
            main_total[sub] = main_total.get(sub, 0.0) + (end - start) * f
            main_count[sub] = main_count.get(sub, 0) + 1
            continue
        entry = SPAN_METRICS.get(name)
        if entry is None:
            continue
        metric, kind = entry
        ms[metric] += (own if kind == "self" else end - start) * f
    out = {metric: total * 1000.0 / max(n_items, 1)
           for metric, total in ms.items()}
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main_ms.{sub}"] = (
            main_total[sub] * 1000.0 / main_count[sub] if main_count[sub]
            else 0.0)
    for name, value in counters.items():
        if name != "enhanced.zero_states":
            out[name] = value
    states = counters["enhanced.states"]
    out["enhanced.zero_state_ratio"] = (
        counters["enhanced.zero_states"] / states if states else 0.0)
    return out
