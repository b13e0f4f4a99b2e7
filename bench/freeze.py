"""Rebuild the frozen input pool and expected results in data/pool.json.

    python3 bench/freeze.py

Run from a checkout whose package results are the reference.  For every
input the pool stores the input itself and the package's exact result:
the term lists of P(D) and of the bracket vector for braid tangles, of I(G)
for graphs, and the exit code and stdout digest of each cli command.
Before writing, a subsample is confirmed against the package's independent
oracles: `skein.bracket_oracle` for the bracket vector and P(D) of every
braid tangle of at most 10 crossings, and
`enhanced.enhancements_by_vertex_sums` for every graph's enhancements.
Any disagreement aborts without writing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import envinfo
import workloads as wl

BRAID_CROSSINGS = (8, 9, 10, 11, 12)
BRAID_PER_CLASS = 16
ORACLE_MAX_CROSSINGS = 10
#: The first this many distinct 6- to 8-vertex graphs of random_trivalent.
#: With the two ladders the pool holds 65 inputs, so in whole-pool rounds
#: the median (rank 0.5 * 65 = 32.5) and the 90th percentile (0.9 * 65 =
#: 58.5) fall mid-way among one input's samples, not between two inputs.
RANDOM_GRAPHS = 63
GRAPH_VERTICES = (6, 8)
LADDER_RUNGS = (3, 4)
WIDE_STRANDS = (4, 5, 6)
WIDE_PER_CLASS = 8
GRAPH_GENERATOR_TRIES = 20000


def _terms(poly) -> list[list[int]]:
    return [[e, c] for e, c in poly.items_desc()]


def ladder_tng(rungs: int) -> str:
    """Closed ladder spine: two rails of `rungs` vertices, end rungs doubled.

    It has F(rungs + 3) enhancements (8 and 13 for 3 and 4 rungs).  The
    vertex rotations are the first planar choice found.
    """
    from tanglepoly.diagram import TangleDiagram, serialize_tng, validate

    labels = itertools.count(1)
    rung = {i: next(labels) for i in range(rungs)}
    extra = {0: next(labels), rungs - 1: next(labels)}
    rails = [{i: next(labels) for i in range(rungs - 1)} for _ in range(2)]
    vertices = []
    for rail in rails:
        for i in range(rungs):
            inc = [rung[i]]
            if i in extra:
                inc.append(extra[i])
            if i > 0:
                inc.append(rail[i - 1])
            if i < rungs - 1:
                inc.append(rail[i])
            vertices.append(inc)
    for flips in itertools.product((0, 1), repeat=len(vertices)):
        tri = tuple((v[0], v[2], v[1]) if f else tuple(v)
                    for v, f in zip(vertices, flips))
        d = TangleDiagram(m=0, n=0, trivalent=tri)
        if validate(d).ok:
            return serialize_tng(d)
    raise RuntimeError(f"no planar {rungs}-rung ladder found")


def oracle_p(v, d):
    """P(D) from the bracket vector v, paired by hand."""
    from tanglepoly.laurent import ZERO
    from tanglepoly.pairing import pairing_matrix

    a = pairing_matrix(d.m, d.n).entries
    total = ZERO
    for i, vi in enumerate(v.coords):
        for j, vj in enumerate(v.coords):
            if vi and vj:
                total = total + vi * a[i][j] * vj.bar()
    return total


def freeze_braid(checks: dict) -> dict:
    from tanglepoly.diagram import parse_tng
    from tanglepoly.pairing import p_poly
    from tanglepoly.skein import bracket, bracket_oracle

    classes = {}
    for c in BRAID_CROSSINGS:
        rng = random.Random(f"pool-tangle-{c}")
        words: list[list[list[int]]] = []
        while len(words) < BRAID_PER_CLASS:
            word = [[rng.randrange(3), rng.choice((1, -1))]
                    for _ in range(c)]
            try:
                wl.tangle_tng(word)
            except ValueError:
                continue
            if word not in words:
                words.append(word)
        entries = []
        for i, word in enumerate(words):
            d = parse_tng(wl.tangle_tng(word))
            poly, vec = p_poly(d), bracket(d)
            if c <= ORACLE_MAX_CROSSINGS:
                oracle = bracket_oracle(d)
                if oracle != vec or oracle_p(oracle, d) != poly:
                    raise SystemExit(f"oracle disagrees on tangle {word}")
                checks["braid_oracle"] += 1
            entries.append({"id": f"c{c}-{i:02d}", "word": word,
                            "terms": _terms(poly),
                            "bracket": [_terms(x) for x in vec.coords]})
        classes[f"c{c}"] = entries
    return {"classes": classes}


def freeze_graph(checks: dict) -> dict:
    from tanglepoly.diagram import parse_tng, serialize_tng
    from tanglepoly.enhanced import (enhancements_by_vertex_sums,
                                     enumerate_enhancements,
                                     invariant_total_poly)
    from tanglepoly.generate import random_trivalent

    def entry(cls_id, text, **extra):
        d = parse_tng(text)
        rhos = enumerate_enhancements(d)
        if set(rhos) != set(enhancements_by_vertex_sums(d)):
            raise SystemExit(f"enhancement oracle disagrees on {cls_id}")
        checks["graph_enhancement_oracle"] += 1
        return {"id": cls_id, "tng": text, "vertices": len(d.trivalent),
                "enhancements": len(rhos),
                "terms": _terms(invariant_total_poly(d)), **extra}

    random_graphs: list[dict] = []
    seen: set[str] = set()
    for gen_seed in range(GRAPH_GENERATOR_TRIES):
        if len(random_graphs) == RANDOM_GRAPHS:
            break
        d = random_trivalent(random.Random(gen_seed))
        text = serialize_tng(d)
        lo, hi = GRAPH_VERTICES
        if text in seen or not lo <= len(d.trivalent) <= hi:
            continue
        seen.add(text)
        random_graphs.append(entry(f"random-{len(random_graphs):02d}", text,
                                   generator_seed=gen_seed))
    if len(random_graphs) < RANDOM_GRAPHS:
        raise SystemExit("generator gave too few graphs")
    ladders = [entry(f"ladder{rungs}", ladder_tng(rungs))
               for rungs in LADDER_RUNGS]
    return {"classes": {"random": random_graphs, "ladder": ladders}}


def freeze_cli(work: Path) -> dict:
    fixtures = wl.ROOT / "fixtures"
    files = {str(p.relative_to(wl.ROOT)): p.read_text(encoding="utf-8")
             for p in sorted(fixtures.rglob("*"))
             if p.is_file() and p.suffix in (".tng", ".manifest")}
    tng = {rel: text for rel, text in files.items() if rel.endswith(".tng")}
    graphs = [rel for rel, text in tng.items() if "/bad/" not in rel
              and any(line.startswith(("V ", "F ")) for line in text.splitlines())]
    strands = [rel for rel, text in tng.items() if "/bad/" not in rel
               and rel not in graphs]
    classes: dict[str, list] = {
        "invariant": [{"argv": ["invariant", "--all-k", rel]} for rel in graphs],
        "bracket": [{"argv": ["bracket", rel]} for rel in strands],
        "validate": [{"argv": ["validate", rel]} for rel in tng
                     if "/bad/" in rel],
        "verify": [{"argv": ["verify", "fixtures/moves.manifest"]}],
    }
    for s in WIDE_STRANDS:
        rng = random.Random(f"pool-wide-{s}")
        entries = []
        for i in range(WIDE_PER_CLASS):
            word = [[rng.randrange(s - 1), rng.choice((1, -1))]
                    for _ in range(6 + i % 3)]
            entries.append({"strands": s, "word": word,
                            "argv": ["p", "--json", f"braids/p{s}-{i:02d}.tng"]})
        classes[f"p{s}"] = entries

    if work.exists():
        shutil.rmtree(work)
    for rel, text in files.items():
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_text(text, encoding="utf-8")
    (work / "braids").mkdir()
    env = wl.python_env()
    for cls, entries in classes.items():
        for i, e in enumerate(entries):
            e["id"] = f"{cls}-{i:02d}"
            if "word" in e:
                (work / e["argv"][-1]).write_text(
                    wl.braid_tng(e["strands"], e["word"]), encoding="utf-8")
            outs = {(p.returncode, hashlib.sha256(p.stdout).hexdigest())
                    for p in (subprocess.run(
                        [sys.executable, "-m", "tanglepoly", *e["argv"]],
                        cwd=work, env=env, capture_output=True, check=False)
                        for _ in range(2))}
            if len(outs) != 1:
                raise SystemExit(f"nondeterministic output for {e['argv']}")
            (e["exit"], e["stdout_sha256"]), = outs
    shutil.rmtree(work)
    return {"files": files, "warmup": "fixtures/trefoil.tng",
            "classes": classes}


def main() -> None:
    wl.require_source()
    import tanglepoly

    checks = {"braid_oracle": 0, "graph_enhancement_oracle": 0}
    pool = {
        "source": {"package_version": tanglepoly.__version__,
                   "src_digest": envinfo.src_digest()},
        "braid": freeze_braid(checks),
        "graph": freeze_graph(checks),
        "cli": freeze_cli(wl.WORK / "freeze"),
        "oracle_checks": checks,
    }
    wl.POOL_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(wl.POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.POOL_PATH} ({checks})")


if __name__ == "__main__":
    main()
