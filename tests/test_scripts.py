import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

ROOT = FIXTURES.parent
BENCH = ROOT / "bench"


def _files(top: Path) -> dict[str, bytes]:
    return {str(p.relative_to(top)): p.read_bytes()
            for p in sorted(top.rglob("*")) if p.is_file()}


def test_make_goldens_reproduces_the_fixtures(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_goldens.py"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _files(tmp_path) == _files(FIXTURES)


# The benchmark reaches into the package by name: its tracer wraps
# functions at the module attributes their callers look up, and its
# in-process set-up reads the core modules from sys.modules.  A rename or
# a lazy import in the package would break it without failing a test here.


def test_the_benchmark_tracer_finds_every_patch_point():
    spec = importlib.util.spec_from_file_location("tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patches = tracing._patches(tracing.Recorder(), tracing.package_modules())
    assert len(patches) == 33
    # installed() saves each original from its owner's own namespace
    assert all(attr in vars(owner) for owner, attr, _ in patches)


def test_the_benchmark_set_up_finds_the_core_modules():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "workloads.require_source(); "
            "workloads.InProcess('graph', []).setup()")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_benchmark_freezer_finds_every_name_it_imports():
    # bench/freeze.py imports by module path, so a name moved to another
    # module breaks it
    tree = ast.parse((BENCH / "freeze.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("tanglepoly.")
               for alias in node.names]
    assert len(imports) >= 10
    missing = [(module, name) for module, name in imports
               if name not in vars(importlib.import_module(module))]
    assert missing == []
