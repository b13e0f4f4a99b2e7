import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

ROOT = FIXTURES.parent


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
