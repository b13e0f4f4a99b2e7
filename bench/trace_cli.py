"""Tracing entry point for one cli command of the traced cli run.

    python3 bench/trace_cli.py SPANS_OUT INPUT_ID SUBCOMMAND [ARGS...]

Installs the span recorder's wrappers, calls `tanglepoly.cli.main` with the
given arguments inside a `cli.main.<subcommand>` span, writes the spans and
counters to SPANS_OUT as JSON and exits with main's exit code.  Stdout is
the command's own output, so it can be checked against the untraced run.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    out, input_id, args = argv[0], argv[1], argv[2:]
    rec = tracing.Recorder()
    rec.input_id = input_id
    code: object = 1
    try:
        with tracing.installed(rec):
            cli = sys.modules["tanglepoly.cli"]
            idx = rec.open(f"cli.main.{args[0] if args else ''}")
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                rec.counters["cli.errors"] += 1
                raise
            finally:
                rec.close(idx)
    finally:
        sys.stdout.flush()
        rec.dump(out)
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
