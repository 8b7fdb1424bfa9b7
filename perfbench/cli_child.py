"""Traced stand-in for ``python -m repro.cli.<module>``.

Usage: ``cli_child.py OUT MODULE [ARGS...]``.  The stem of OUT is
the invocation's trace id.  Imports the front-end first, timed with a
bare clock, so that the ``cli.import`` span measures the import in a
fresh interpreter (only modules the interpreter loads at start-up are
in place; the benchmark's own modules, and the standard library they
pull in, are imported afterwards).  Then it wraps the layer entry
points that import loaded (so tracing adds no imports of its own),
runs ``main(ARGS)`` under a ``cli.main`` span, and writes the
recorder's export to OUT.  The exit code is the front-end's.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> int:
    out, module, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    began = time.perf_counter()
    __import__(f"repro.cli.{module}")
    imported = time.perf_counter()
    cmd = sys.modules[f"repro.cli.{module}"]

    import json
    from pathlib import Path

    from perfbench.layers import TARGETS
    from perfbench.spans import SpanRecorder

    rec = SpanRecorder()
    rec.record("cli.import", began, imported, "cli")
    rec.install(TARGETS, only_loaded=True)
    try:
        with rec.span("cli.main", "cli"):
            code = cmd.main(argv)
    finally:
        rec.uninstall()
    sys.stdout.flush()
    rec.resolve_ids({}, prefix=f"{Path(out).stem}:")
    Path(out).write_text(json.dumps(rec.export()))
    return code


if __name__ == "__main__":
    sys.exit(main())
