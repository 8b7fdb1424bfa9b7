"""Run the benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload server-short --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own child
process (one at a time, so each reports its own ``peak_rss_mb``), and
merges their results.  With ``--trace 0``
the end-to-end metrics are measured; with ``--trace 1`` the per-layer
metrics of a traced run (spans also go to
``.perfbench-out/trace-<workload>-seed<n>.json``).  A table with every
metric by name and unit goes to standard output, and the last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any output check failed, 2 when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("cli-cold", "server-short", "server-windows",
             "stream-pinning")

#: What each generic end-to-end metric is called on each workload.
ALIASES = {
    "cli-cold": {"ops_per_s": "cli_per_s", "op_ms_p50": "cli_ms_p50",
                 "op_ms_tail": "cli_ms_p90"},
    "server-short": {"ops_per_s": "sessions_per_s",
                     "op_ms_p50": "session_ms_p50",
                     "op_ms_tail": "session_ms_p99"},
    "stream-pinning": {"ops_per_s": "stream_runs_per_s",
                       "op_ms_p50": "stream_ms_p50",
                       "op_ms_tail": "stream_ms_p99"},
}
ALIASES["server-windows"] = ALIASES["server-short"]


def _run_one(name: str, seed: int, seconds: float, trace: bool):
    if name == "cli-cold":
        from perfbench import wl_cli as module
    elif name.startswith("server-"):
        from perfbench import wl_server as module
    else:
        from perfbench import wl_stream as module
    return module.run(name, seed=seed, seconds=seconds, trace=trace)


def _report(outcome, seed: int, seconds: float, trace: bool) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {outcome.workload}  seed={seed}  seconds={seconds:g}  "
          f"{mode}")
    aliases = ALIASES[outcome.workload]
    for name, value in outcome.metrics.items():
        label = aliases.get(name, name)
        shown = f"{label} [{name}]" if label != name else name
        print(f"  {shown:<46} {value:>14.6g} {outcome.units[name]}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_rate':<46} {rate:>14.6g} "
          f"({outcome.failed} failed / {outcome.attempted} attempted)")
    for note in outcome.notes:
        print(f"  # {note}")
    for error in outcome.errors:
        print(f"  ! {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description="Benchmark the repro tool suite.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing "
              f"({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    # Keep bytecode out of the source tree.
    sys.pycache_prefix = str(ROOT / ".perfbench-out" / "pycache")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.workload == "all":
        return _run_all(args)
    outcome = _run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    _report(outcome, args.seed, args.seconds, bool(args.trace))
    correct = outcome.failed == 0 and not outcome.errors
    metrics = {metric: {"value": value, "unit": outcome.units[metric]}
               for metric, value in outcome.metrics.items()}
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in a child process of its own, one at a time;
    their tables are passed through and their result lines merged
    (metric names prefixed with the workload)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}/{metric}"] = value
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
