"""The cli-cold workload: sequential cold subprocess runs of the
front-ends users type, one child at a time.

Each round runs ``likwid-topology``, ``likwid-perfctr -g FLOPS_DP
stream_icc``, ``likwid-perfctr -g MEM jacobi_wavefront`` and
``likwid-pin stream_icc`` once each (seeded variant and order).  An
operation is one invocation, timed as the wall time of the child
process.  Every child must exit 0 and print the event counts and
metric values pinned in ``cli_expected.json``, compared as numbers.

Bytecode goes to a cache under ``.perfbench-out`` so that the run
neither depends on nor writes ``__pycache__`` in the source tree.
Set-up is a run with an empty cache (it compiles every module it
imports), repeated and reported as a median; timed runs find the
cache warm, as a user's second run does.

Host speed is read from a bare interpreter start
(``python -c pass``, no ``repro`` code) just before and after each
round and each set-up run; see :func:`bare_bracketed`.

Run ``python3 perfbench/wl_cli.py --pin`` to re-pin the expected
values from the current program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):
    sys.path[:0] = [str(Path(__file__).resolve().parents[1]),
                    str(Path(__file__).resolve().parents[1] / "src")]

from perfbench import checks  # noqa: E402
from perfbench.common import OUT_DIR, ROOT, Round, drive  # noqa: E402
from perfbench.generators import (CLI_CATALOGUE, cli_invocations,  # noqa: E402
                                  cli_key)
from perfbench.spans import clock  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "cli_expected.json"
CHILD = Path(__file__).resolve().parent / "cli_child.py"
SETUP_REPEATS = 5
SETUP_COMMAND = ("perfctr_cmd", ("-c", "0-3", "-g", "FLOPS_DP",
                                 "stream_icc"))
#: p90 of invocation latency: about a hundred invocations per run.
TAIL_Q = 90
TIMEOUT_S = 120
#: Wall seconds of ``python -c pass`` at nominal host speed (its
#: median on the 2-vCPU x86-64 VM, Python 3.11, that the benchmark was
#: tuned on).
BARE_REFERENCE_S = 0.06


def child_env(cache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def invoke(module: str, argv, env, *, trace_out: Path | None = None
           ) -> tuple[subprocess.CompletedProcess, float]:
    """Run one front-end in a fresh interpreter; returns the process
    and its wall time."""
    if trace_out is None:
        cmd = [sys.executable, "-m", f"repro.cli.{module}", *argv]
    else:
        cmd = [sys.executable, str(CHILD), str(trace_out), module, *argv]
    began = clock()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    return proc, clock() - began


def bare_bracketed(env, fn, *args):
    """``fn(*args)`` between two bare interpreter starts; returns its
    result and the faster start over :data:`BARE_REFERENCE_S`.

    The host's speed drifts, and a child process may run on another
    CPU than the benchmark.  The dict loop of ``common.host_slowness``
    tracked child start-up poorly: over 16 chunks of 30 rounds, the
    median scaled invocation time varied by 15% of its median, against
    3% when scaled by the faster of two bare starts.  A bare start runs
    the interpreter's own start-up but no program code, so a change to
    the program does not move it."""
    cmd = [sys.executable, "-c", "pass"]
    before = invoke_timed(cmd, env)
    result = fn(*args)
    return result, min(before, invoke_timed(cmd, env)) / BARE_REFERENCE_S


def invoke_timed(cmd: list[str], env) -> float:
    began = clock()
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                   timeout=TIMEOUT_S, check=True)
    return clock() - began


def cold_setup(work: Path, repeat: int) -> float:
    """One run against an empty bytecode cache."""
    cache = work / f"cold-{repeat}"
    try:
        proc, took = invoke(*SETUP_COMMAND, child_env(cache))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up run failed: {proc.stderr}")
    return took


def run(workload: str, *, seed: int, seconds: float, trace: bool):
    expected = json.loads(EXPECTED.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        work = Path(tmp)
        env = child_env(work / "cache")
        invoke_timed([sys.executable, "-c", "pass"], env)  # fill its cache
        setups = []
        for k in range(SETUP_REPEATS):
            took, slowness = bare_bracketed(env, cold_setup, work, k)
            setups.append(took / slowness)
        invocations = 0

        def run_round(index: int, tr) -> Round:
            nonlocal invocations
            latencies, errors, failed = [], [], 0
            for module, argv in cli_invocations(seed, index):
                invocations += 1
                out = work / f"inv-{invocations}.json" \
                    if tr is not None else None
                proc, took = invoke(module, argv, env, trace_out=out)
                latencies.append(took)
                key = cli_key(module, argv)
                if proc.returncode != 0:
                    problems = [f"exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-200:]}"]
                else:
                    problems = checks.values_mismatch(
                        checks.parse_values(proc.stdout),
                        checks.from_json_values(expected[key]))
                if problems:
                    failed += 1
                    errors.extend(f"{key}: {p}" for p in problems)
                if out is not None and out.exists():
                    tr.merge_child(json.loads(out.read_text()),
                                   pid=invocations)
                    out.unlink()
            return Round(ops=len(latencies), elapsed=sum(latencies),
                         latencies=latencies, failed=failed,
                         errors=errors)

        return drive(workload, seconds=seconds, trace=trace, seed=seed,
                     run_round=run_round, setups=setups, tail_q=TAIL_Q,
                     children_rss=True,
                     bracket=lambda *a: bare_bracketed(env, *a))


def pin_expected() -> None:
    """Record every catalogue invocation's values from the current
    program into ``cli_expected.json``."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        env = child_env(Path(tmp))
        pinned = {}
        for module, variants in CLI_CATALOGUE.items():
            for argv in variants:
                proc, _took = invoke(module, argv, env)
                if proc.returncode != 0:
                    raise SystemExit(f"{module} {argv}: {proc.stderr}")
                pinned[cli_key(module, argv)] = checks.to_json_values(
                    checks.parse_values(proc.stdout))
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                        + "\n")
    print(f"pinned {len(pinned)} invocations into {EXPECTED}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        raise SystemExit("usage: python3 perfbench/wl_cli.py --pin")
    pin_expected()
