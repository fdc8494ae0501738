"""Child processes of the benchmark.

``setup`` writes one workload's inputs through the CLI and exits; the parent
times the whole process. ``measure`` runs the workload's commands in-process
through ``slopecover.cli.main``, checks each output, and writes
``measure.json`` (and ``spans.jsonl`` when tracing) into the work directory.
Keeping the two apart means the measuring process's peak memory excludes
set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, ContextManager

from tracing import Tracer
from workloads import WORKLOADS, CheckError, Workload


def import_cli(root: Path) -> Any:
    """Import ``slopecover.cli`` from ``root/src``, and from nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("slopecover.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"slopecover was imported from {cli.__file__}, not from {src}")
    return cli


def run_command(
    cli: Any,
    workload: Workload,
    argv: list[str],
    around: ContextManager = contextlib.nullcontext(),
    corrupt: Callable[[Path], None] | None = None,
) -> tuple[float, str | None]:
    """Run one command and check its output: (seconds, failure or None).

    A command fails if it exits non-zero, raises, or fails its output check.
    ``around`` wraps only the call itself; ``corrupt`` damages the output
    before the check, for the self-test.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with around, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the flags
        return time.perf_counter() - start, f"exited {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # any raise is a failed command; the run goes on
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exited {code}: {err.getvalue().strip()}"
    if corrupt is not None:
        corrupt(workload.output)
    try:
        workload.check(argv, out.getvalue())
    except CheckError as exc:
        return seconds, str(exc)
    except (OSError, ValueError) as exc:
        return seconds, f"output unreadable: {exc}"
    return seconds, None


def setup_inputs(cli: Any, workload: Workload) -> None:
    for argv in workload.setup_argvs():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {code}")


def trace_sites(cli: Any) -> list[Any]:
    sites = [cli] + [getattr(cli, name) for name in ("bench_mod", "svg_mod") if hasattr(cli, name)]
    try:
        sites.append(importlib.import_module("slopecover.bench"))
    except ImportError:
        pass
    return sites


def measure(cli: Any, workload: Workload, seconds: float, trace: bool, deadline: float) -> dict:
    """Warm up once, then run (untraced, and traced when tracing) commands
    until ``seconds`` have passed, never starting one that would end past
    ``deadline``."""
    workload.load()
    tracer = Tracer(trace_sites(cli))
    failures: list[str] = []
    attempted = 0

    def once(argv: list[str], around: ContextManager = contextlib.nullcontext()) -> float:
        nonlocal attempted
        attempted += 1
        took, failure = run_command(cli, workload, argv, around)
        if failure is not None:
            failures.append(f"{' '.join(argv)}: {failure}")
        return took

    once(workload.warmup_argv())
    wall: list[float] = []
    traced: list[float] = []
    began = time.perf_counter()
    longest = 0.0
    while not wall or time.perf_counter() - began < seconds:
        if time.perf_counter() + longest * (2 if trace else 1) > deadline:
            break
        wall.append(once(workload.argv()))
        if trace:
            traced.append(once(workload.argv(), tracer.command(len(traced))))
        longest = max(wall + traced)
    result = {
        "cells": workload.cells,
        "attempted": attempted,
        "failures": failures,
        "wall_s": wall,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": sys.modules["numpy"].__version__,
        "python": sys.version.split()[0],
    }
    if trace:
        result["traced_wall_s"] = traced
        result["layers"] = [tracer.metrics(run) for run in range(len(traced))]
        result["absent"] = tracer.absent
        tracer.write(workload.work / "spans.jsonl")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=float, required=True, help="seconds this process may run")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.budget
    cli = import_cli(Path.cwd())
    workload = WORKLOADS[args.workload](args.seed, args.work)
    if args.phase == "setup":
        setup_inputs(cli, workload)
        return 0
    result = measure(cli, workload, args.seconds, bool(args.trace), deadline)
    (args.work / "measure.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
