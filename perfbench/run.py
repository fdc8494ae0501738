#!/usr/bin/env python3
"""slopecover benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload plan-1000 --seed 42 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the library from
``src/`` and writes only under ``.perfbench-work/``. ``--workload all`` runs
every workload in turn. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it give the same numbers for people, with the sample counts,
the error rate and the run's metadata.

Each workload is set up ``SETUP_REPEATS`` times, each time in a fresh
process, and then measured in one more process, so set-up memory stays out
of ``peak_rss_mb``. This process only orchestrates; it imports no numpy.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper-bench", "plan-1000", "render-500")  # as in workloads.py, which needs numpy
DEFAULT_SEED = 42  # as in workloads.py
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # one workload's whole run, set-up included
HERE = Path(__file__).resolve().parent
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    """A set-up or measuring process failed; the run prints no result."""


def child(phase: str, args: list[str], root: Path, deadline: float) -> None:
    env = dict(os.environ, **SINGLE_THREAD)
    budget = deadline - time.monotonic()
    command = [sys.executable, str(HERE / "harness.py"), phase, *args, "--budget", f"{budget:.1f}"]
    try:
        done = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, timeout=budget)
    except subprocess.TimeoutExpired:
        raise RunError(f"{phase} did not finish within {budget:.0f} s") from None
    if done.returncode != 0:
        raise RunError(f"{phase} exited {done.returncode}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".perfbench-work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child("setup", args, root, deadline)
        setup_s.append(time.perf_counter() - start)
    child("measure", args + ["--seconds", str(seconds), "--trace", str(int(trace))], root, deadline)
    result = json.loads((work / "measure.json").read_text(encoding="utf-8"))
    result["setup_s"] = setup_s
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    wall = statistics.median(result["wall_s"])
    return {
        "wall_s": (wall, "s"),
        "cells_per_s": (result["cells"] / wall, "cells/s"),
        "peak_rss_mb": (result["peak_rss_kib"] * 1024 / 1e6, "MB"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    out = {}
    for key in result["layers"][0]:
        value = statistics.median(run[key] for run in result["layers"])
        unit = "s" if key.endswith("_s") else "bytes" if key.endswith(".bytes") else "count"
        out[key] = (value, unit)
    overhead = statistics.median(result["traced_wall_s"]) - statistics.median(result["wall_s"])
    out["trace.overhead_s"] = (overhead, "s")
    return out


def spread(samples: list[float]) -> str:
    """Median, quartiles when there are enough samples, and a tail percentile
    only where at least 10 samples lie beyond it."""
    text = f"median of {len(samples)}"
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        text += f", quartiles {q1:.4g}..{q3:.4g}"
    if len(samples) >= 100:
        text += f", p90 {statistics.quantiles(samples, n=10)[-1]:.4g}"
    else:
        text += ", no tail percentile (fewer than 10 samples beyond p90)"
    return text


def metadata(root: Path, result: dict) -> dict:
    """Plain information kept next to the numbers; nothing here is gated."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = sorted((root / "src").rglob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sources)
    exported = None
    for node in ast.parse((root / "src/slopecover/__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            exported = len(node.value.elts)
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": result["python"],
            "numpy": result["numpy"], "src_lines": lines, "all_size": exported}


def report(name: str, seed: int, trace: bool, result: dict, metrics: dict, meta: dict) -> None:
    failed = len(result["failures"])
    print(f"{name}  seed={seed}  trace={int(trace)}")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "wall_s":
            note = f"  (timed commands after 1 warm-up: {spread(result['wall_s'])})"
        elif key == "setup_s":
            note = f"  (median of {len(result['setup_s'])} set-ups)"
        print(f"  {key:<40} {value:>16.6g} {unit}{note}")
    print(f"  {'error_rate':<40} {failed / result['attempted']:>16.6g} failed/attempted "
          f"({failed} of {result['attempted']} commands, warm-up included)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        print(f"  functions no longer found: {', '.join(result['absent']) or 'none'}")
    print("  " + "  ".join(f"{k}={v}" for k, v in meta.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}, which also checks recorded digests)")
    parser.add_argument("--seconds", type=int, default=20, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a separate traced run that reports per-layer metrics")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "slopecover" / "cli.py").is_file():
        print(f"error: {root} is not a slopecover checkout (no src/slopecover/cli.py)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    combined: dict[str, dict] = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        except RunError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        metrics = per_layer(result) if args.trace else end_to_end(result)
        meta = metadata(root, result)
        report(name, args.seed, bool(args.trace), result, metrics, meta)
        record = {"workload": name, "seed": args.seed, "trace": args.trace, "metadata": meta,
                  "metrics": metrics, **result}
        (root / ".perfbench-work" / name / "result.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        attempted += result["attempted"]
        failed += len(result["failures"])
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in metrics.items():
            combined[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
