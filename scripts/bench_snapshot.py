#!/usr/bin/env python3
"""Run the benchmark three times and save the medians as BENCH_<LABEL>.json.

    python scripts/bench_snapshot.py LABEL

Run it from the root of a checkout. Each run is one
`perfbench/run.py --workload W --seed 42 --seconds 20 --trace 0`, the
workloads taking turns, and every run must report correct output. The file
holds, per workload, the median and the runs of each end-to-end metric, with
the git SHA (and whether the tree had uncommitted changes), `nproc`, the
`src/` line count and the size of `slopecover.__all__`, so that two
snapshots compare speed and size together.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

WORKLOADS = ("paper-bench", "plan-1000", "render-500")
RUNS = 3
SEED = 42
SECONDS = 20


def run_perfbench(workload: str) -> dict:
    """One untraced perfbench run: its final JSON line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_size(root: Path) -> tuple[int, int | None]:
    """Lines of the Python files under src/, and the length of __all__."""
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in sorted((root / "src").rglob("*.py")))
    init = ast.parse((root / "src/slopecover/__init__.py").read_text(encoding="utf-8"))
    names = [node.value for node in init.body if isinstance(node, ast.Assign)
             and any(getattr(target, "id", "") == "__all__" for target in node.targets)]
    return lines, len(names[-1].elts) if names else None


def snapshot(label: str, run: Callable[[str], dict]) -> dict:
    samples: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for _ in range(RUNS):
        for name in WORKLOADS:
            result = run(name)
            if not result["correct"]:
                raise RuntimeError(f"{name}: {result['failed']} of {result['attempted']} commands failed")
            samples[name].append(result["metrics"])
    lines, exported = source_size(Path.cwd())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "label": label,
        "git_sha": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "all_size": exported,
        "seed": SEED,
        "seconds": SECONDS,
        "runs": RUNS,
        "workloads": {
            name: {
                key: {
                    "median": statistics.median(sample[key]["value"] for sample in results),
                    "unit": results[0][key]["unit"],
                    "runs": [sample[key]["value"] for sample in results],
                }
                for key in results[0]
            }
            for name, results in samples.items()
        },
    }


def main(argv: list[str] | None = None, run: Callable[[str], dict] = run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<LABEL>.json")
    args = parser.parse_args(argv)
    if not Path("perfbench/run.py").is_file():
        parser.error("run from the root of a checkout (no perfbench/run.py here)")
    record = snapshot(args.label, run)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
