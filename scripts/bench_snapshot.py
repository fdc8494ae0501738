#!/usr/bin/env python3
"""Run the benchmark (3 times, or 10 with --against) and save the medians as BENCH_<LABEL>.json.

    python scripts/bench_snapshot.py LABEL
    python scripts/bench_snapshot.py LABEL --against DIR
    python scripts/bench_snapshot.py LABEL --against DIR --workload plan-1000

Run it from the root of a checkout. Each run is one
`perfbench/run.py --workload W --seed 42 --seconds 20 --trace 0`, the
workloads taking turns, and every run must report correct output. By default
every workload runs; `--workload NAME`, which can be repeated, runs only the
ones named, so that the pairs of one claimed workload are quick to rerun. The file
holds, per workload, the median and the runs of each end-to-end metric, with
the git SHA (and whether the tree had uncommitted changes), `nproc`, the
`src/` line count and the size of `slopecover.__all__`, so that two
snapshots compare speed and size together.

With `--against DIR` the git checkout at DIR is measured too, ten times, and
its snapshot is saved here as BENCH_<SHA>.json, SHA being DIR's short commit
hash. Each workload's runs of the two checkouts alternate, this one first in
even rounds and DIR first in odd ones, so that both see the same phases of
the machine and run k of one pairs with run k of the other: ten pairs, the
fewest that can show a gain. For each workload and end-to-end metric of
this checkout's BENCHMARK.json it then prints both medians, the median of
the per-pair differences (this checkout's run minus DIR's: a drift of the
machine between rounds moves both runs of a pair, so it cancels there and
not between the two medians), how many pairs this checkout won and lost in
the metric's better direction (ties count for neither) and DIR's
interquartile range, the distance between the quartiles of its runs (linear
interpolation, as numpy's percentile).
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
from typing import Callable, Sequence

WORKLOADS = ("paper-bench", "plan-1000", "render-500")
RUNS = 3
PAIRED_RUNS = 10  # per checkout with --against
SEED = 42
SECONDS = 20


def run_perfbench(workload: str, root: Path) -> dict:
    """One untraced perfbench run in the checkout at root: its final JSON line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              timeout=10)
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


def measure(roots: list[Path], runs: int, run: Callable[[str, Path], dict],
            workloads: Sequence[str] = WORKLOADS) -> list[dict[str, list[dict]]]:
    """Per root, per workload, the metrics of each run. In round k every
    workload runs once in every root, in the order of roots when k is even
    and in the reverse order when k is odd."""
    samples: list[dict[str, list[dict]]] = [{name: [] for name in workloads} for _ in roots]
    for k in range(runs):
        for name in workloads:
            for side in (range(len(roots)) if k % 2 == 0 else reversed(range(len(roots)))):
                result = run(name, roots[side])
                if not result["correct"]:
                    raise RuntimeError(f"{name}: {result['failed']} of {result['attempted']} "
                                       f"commands failed in {roots[side]}")
                samples[side][name].append(result["metrics"])
    return samples


def snapshot(label: str, root: Path, runs: int, samples: dict[str, list[dict]]) -> dict:
    lines, exported = source_size(root)
    status = git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "label": label,
        "git_sha": git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "all_size": exported,
        "seed": SEED,
        "seconds": SECONDS,
        "runs": runs,
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


def verdict_lines(here: dict, there: dict, better: dict[str, str]) -> list[str]:
    """One line per workload of here and metric named in better, which maps
    each metric to "lower" or "higher", comparing the snapshots here and there."""
    lines = []
    for name in here["workloads"]:
        for key, direction in better.items():
            mine, theirs = here["workloads"][name][key], there["workloads"][name][key]
            differences = [a - b for a, b in zip(mine["runs"], theirs["runs"])]
            sign = 1 if direction == "higher" else -1
            won = sum(sign * difference > 0 for difference in differences)
            lost = sum(sign * difference < 0 for difference in differences)
            q1, _, q3 = statistics.quantiles(theirs["runs"], n=4, method="inclusive")
            lines.append(f"{name} {key} ({direction} is better): {here['label']} {mine['median']:.4g}, "
                         f"{there['label']} {theirs['median']:.4g}, median pair difference "
                         f"{statistics.median(differences):+.4g}; {here['label']} won {won} and lost "
                         f"{lost} of {len(differences)} pairs; {there['label']} IQR {q3 - q1:.4g}")
    return lines


def main(argv: list[str] | None = None, run: Callable[[str, Path], dict] = run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<LABEL>.json")
    parser.add_argument("--against", metavar="DIR",
                        help=f"also measure the git checkout at DIR, alternating, {PAIRED_RUNS} "
                        "runs each, into BENCH_<DIR's short SHA>.json")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, dest="workloads",
                        metavar="NAME", help="run only this workload; can be repeated "
                        f"(default: all of {', '.join(WORKLOADS)})")
    args = parser.parse_args(argv)
    checkouts = [(args.label, Path.cwd())]
    if args.against:
        root = Path(args.against).resolve()
        other = git(root, "rev-parse", "--short", "HEAD")
        if other is None:
            parser.error(f"{root} is not a git checkout")
        if other == args.label:
            parser.error(f"both checkouts would write BENCH_{args.label}.json")
        checkouts.append((other, root))
        benchmark = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    for _, root in checkouts:
        if not (root / "perfbench/run.py").is_file():
            parser.error(f"{root} is not the root of a checkout (no perfbench/run.py there)")
    runs = PAIRED_RUNS if args.against else RUNS
    workloads = [name for name in WORKLOADS if name in (args.workloads or WORKLOADS)]
    samples = measure([root for _, root in checkouts], runs, run, workloads)
    snapshots = [snapshot(label, root, runs, sample) for (label, root), sample in zip(checkouts, samples)]
    for record in snapshots:
        out = Path(f"BENCH_{record['label']}.json")
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    if args.against:
        print("\n".join(verdict_lines(*snapshots, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
