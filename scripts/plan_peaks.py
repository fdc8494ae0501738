#!/usr/bin/env python3
"""Fresh-process peak memory and wall time of `plan`, this checkout against another.

    python scripts/plan_peaks.py SIZE --against DIR

Run it from the root of a checkout. The seed-42 terrain of SIZE x SIZE fine
cells (30 obstacles, roughness 0.3) is generated once, by DIR's
`gen-terrain`. Then `plan --weight penalty` runs with each method 3 times in
each checkout, every run a fresh `python -m slopecover.cli` with PYTHONPATH
set to that checkout's src/. The two checkouts take turns as in
bench_snapshot.py's `measure`: this one first in even rounds and DIR first
in odd ones. Each run prints the child's `ru_maxrss` from `os.wait4`, its
wall time, and whether its route file and stdout are byte-identical to the
first run of the same method; this checkout is labelled `here` and DIR by
its short SHA. The script stops with exit code 1 at the first run that
fails or whose bytes differ.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_snapshot import git, measure

RUNS = 3  # per checkout and method
METHODS = ("mst", "classical")
TERRAIN = ("--seed", "42", "--obstacles", "30", "--roughness", "0.3")


def run_cli(root: Path, args: list[str], stdout: Path) -> tuple[int, float, float]:
    """Exit code, ru_maxrss in MiB and wall seconds of `slopecover ARGS` from
    the checkout at root, in a fresh process whose stdout goes to a file."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "slopecover.cli", *args], stdout=out, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, so Popen must not wait
    return child.returncode, usage.ru_maxrss / 1024, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("size", type=int, help="fine-grid rows and columns of the terrain")
    parser.add_argument("--against", metavar="DIR", required=True, help="the other checkout")
    args = parser.parse_args(argv)
    roots = [Path.cwd(), Path(args.against).resolve()]
    for root in roots:
        if not (root / "src/slopecover/cli.py").is_file():
            parser.error(f"{root} is not the root of a checkout (no src/slopecover/cli.py there)")
    if roots[0] == roots[1]:
        parser.error("DIR is this checkout")
    labels = {roots[0]: "here", roots[1]: git(roots[1], "rev-parse", "--short", "HEAD") or str(roots[1])}
    size = str(args.size)
    with tempfile.TemporaryDirectory(prefix="plan_peaks-") as work:
        work = Path(work)
        terrain, route, stdout = work / "terrain.txt", work / "route.txt", work / "stdout.txt"
        code, _, _ = run_cli(roots[1], ["gen-terrain", "--rows", size, "--cols", size, *TERRAIN,
                                        "-o", str(terrain)], stdout)
        if code:
            print(f"gen-terrain exited {code}", file=sys.stderr)
            return 1
        first: dict[str, tuple[str, bytes]] = {}  # per method, the first run's route digest and stdout

        def run(method: str, root: Path) -> dict:
            code, peak, wall = run_cli(root, ["plan", "--terrain", str(terrain), "--weight", "penalty",
                                              "--method", method, "-o", str(route)], stdout)
            output = (hashlib.sha256(route.read_bytes()).hexdigest() if not code else "",
                      stdout.read_bytes())
            route.unlink(missing_ok=True)
            same = [part == expected for part, expected in zip(output, first.setdefault(method, output))]
            status = f"exit {code}" if code else ", ".join(
                f"{name} {'same' if ok else 'differs'}" for name, ok in zip(("route", "stdout"), same))
            print(f"{size}^2 {method} {labels[root]}: {peak:.1f} MiB, {wall:.2f} s, {status}", flush=True)
            return {"correct": not code and all(same), "failed": 1, "attempted": 1, "metrics": {}}

        try:
            measure(roots, RUNS, run, METHODS)
        except RuntimeError as error:
            print(error, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
