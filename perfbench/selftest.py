#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: they must be able to fail.

    python3 perfbench/selftest.py [--seed 42] [--workload plan-1000 ...]

For each workload it writes the inputs, runs the command once and requires
the check to pass; then runs it again, changes one digit of the output (CSV,
route or SVG) before the check, and requires that iteration to count as
failed. The digit is taken from the middle of the file, or for the SVG from
the middle of the route polyline, since the rest of the SVG is left free for
render changes. At the default seed the CSV and route are also pinned by
their recorded digests; other seeds exercise the structural checks alone.
Runs in one process from the root of a checkout, in about a minute.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from harness import import_cli, run_command, setup_inputs
from workloads import DEFAULT_SEED, WORKLOADS

# where in each output the changed digit is looked for: (start marker, end marker)
REGIONS = {"render-500": (b' points="', b'"')}


def corrupt_one_digit(path: Path, region: tuple[bytes, bytes] | None) -> None:
    data = bytearray(path.read_bytes())
    lo, hi = 0, len(data)
    if region is not None:
        lo = data.index(region[0]) + len(region[0])
        hi = data.index(region[1], lo)
    at = next(i for i in range((lo + hi) // 2, hi) if chr(data[i]).isdigit())
    data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    cli = import_cli(root)
    ok = True
    for name in args.workload:
        work = root / ".perfbench-work" / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = WORKLOADS[name](args.seed, work)
        setup_inputs(cli, workload)
        workload.load()
        _, clean = run_command(cli, workload, workload.argv())
        region = REGIONS.get(name)
        _, damaged = run_command(cli, workload, workload.argv(),
                                 corrupt=lambda path: corrupt_one_digit(path, region))
        passed = clean is None and damaged is not None
        ok &= passed
        print(f"{name} seed={args.seed}: clean output {'passed' if clean is None else 'FAILED: ' + clean}; "
              f"one changed digit {'counted as failed: ' + damaged if damaged else 'NOT DETECTED'}"
              f" -> {'ok' if passed else 'SELF-TEST FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
