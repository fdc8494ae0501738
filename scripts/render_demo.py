#!/usr/bin/env python3
"""Generate a demo terrain, plan routes with both tree methods, and render
side-by-side SVG figures with the spanning trees overlaid.

Each step is a `slopecover` command: gen-terrain, then plan and
render --show-tree once per method. plan's metrics go to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from slopecover import cli
from slopecover.weights import WeightSpec


def run(*argv: object) -> None:
    code = cli.main([str(arg) for arg in argv])
    if code:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rows", type=int, default=24)
    parser.add_argument("--cols", type=int, default=24)
    parser.add_argument("--obstacles", type=int, default=3)
    parser.add_argument("--roughness", type=float, default=0.45)
    parser.add_argument("--weight", default="penalty", choices=[s.value for s in WeightSpec])
    parser.add_argument("--out-dir", default="results/demo")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    terrain = out_dir / "terrain.txt"
    run("gen-terrain", "--rows", args.rows, "--cols", args.cols, "--seed", args.seed,
        "--obstacles", args.obstacles, "--roughness", args.roughness, "-o", terrain)
    for method in ("mst", "classical"):
        route = out_dir / f"route_{method}.txt"
        print(f"# {method}", flush=True)
        run("plan", "--terrain", terrain, "--weight", args.weight, "--method", method, "-o", route)
        run("render", "--terrain", terrain, "--path", route, "--show-tree",
            "-o", out_dir / f"route_{method}.svg")
    print(f"figures in {out_dir}/")


if __name__ == "__main__":
    main()
