#!/usr/bin/env python3
"""Run the full-scale benchmark (15 seeded 250x250 terrains, both slope-aware
weight functions) and write the CSV plus a short trend summary."""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from slopecover.bench import BenchConfig, run_benchmark, trend_statistics, write_csv


def main() -> None:
    paper = BenchConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    parser.add_argument("--terrains", type=int, default=paper.terrains)
    parser.add_argument("--rows", type=int, default=paper.rows)
    parser.add_argument("--cols", type=int, default=paper.cols)
    parser.add_argument("--obstacles", type=int, default=paper.obstacles)
    parser.add_argument(
        "--out", default="results/full_benchmark.csv", help="CSV output path"
    )
    args = parser.parse_args()

    cfg = BenchConfig(
        seed=args.seed,
        terrains=args.terrains,
        rows=args.rows,
        cols=args.cols,
        obstacles=args.obstacles,
    )
    started = time.perf_counter()
    records = run_benchmark(cfg)
    elapsed = time.perf_counter() - started

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(records, out)

    print(f"wrote {len(records)} records to {out} in {elapsed * 1000:.0f} ms")
    for trend in trend_statistics(records):
        print(
            f"{trend.spec.token:11s} spearman(slope, gap)={trend.spearman_slope_gap:+.4f} "
            f"mean gap={trend.mean_gap:12.2f} mean ratio={trend.mean_gap_ratio:.6f}"
        )


if __name__ == "__main__":
    main()
