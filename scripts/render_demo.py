#!/usr/bin/env python3
"""Generate a demo terrain, plan routes with both tree methods, and render
side-by-side SVG figures with the spanning trees overlaid."""

from __future__ import annotations

import argparse
from pathlib import Path

from slopecover.coverage import circumnavigate, path_cost, save_path
from slopecover.graph import average_slope, build_graph
from slopecover.spanning import classical_spanning_tree, kruskal_order, minimum_spanning_tree, tree_weight
from slopecover.svg import render_svg
from slopecover.terrain import TerrainGenSpec, aggregate, generate_terrain, save_height_grid
from slopecover.weights import WeightSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rows", type=int, default=24)
    parser.add_argument("--cols", type=int, default=24)
    parser.add_argument("--obstacles", type=int, default=3)
    parser.add_argument("--roughness", type=float, default=0.45)
    parser.add_argument("--weight", default="penalty", choices=[s.token for s in WeightSpec])
    parser.add_argument("--out-dir", default="results/demo")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    grid = generate_terrain(
        TerrainGenSpec(
            rows=args.rows,
            cols=args.cols,
            seed=args.seed,
            max_obstacles=args.obstacles,
            roughness=args.roughness,
        )
    )
    save_height_grid(grid, out_dir / "terrain.txt")
    mega = aggregate(grid)
    spec = WeightSpec.from_token(args.weight)
    graph = build_graph(mega)
    print(f"terrain {args.rows}x{args.cols}, avg slope {average_slope(mega):.3f}")

    weights = graph.weights(spec)
    trees = {
        "mst": minimum_spanning_tree(graph, kruskal_order(weights)),
        "classical": classical_spanning_tree(graph),
    }
    for name, tree in trees.items():
        route = circumnavigate(tree)
        save_path(route, out_dir / f"route_{name}.txt")
        (out_dir / f"route_{name}.svg").write_text(
            render_svg(grid, route, show_tree=True), encoding="utf-8"
        )
        print(
            f"{name:9s} tree weight {tree_weight(tree, weights):10.3f}  "
            f"route cost {path_cost(route, grid, spec):10.3f}  "
            f"length {len(route.cells)}"
        )
    print(f"figures in {out_dir}/")


if __name__ == "__main__":
    main()
