"""Command-line front end: gen-terrain, plan, bench, render.

Exit codes: 0 success, 2 invalid flags or config, 3 I/O or unreadable input,
4 terrain generation failure, 5 not exactly one free region, 6 path/terrain
mismatch. Standard output carries machine-readable results only; diagnostics
go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from slopecover import bench as bench_mod
from slopecover import svg as svg_mod
from slopecover.coverage import (
    PathMismatchError,
    circumnavigate,
    count_sacrificed_cells,
    load_path_file,
    path_cost,
    save_path,
    validate_path,
)
from slopecover.graph import (DisconnectedGridError, average_slope, build_graph,
                              classical_spanning_tree, minimum_spanning_tree, tree_weight)
from slopecover.terrain import (
    TerrainGenerationError,
    TerrainGenSpec,
    generate_terrain,
    aggregate,
    load_height_grid,
    save_height_grid,
)
from slopecover.weights import WeightSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_GENERATION = 4
EXIT_DISCONNECTED = 5
EXIT_MISMATCH = 6

_BENCH_FIELDS = {field.name: field for field in dataclasses.fields(bench_mod.BenchConfig)}

# each `bench` flag sets the BenchConfig field its dest names; its help ends
# with the field's default
_BENCH_HELP = {
    "terrains": "terrain count",
    "rows": "fine-grid rows",
    "cols": "fine-grid columns",
    "obstacles": "obstacle patches per terrain",
    "seed": "master seed",
    "weights": "comma-separated weight specs",
    "roughness_min": "schedule start",
    "roughness_max": "schedule end",
    "spacing": "fine-cell spacing",
}


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopecover",
        description="Slope-aware full-coverage route planning on elevation grids.",
        epilog=(
            "exit codes: 0 ok, 2 invalid flags, 3 I/O failure, 4 generation failure, "
            "5 not exactly one free region, 6 path/terrain mismatch"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-terrain", help="generate a seeded random terrain file")
    gen.add_argument("--rows", type=int, required=True, help="fine-grid rows (even)")
    gen.add_argument("--cols", type=int, required=True, help="fine-grid columns (even)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    gen.add_argument(
        "--obstacles", type=int, default=0, help="number of rectangular obstacle patches"
    )
    gen.add_argument(
        "--roughness",
        type=float,
        default=0.0,
        help="target average slope of the aggregated grid, in [0, 1]",
    )
    gen.add_argument(
        "--spacing", type=float, default=1.0, help="metres between fine-cell centres"
    )
    gen.add_argument("-o", "--output", required=True, help="terrain file to write")
    gen.set_defaults(handler=cmd_gen_terrain)

    plan = sub.add_parser("plan", help="plan a coverage route over a terrain file")
    plan.add_argument("--terrain", required=True, help="terrain file to read")
    plan.add_argument("--weight", choices=[spec.value for spec in WeightSpec],
                      default="pythagoras", help="edge-weight function (default pythagoras)")
    plan.add_argument("--method", choices=("mst", "classical"), default="mst",
                      help="spanning tree to circumnavigate (default mst)")
    plan.add_argument("-o", "--output", required=True, help="path file to write")
    plan.set_defaults(handler=cmd_plan)

    bench = sub.add_parser("bench", help="run the MST-vs-baseline benchmark, emit CSV")
    for key, field in _BENCH_FIELDS.items():  # _bench_value converts flag and file text alike
        default = field.default
        if key == "weights":
            default = ",".join(spec.value for spec in default)
        bench.add_argument("--" + key.replace("_", "-"), default=None,
                           help=f"{_BENCH_HELP[key]} (default {default})")
    bench.add_argument(
        "--config",
        default=None,
        help="flat `key = value` config file; explicit flags override it",
    )
    bench.add_argument("-o", "--output", default=None, help="CSV file (default: stdout)")
    bench.set_defaults(handler=cmd_bench)

    render = sub.add_parser("render", help="render a terrain + path file to SVG")
    render.add_argument("--terrain", required=True, help="terrain file to read")
    render.add_argument("--path", required=True, help="path file to read")
    render.add_argument(
        "--show-tree",
        action="store_true",
        help="overlay the mega-cell pairs the route crosses: a planned route's spanning tree",
    )
    render.add_argument(
        "--cell-px", type=float, default=10.0, help="pixels per fine cell (default 10)"
    )
    render.add_argument("-o", "--output", required=True, help="SVG file to write")
    render.set_defaults(handler=cmd_render)

    return parser


def cmd_gen_terrain(args: argparse.Namespace) -> int:
    try:
        spec = TerrainGenSpec(
            rows=args.rows,
            cols=args.cols,
            seed=args.seed,
            max_obstacles=args.obstacles,
            roughness=args.roughness,
            spacing=args.spacing,
        )
        grid = generate_terrain(spec)  # raises ValueError only for flag values
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"invalid flags: {exc}")
    save_height_grid(grid, args.output)
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    grid = load_height_grid(args.terrain)
    mega = aggregate(grid)
    spec = WeightSpec(args.weight)
    graph = build_graph(mega)
    # each builder is a module global looked up at call time, so wrappers on this module see it
    weights = graph.weights(spec)
    tree = (minimum_spanning_tree(graph, weights) if args.method == "mst"
            else classical_spanning_tree(graph))
    weight = tree_weight(tree, weights)
    del weights  # freed before the walk, plan's largest allocation
    path = circumnavigate(tree)
    slope = average_slope(mega)
    cost = path_cost(path, grid, spec)
    sacrificed = count_sacrificed_cells(grid)
    save_path(path, args.output)
    print(f"avg_slope={slope:.6f}")
    print(f"tree_weight={weight:.6f}")
    print(f"path_length={len(path.cells)}")
    print(f"path_cost={cost:.6f}")
    print(f"sacrificed_cells={sacrificed}")
    return EXIT_OK


def _read_bench_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _BENCH_FIELDS:
            valid = ", ".join(sorted(_BENCH_FIELDS))
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} (expected one of: {valid})")
        values[key] = value.strip()
    return values


def _bench_value(key: str, value: str) -> object:
    """A config file or flag value as its BenchConfig field's type; weights by token."""
    try:
        if key == "weights":
            return tuple(WeightSpec(token) for token in map(str.strip, value.split(",")) if token)
        return type(_BENCH_FIELDS[key].default)(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _bench_config_from_args(args: argparse.Namespace) -> bench_mod.BenchConfig:
    values = _read_bench_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in _BENCH_FIELDS if getattr(args, key) is not None}
    merged = {**values, **flags}  # explicit flags override the file
    return bench_mod.BenchConfig(**{key: _bench_value(key, value) for key, value in merged.items()})


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        cfg = _bench_config_from_args(args)
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"invalid benchmark config: {exc}")
    records = bench_mod.run_benchmark(cfg)
    if args.output:
        bench_mod.write_csv(records, args.output)
    else:
        sys.stdout.write(bench_mod.format_csv(records))
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    if not 0 < args.cell_px < math.inf:
        return _fail(EXIT_USAGE, f"--cell-px must be positive and finite, got {args.cell_px}")
    grid = load_height_grid(args.terrain)
    if not math.isfinite(max(grid.rows, grid.cols) * args.cell_px):
        return _fail(EXIT_USAGE, f"--cell-px {args.cell_px} overflows a {grid.rows}x{grid.cols} image")
    path = load_path_file(args.path)
    validate_path(path, grid)
    text = svg_mod.render_svg(grid, path, show_tree=args.show_tree, cell_px=args.cell_px)
    Path(args.output).write_text(text, encoding="utf-8", newline="\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TerrainGenerationError as exc:
        return _fail(EXIT_GENERATION, str(exc))
    except DisconnectedGridError as exc:
        return _fail(EXIT_DISCONNECTED, str(exc))
    except PathMismatchError as exc:
        return _fail(EXIT_MISMATCH, str(exc))
    except (OSError, ValueError) as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":
    sys.exit(main())
