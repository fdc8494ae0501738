"""Slope-aware full-coverage route planning on elevation grids.

Pipeline: load or generate a fine elevation grid, aggregate 2x2 blocks into
mega cells, build a 4-connected graph with slope-dependent edge weights,
take its minimum spanning tree, and circumnavigate the tree into a closed
route that covers every free fine cell exactly once. A benchmark harness
compares the weighted MST against a weight-blind baseline tree across seeded
random terrains.
"""

from slopecover.bench import (
    BenchConfig,
    BenchRecord,
    SpecTrend,
    format_csv,
    run_benchmark,
    trend_statistics,
    write_csv,
)
from slopecover.coverage import (
    CoveragePath,
    PathMismatchError,
    PathParseError,
    circumnavigate,
    count_sacrificed_cells,
    format_path,
    load_path_file,
    parse_path,
    path_cost,
    save_path,
    validate_path,
)
from slopecover.graph import (
    CoverageGraph,
    DisconnectedGridError,
    average_slope,
    build_graph,
)
from slopecover.spanning import (
    SpanningTree,
    classical_spanning_tree,
    minimum_spanning_tree,
    tree_weight,
)
from slopecover.svg import render_svg
from slopecover.terrain import (
    HeightGrid,
    MegaGrid,
    TerrainGenSpec,
    TerrainGenerationError,
    TerrainParseError,
    aggregate,
    format_height_grid,
    generate_terrain,
    load_height_grid,
    parse_height_grid,
    save_height_grid,
)
from slopecover.weights import (
    WeightSpec,
    edge_weight,
    weight_penalty,
    weight_pythagoras,
    weight_unit,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "CoverageGraph",
    "CoveragePath",
    "DisconnectedGridError",
    "HeightGrid",
    "MegaGrid",
    "PathMismatchError",
    "PathParseError",
    "SpanningTree",
    "SpecTrend",
    "TerrainGenSpec",
    "TerrainGenerationError",
    "TerrainParseError",
    "WeightSpec",
    "aggregate",
    "average_slope",
    "build_graph",
    "circumnavigate",
    "classical_spanning_tree",
    "count_sacrificed_cells",
    "edge_weight",
    "format_csv",
    "format_height_grid",
    "format_path",
    "generate_terrain",
    "load_height_grid",
    "load_path_file",
    "minimum_spanning_tree",
    "parse_height_grid",
    "parse_path",
    "path_cost",
    "render_svg",
    "run_benchmark",
    "save_height_grid",
    "save_path",
    "tree_weight",
    "trend_statistics",
    "validate_path",
    "weight_penalty",
    "weight_pythagoras",
    "weight_unit",
    "write_csv",
]
