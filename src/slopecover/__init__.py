"""Slope-aware full-coverage route planning on elevation grids.

Pipeline: load or generate a fine elevation grid, aggregate 2x2 blocks into
mega cells, build a 4-connected graph with slope-dependent edge weights,
take its minimum spanning tree, and circumnavigate the tree into a closed
route that covers every free fine cell exactly once. A benchmark harness
compares the weighted MST against a weight-blind baseline tree across seeded
random terrains.
"""

from slopecover.bench import BenchConfig, reported_trends, run_benchmark
from slopecover.coverage import circumnavigate, path_cost
from slopecover.graph import DisconnectedGridError, average_slope, build_graph
from slopecover.spanning import classical_spanning_tree, minimum_spanning_tree, tree_weight
from slopecover.svg import render_svg
from slopecover.terrain import TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec

__version__ = "0.1.0"

# the names README's library section documents; everything else is
# imported from its own module
__all__ = [
    "BenchConfig",
    "DisconnectedGridError",
    "TerrainGenSpec",
    "WeightSpec",
    "aggregate",
    "average_slope",
    "build_graph",
    "circumnavigate",
    "classical_spanning_tree",
    "generate_terrain",
    "minimum_spanning_tree",
    "path_cost",
    "render_svg",
    "reported_trends",
    "run_benchmark",
    "tree_weight",
]
