"""Memory budgets: the tracemalloc peak of each plan stage on one 500x500
terrain (seed 42, 30 obstacles, roughness 0.3), priced with SLOPE_PENALTY.

A stage's peak is the most memory traced while it runs, above what was
traced when it started. The peaks repeat to 0.01 MiB from process to process.
tracemalloc sees numpy's buffers and Python's objects, not what the C
allocator keeps after a free, so fresh-process ru_maxrss still judges scale.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from slopecover.coverage import circumnavigate, path_cost, save_path
from slopecover.graph import build_graph, classical_spanning_tree, minimum_spanning_tree
from slopecover.terrain import TerrainGenSpec, aggregate, generate_terrain, load_height_grid, save_height_grid
from slopecover.weights import WeightSpec

MiB = 2**20
MARGIN = 0.10  # a budget is its stage's peak, as measured with numpy 2.4.6 on Python 3.11.7, plus 10 %
PEAKS_MIB = {
    "load": 8.78,
    "graph": 6.09,
    "pricing": 5.08,
    "mst": 9.78,  # its budget stays below 11.62, the peak of a first round that copies a, b and weights
    "dfs": 7.30,
    "walk": 5.58,
    "path_cost": 4.40,
    "save_path": 3.05,
}


@pytest.fixture(scope="module")
def peaks(tmp_path_factory) -> dict[str, float]:
    """Each stage's peak in MiB, from one plan run stage by stage; the route
    for the walk, path_cost and save_path comes from the MST."""
    directory = tmp_path_factory.mktemp("memory")
    terrain = directory / "terrain.txt"
    save_height_grid(generate_terrain(TerrainGenSpec(rows=500, cols=500, seed=42, max_obstacles=30,
                                                     roughness=0.3)), terrain)
    spec = WeightSpec.SLOPE_PENALTY
    measured: dict[str, float] = {}

    def stage(name, build):
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        measured[name] = (tracemalloc.get_traced_memory()[1] - start) / MiB
        return result

    tracemalloc.start()
    try:
        grid = stage("load", lambda: load_height_grid(terrain))
        mega = aggregate(grid)
        graph = stage("graph", lambda: build_graph(mega))
        weights = stage("pricing", lambda: graph.weights(spec))
        tree = stage("mst", lambda: minimum_spanning_tree(graph, weights))
        stage("dfs", lambda: classical_spanning_tree(graph))
        path = stage("walk", lambda: circumnavigate(tree))
        stage("path_cost", lambda: path_cost(path, grid, spec))
        stage("save_path", lambda: save_path(path, directory / "route.txt"))
    finally:
        tracemalloc.stop()
    return measured


@pytest.mark.parametrize("stage", PEAKS_MIB)
def test_stage_peak_within_budget(peaks, stage):
    budget = PEAKS_MIB[stage] * (1 + MARGIN)
    assert peaks[stage] <= budget, f"{stage} peaked at {peaks[stage]:.2f} MiB, budget {budget:.2f} MiB"
