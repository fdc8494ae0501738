"""The one rule by which grids, trees and routes store their arrays:
a read-only array of the stored dtype that owns its memory is kept, and
anything else is copied into one."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import mega
from slopecover import coverage, graph, terrain
from slopecover.coverage import CoveragePath, circumnavigate
from slopecover.graph import (CoverageGraph, SpanningTree, build_graph, classical_spanning_tree,
                              minimum_spanning_tree)
from slopecover.terrain import (HeightGrid, MegaGrid, TerrainGenSpec, aggregate, format_height_grid,
                                generate_terrain, load_height_grid, parse_height_grid, save_height_grid)
from slopecover.weights import WeightSpec

_MEGA = mega([[0.0, 1.0]])
_GRAPH = build_graph(_MEGA)

# container field: (build the container around a value for the field, the
# field, a list the field accepts, the stored dtype)
_FIELDS = {
    "HeightGrid.heights": (lambda v: HeightGrid(rows=2, cols=2, heights=v, obstacle=[False] * 4, spacing=1.0),
                           "heights", [[1.0, 2.0], [3.0, 4.0]], np.float64),
    "HeightGrid.obstacle": (lambda v: HeightGrid(rows=2, cols=2, heights=[0.0] * 4, obstacle=v, spacing=1.0),
                            "obstacle", [[True, False], [False, False]], bool),
    "MegaGrid.heights": (lambda v: MegaGrid(rows=1, cols=2, heights=v, blocked=[False] * 2, spacing=2.0),
                         "heights", [[1.0, 2.0]], np.float64),
    "MegaGrid.blocked": (lambda v: MegaGrid(rows=1, cols=2, heights=[0.0] * 2, blocked=v, spacing=2.0),
                         "blocked", [[False, True]], bool),
    "SpanningTree.edges": (lambda v: SpanningTree(graph=_GRAPH, edges=v), "edges", [0], np.int64),
    "CoveragePath.cells": (lambda v: CoveragePath(cells=v), "cells", [[0, 0], [0, 1]], np.int64),
}


@pytest.mark.parametrize("field", _FIELDS)
def test_containers_keep_only_read_only_arrays_that_own_their_memory(field):
    build, name, values, dtype = _FIELDS[field]
    from_list = getattr(build(values), name)
    assert from_list.tolist() == values
    assert from_list.dtype == dtype and not from_list.flags.writeable
    array = np.array(values, dtype=dtype)
    stored = getattr(build(array), name)
    assert stored.tolist() == values and not stored.flags.writeable
    assert array.flags.writeable and not np.shares_memory(stored, array)
    view = array.view()  # read-only, but the caller can still write array
    view.setflags(write=False)
    assert not np.shares_memory(getattr(build(view), name), array)
    array.setflags(write=False)  # read-only, of the stored dtype, owning its memory
    assert np.shares_memory(getattr(build(array), name), array)


def test_grid_of_a_kept_column_major_array_of_another_shape_is_read_only():
    heights = np.asfortranarray(np.arange(8.0).reshape(4, 2))
    heights.setflags(write=False)
    grid = HeightGrid(rows=2, cols=4, heights=heights, obstacle=[False] * 8, spacing=1.0)
    assert grid.heights.tolist() == np.arange(8.0).reshape(4, 2).reshape(2, 4).tolist()
    assert not grid.heights.flags.writeable


def _trees(g: CoverageGraph) -> list[SpanningTree]:
    return [minimum_spanning_tree(g, g.weights(WeightSpec.SLOPE_PENALTY)), classical_spanning_tree(g)]


def test_builders_return_read_only_arrays(tmp_path):
    save_height_grid(generate_terrain(TerrainGenSpec(rows=16, cols=16, seed=3, max_obstacles=2)),
                     tmp_path / "t.txt")
    grid = load_height_grid(tmp_path / "t.txt")
    g = build_graph(aggregate(grid))
    arrays = [grid.heights, grid.obstacle, g.nodes, g.edges]
    for tree in _trees(g):
        arrays += [tree.edges, circumnavigate(tree).cells]
    assert not any(array.flags.writeable for array in arrays)


def _kept(monkeypatch: pytest.MonkeyPatch, build) -> list[bool]:
    """Whether the containers kept each array that build handed them."""
    kept, frozen = [], graph.frozen

    def spy(values, dtype):
        stored = frozen(values, dtype)
        kept.append(stored is values)
        return stored

    with monkeypatch.context() as patch:
        for module in (graph, terrain, coverage):
            patch.setattr(module, "frozen", spy)
        build()
    return kept


def test_builders_hand_over_arrays_the_containers_keep(monkeypatch):
    """parse_height_grid and circumnavigate freeze the arrays they make before
    they construct, so no container copies them."""
    grid = generate_terrain(TerrainGenSpec(rows=16, cols=16, seed=3, max_obstacles=2))
    assert grid.obstacle.any()
    text, m = format_height_grid(grid), aggregate(grid)
    trees = _trees(build_graph(m))
    for build in [lambda: parse_height_grid(text),
                  *[lambda tree=tree: circumnavigate(tree) for tree in trees]]:
        kept = _kept(monkeypatch, build)
        assert kept and all(kept)
