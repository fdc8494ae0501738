from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import coverage_violations, tree_crossing_violations
from slopecover.coverage import (
    CoveragePath,
    FineCell,
    PathMismatchError,
    PathParseError,
    circumnavigate,
    count_sacrificed_cells,
    format_path,
    parse_path,
    path_cost,
    validate_path,
)
from slopecover.graph import build_graph
from slopecover.spanning import SpanningTree, minimum_spanning_tree
from slopecover.terrain import HeightGrid, MegaGrid, TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec


def mega(heights, blocked=None, spacing=2.0) -> MegaGrid:
    heights = np.asarray(heights, dtype=float)
    if blocked is None:
        blocked = np.zeros(heights.shape, dtype=bool)
    return MegaGrid(
        rows=heights.shape[0],
        cols=heights.shape[1],
        heights=heights,
        blocked=blocked,
        spacing=spacing,
    )


def tree_for(m: MegaGrid):
    return minimum_spanning_tree(build_graph(m, WeightSpec.PYTHAGORAS))


def test_single_mega_cell_clockwise_square():
    m = mega([[5.0]])
    path = circumnavigate(tree_for(m), m)
    assert path.closed
    assert path.cells == (FineCell(0, 0), FineCell(0, 1), FineCell(1, 1), FineCell(1, 0))


def test_two_horizontal_mega_cells_hug_the_edge():
    m = mega([[0.0, 0.0]])
    path = circumnavigate(tree_for(m), m)
    # unique hugging cycle on the 2x4 fine grid, enumerated by hand
    assert path.cells == (
        FineCell(0, 0),
        FineCell(0, 1),
        FineCell(0, 2),
        FineCell(0, 3),
        FineCell(1, 3),
        FineCell(1, 2),
        FineCell(1, 1),
        FineCell(1, 0),
    )


def test_two_vertical_mega_cells_hug_the_edge():
    m = mega([[0.0], [0.0]])
    path = circumnavigate(tree_for(m), m)
    assert path.cells == (
        FineCell(0, 0),
        FineCell(0, 1),
        FineCell(1, 1),
        FineCell(2, 1),
        FineCell(3, 1),
        FineCell(3, 0),
        FineCell(2, 0),
        FineCell(1, 0),
    )


def test_starts_at_top_left_subcell_of_root():
    blocked = np.array([[True, False], [False, False]])
    m = mega(np.zeros((2, 2)), blocked)
    path = circumnavigate(tree_for(m), m)
    # root is the first free mega cell in row-major order: (0, 1)
    assert path.cells[0] == FineCell(0, 2)


def test_invariants_on_random_terrains():
    rng = np.random.default_rng(77)
    for _ in range(12):
        rows = 2 * int(rng.integers(4, 12))
        cols = 2 * int(rng.integers(4, 12))
        spec = TerrainGenSpec(
            rows=rows,
            cols=cols,
            seed=int(rng.integers(2**32)),
            max_obstacles=int(rng.integers(0, 5)),
            roughness=float(rng.uniform(0.0, 0.5)),
        )
        grid = generate_terrain(spec)
        m = aggregate(grid)
        tree = tree_for(m)
        path = circumnavigate(tree, m)
        assert coverage_violations(path, grid) == []
        assert tree_crossing_violations(path, tree) == []
        assert len(path.cells) == 4 * int((~m.blocked).sum())
        validate_path(path, grid)  # the library's own checker agrees


@pytest.mark.parametrize("edges", [[], [0], [0, 1, 2, 3]])
def test_rejects_edge_set_that_is_not_a_spanning_tree(edges):
    m = mega(np.zeros((2, 2)))
    g = build_graph(m, WeightSpec.UNIT)
    not_a_tree = SpanningTree(graph=g, edges=np.array(edges, dtype=np.int64))
    with pytest.raises(ValueError, match="does not span"):
        circumnavigate(not_a_tree, m)


def test_rejects_mismatched_mega_grid():
    m = mega([[0.0, 0.0]])
    other = mega([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="does not match"):
        circumnavigate(tree_for(m), other)


class TestPathCost:
    def test_flat_closed_path_costs_length_times_spacing(self):
        grid = HeightGrid(rows=2, cols=2, heights=[3.0] * 4, obstacle=[False] * 4, spacing=0.5)
        m = aggregate(grid)
        path = circumnavigate(tree_for(m), m)
        assert path_cost(path, grid, WeightSpec.PYTHAGORAS) == pytest.approx(
            len(path.cells) * 0.5, rel=1e-12
        )

    def test_unit_spec_costs_length(self):
        grid = HeightGrid(
            rows=2, cols=4, heights=list(range(8)), obstacle=[False] * 8, spacing=1.0
        )
        m = aggregate(grid)
        path = circumnavigate(tree_for(m), m)
        assert path_cost(path, grid, WeightSpec.UNIT) == len(path.cells)

    def test_single_mega_cell_heights_1234(self):
        # clockwise visit order of the fine heights is 1, 2, 4, 3
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=1.0)
        m = aggregate(grid)
        path = circumnavigate(tree_for(m), m)
        expected = 2 * math.sqrt(2.0) + 2 * math.sqrt(5.0)
        assert path_cost(path, grid, WeightSpec.PYTHAGORAS) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.300563, abs=1e-6)


def test_sacrificed_cells_counted():
    obstacle = np.zeros((4, 4), dtype=bool)
    obstacle[0, 0] = True  # blocks mega (0,0); its other 3 fine cells are sacrificed
    grid = HeightGrid(rows=4, cols=4, heights=np.zeros(16), obstacle=obstacle, spacing=1.0)
    assert count_sacrificed_cells(grid) == 3


def test_no_sacrifice_without_obstacles():
    grid = HeightGrid(rows=4, cols=4, heights=np.zeros(16), obstacle=np.zeros(16, bool), spacing=1.0)
    assert count_sacrificed_cells(grid) == 0


class TestPathFiles:
    def test_round_trip(self):
        path = CoveragePath(cells=(FineCell(0, 0), FineCell(0, 1), FineCell(1, 1), FineCell(1, 0)))
        text = format_path(path)
        assert text.splitlines()[0] == "PATH 4 closed"
        back = parse_path(text)
        assert back.cells == path.cells
        assert back.closed

    def test_bad_header(self):
        with pytest.raises(PathParseError, match="header"):
            parse_path("ROUTE 4 closed\n0 0\n0 1\n1 1\n1 0\n")

    def test_count_mismatch(self):
        with pytest.raises(PathParseError, match="expected 4 cells"):
            parse_path("PATH 4 closed\n0 0\n0 1\n")

    def test_non_integer_cell(self):
        with pytest.raises(PathParseError, match="non-integer"):
            parse_path("PATH 1 closed\n0 x\n")


class TestValidatePath:
    def make_grid(self):
        return HeightGrid(rows=2, cols=2, heights=[0.0] * 4, obstacle=[False] * 4, spacing=1.0)

    def test_accepts_valid_cycle(self):
        grid = self.make_grid()
        path = CoveragePath(cells=(FineCell(0, 0), FineCell(0, 1), FineCell(1, 1), FineCell(1, 0)))
        validate_path(path, grid)

    def test_rejects_wrong_length(self):
        path = CoveragePath(cells=(FineCell(0, 0), FineCell(0, 1)))
        with pytest.raises(PathMismatchError, match="length"):
            validate_path(path, self.make_grid())

    def test_rejects_out_of_bounds(self):
        path = CoveragePath(cells=(FineCell(0, 0), FineCell(0, 1), FineCell(0, 2), FineCell(0, 3)))
        with pytest.raises(PathMismatchError, match="outside"):
            validate_path(path, self.make_grid())

    def test_rejects_duplicate_visit(self):
        path = CoveragePath(
            cells=(FineCell(0, 0), FineCell(0, 1), FineCell(0, 0), FineCell(1, 0))
        )
        with pytest.raises(PathMismatchError, match="twice"):
            validate_path(path, self.make_grid())

    def test_rejects_diagonal_step(self):
        path = CoveragePath(cells=(FineCell(0, 0), FineCell(1, 1), FineCell(0, 1), FineCell(1, 0)))
        with pytest.raises(PathMismatchError, match="4-adjacent"):
            validate_path(path, self.make_grid())

    def test_rejects_open_path(self):
        path = CoveragePath(
            cells=(FineCell(0, 0), FineCell(0, 1), FineCell(1, 1), FineCell(1, 0)), closed=False
        )
        with pytest.raises(PathMismatchError, match="closed"):
            validate_path(path, self.make_grid())

    def test_rejects_obstacle_cell(self):
        obstacle = np.zeros((2, 2), dtype=bool)
        obstacle[1, 0] = True
        grid = HeightGrid(rows=2, cols=2, heights=[0.0] * 4, obstacle=obstacle, spacing=1.0)
        path = CoveragePath(cells=(FineCell(0, 0), FineCell(0, 1), FineCell(1, 1), FineCell(1, 0)))
        with pytest.raises(PathMismatchError):
            validate_path(path, grid)
