"""The array SVG renderer against the per-cell oracle, byte for byte."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import render_svg_per_cell
from slopecover.coverage import CoveragePath
from slopecover.graph import build_graph
from slopecover.spanning import minimum_spanning_tree
from slopecover.svg import render_svg
from slopecover.terrain import HeightGrid, TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec

CELL_PX = (10.0, 1.0, 0.37, 3.3e5, 123456.0, 1e-7)


def grid_of(heights, obstacle=None) -> HeightGrid:
    heights = np.asarray(heights, dtype=float)
    if obstacle is None:
        obstacle = np.zeros(heights.shape, dtype=bool)
    return HeightGrid(rows=heights.shape[0], cols=heights.shape[1], heights=heights,
                      obstacle=obstacle, spacing=1.0)


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("cell_px", CELL_PX)
def test_route_outside_the_grid(closed, cell_px):
    grid = grid_of(np.arange(16.0).reshape(4, 4), np.eye(4, dtype=bool))
    cells = [(0, 0), (-1, 0), (-1, -1), (-4, 2), (4, 3), (3, 4), (7, 9), (-300, 2**40),
             (2**62, -(2**63)), (2**63 - 1, 5)]
    path = CoveragePath(cells=cells, closed=closed)
    assert render_svg(grid, path, cell_px=cell_px) == render_svg_per_cell(grid, path, cell_px=cell_px)


def test_empty_route():
    grid = grid_of(np.zeros((2, 2)))
    for closed in (True, False):
        path = CoveragePath(cells=(), closed=closed)
        assert render_svg(grid, path) == render_svg_per_cell(grid, path)


def test_half_way_grey_levels_round_to_even():
    # t = k / 32 puts 48 + 176 t half way between two integers for odd k
    grid = grid_of(np.concatenate([np.arange(33.0), [0.0, 0.0, 32.0]]).reshape(2, 18))
    path = CoveragePath(cells=[(0, 0)])
    text = render_svg(grid, path)
    assert 'x="10" y="0" width="10" height="10" fill="#363636"' in text  # 53.5 -> 54
    assert 'x="30" y="0" width="10" height="10" fill="#404040"' in text  # 64.5 -> 64
    assert text == render_svg_per_cell(grid, path)


@pytest.mark.filterwarnings("error")
def test_span_overflow_raises_like_the_per_cell_renderer():
    grid = grid_of([[1e308, -1e308], [0.0, 5.0]])
    path = CoveragePath(cells=[(0, 0)])
    with pytest.raises(ValueError) as expected:
        render_svg_per_cell(grid, path)
    with pytest.raises(ValueError, match=str(expected.value)):
        render_svg(grid, path)
    masked = grid_of([[1e308, -1e308], [0.0, 5.0]], np.array([[True, False], [False, False]]))
    assert render_svg(masked, path) == render_svg_per_cell(masked, path)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda rc: (2 * rc[0], 2 * rc[1])),
    levels=st.sampled_from([1, 2, 3, 5, 33, 353]),
    scale=st.sampled_from([1.0, 1e-300, 3.7, 1e300]),
    seed=st.integers(0, 2**32 - 1),
    cell_px=st.sampled_from(CELL_PX),
    closed=st.booleans(),
)
def test_matches_per_cell_renderer(shape, levels, scale, seed, cell_px, closed):
    """Random heights with many ties (with 33 or 353 levels some grey levels
    fall half way between two integers), random obstacles and a random walk
    that leaves the grid."""
    rng = np.random.default_rng(seed)
    heights = rng.integers(0, levels, size=shape) * scale + rng.choice([0.0, 0.25])
    grid = grid_of(heights, rng.random(shape) < 0.2)
    steps = rng.integers(-3, shape[0] + 3, size=(int(rng.integers(0, 20)), 2))
    path = CoveragePath(cells=steps, closed=closed)
    assert render_svg(grid, path, cell_px=cell_px) == render_svg_per_cell(grid, path, cell_px=cell_px)


def test_tree_overlay_matches_per_cell_renderer():
    grid = generate_terrain(TerrainGenSpec(rows=20, cols=16, seed=9, max_obstacles=3, roughness=0.3))
    tree = minimum_spanning_tree(build_graph(aggregate(grid)), WeightSpec.SLOPE_PENALTY)
    path = CoveragePath(cells=[(0, 0), (0, 1), (25, -2)])
    for cell_px in CELL_PX:
        assert render_svg(grid, path, tree, cell_px) == render_svg_per_cell(grid, path, tree, cell_px)
