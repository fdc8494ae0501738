"""The array SVG renderer against the per-cell oracle, byte for byte."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import render_svg_per_cell, route_crossings
from slopecover.coverage import CoveragePath, circumnavigate
from slopecover.graph import build_graph, classical_spanning_tree, minimum_spanning_tree
from slopecover.svg import render_svg
from slopecover.terrain import (
    HeightGrid,
    TerrainGenerationError,
    TerrainGenSpec,
    aggregate,
    generate_terrain,
)
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
    with pytest.raises(ValueError):
        render_svg_per_cell(grid, path)
    message = "height span inf between min height -1e+308 and max height 1e+308 is not finite"
    with pytest.raises(ValueError, match=re.escape(message)):
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
    graph = build_graph(aggregate(grid))
    tree = minimum_spanning_tree(graph, graph.weights(WeightSpec.SLOPE_PENALTY))
    path = circumnavigate(tree)
    for cell_px in CELL_PX:
        assert (render_svg(grid, path, show_tree=True, cell_px=cell_px)
                == render_svg_per_cell(grid, path, tree, cell_px))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 13), st.integers(1, 13)).map(lambda rc: (2 * rc[0], 2 * rc[1])),
    seed=st.integers(0, 2**32 - 1),
    obstacles=st.integers(0, 4),
    roughness=st.sampled_from([0.0, 0.2, 0.5]),
    method=st.sampled_from(["mst", "classical"]),
    spec=st.sampled_from(list(WeightSpec)),
    cell_px=st.sampled_from(CELL_PX),
)
def test_planned_route_overlay_is_its_tree(shape, seed, obstacles, roughness, method, spec, cell_px):
    """A circumnavigation crosses exactly its tree's edges, so the overlay
    drawn from the route alone is the tree the route was planned from."""
    try:
        grid = generate_terrain(TerrainGenSpec(rows=shape[0], cols=shape[1], seed=seed,
                                               max_obstacles=obstacles, roughness=roughness))
    except TerrainGenerationError:
        assume(False)
    graph = build_graph(aggregate(grid))
    if method == "mst":
        tree = minimum_spanning_tree(graph, graph.weights(spec))
    else:
        tree = classical_spanning_tree(graph)
    path = circumnavigate(tree)
    assert (render_svg(grid, path, show_tree=True, cell_px=cell_px)
            == render_svg_per_cell(grid, path, tree, cell_px))


def tree_lines(svg: str) -> list[str]:
    return [line for line in svg.splitlines() if line.startswith("<line ")]


def drawn_pairs(svg: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The mega-cell pairs of an overlay drawn at 1 px per fine cell, where
    a mega-cell centre sits at 2 v + 1."""
    pairs = []
    for line in tree_lines(svg):
        x1, y1, x2, y2 = (round((float(v) - 1) / 2) for v in re.findall(r'[xy][12]="([^"]+)"', line))
        pairs.append(((y1, x1), (y2, x2)))
    return pairs


HAND_ROUTES = {
    # mega (2, 2) -> (2, 1) -> (1, 1) -> (1, 0) -> (0, 0): every crossing goes left or up
    "open-left-and-up": ([(5, 5), (5, 3), (3, 3), (3, 1), (1, 1)], False),
    "repeated-crossings": ([(0, 0), (0, 2), (0, 1), (0, 3), (2, 3), (1, 3), (0, 2)], True),
    # diagonal and two-apart jumps between mega cells cross no mega edge
    "non-adjacent-jumps": ([(0, 0), (2, 2), (2, 6), (6, 6), (6, 7), (7, 5)], True),
    "outside-the-grid": ([(-1, -1), (-1, 0), (-3, 0), (9, 9), (9, 11), (-1, -2), (40, 41)], True),
    "within-one-mega-cell": ([(0, 0), (0, 1), (1, 1), (1, 0)], True),
    "closing-step-only": ([(0, 0), (4, 4), (0, 2)], True),
    "empty": ([], True),
}


@pytest.mark.parametrize("name", sorted(HAND_ROUTES))
def test_hand_route_overlay_draws_its_crossings(name):
    cells, closed = HAND_ROUTES[name]
    grid = grid_of(np.arange(64.0).reshape(8, 8))
    path = CoveragePath(cells=cells, closed=closed)
    svg = render_svg(grid, path, show_tree=True, cell_px=1.0)
    assert drawn_pairs(svg) == sorted(route_crossings(cells, closed))
    # the overlay sits between the cells and the polyline, and is all that show_tree adds
    plain = render_svg(grid, path, cell_px=1.0).splitlines(keepends=True)
    lines = "".join(line + "\n" for line in tree_lines(svg))
    assert svg == "".join(plain[:-2]) + lines + "".join(plain[-2:])


def test_hand_routes_cover_each_case():
    pairs = {name: route_crossings(*HAND_ROUTES[name]) for name in HAND_ROUTES}
    assert pairs["open-left-and-up"] == {((2, 1), (2, 2)), ((1, 1), (2, 1)), ((1, 0), (1, 1)),
                                         ((0, 0), (1, 0))}
    assert pairs["repeated-crossings"] == {((0, 0), (0, 1)), ((0, 1), (1, 1))}
    assert pairs["non-adjacent-jumps"] == {((3, 2), (3, 3))}
    assert pairs["outside-the-grid"] == {((-1, -1), (-1, 0)), ((-2, 0), (-1, 0)),
                                         ((4, 4), (4, 5))}
    assert pairs["closing-step-only"] == {((0, 0), (0, 1))}
    assert pairs["within-one-mega-cell"] == pairs["empty"] == set()


INT64 = st.integers(-(2**63) + 100, 2**63 - 100)


@settings(max_examples=150, deadline=None)
@given(
    start=st.tuples(INT64, INT64),
    steps=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=30),
    closed=st.booleans(),
    cell_px=st.sampled_from(CELL_PX),
)
def test_overlay_lines_match_per_crossing_format(start, steps, closed, cell_px):
    """A walk anywhere in int64, byte for byte against one f-string per
    crossing, sorted in canonical edge order."""
    cells = np.cumsum([start, *steps], axis=0, dtype=object).astype(np.int64)
    s = float(cell_px)
    expected = [
        f'<line x1="{(2 * ca + 1) * s:g}" y1="{(2 * ra + 1) * s:g}" '
        f'x2="{(2 * cb + 1) * s:g}" y2="{(2 * rb + 1) * s:g}" '
        f'stroke="#ff7f0e" stroke-width="{0.3 * s:g}"/>'
        for (ra, ca), (rb, cb) in sorted(route_crossings(cells, closed))
    ]
    svg = render_svg(grid_of(np.zeros((2, 2))), CoveragePath(cells=cells, closed=closed),
                     show_tree=True, cell_px=cell_px)
    assert tree_lines(svg) == expected
