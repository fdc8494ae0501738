"""Minimal SVG writer for terrain-plus-route figures."""

from __future__ import annotations

import math

import numpy as np

from slopecover.coverage import CoveragePath, _each_formatted, _joined
from slopecover.terrain import HeightGrid

_OBSTACLE_FILL = "#d62728"  # solid red
_ROUTE_STROKE = "#1f77b4"
_TREE_STROKE = "#ff7f0e"
_GRAY_LOW, _GRAY_HIGH = 48, 224  # dark = low terrain, light = high
# the end of a `<rect>` of each grey level 0..255, then of an obstacle at index 256
_FILLS = np.array([f'#{g:02x}{g:02x}{g:02x}"/>\n' for g in range(256)] + [f'{_OBSTACLE_FILL}"/>\n'],
                  dtype=object)


def render_svg(grid: HeightGrid, path: CoveragePath, show_tree: bool = False,
               cell_px: float = 10.0) -> str:
    """Height-shaded fine-cell grid with the route polyline on top.

    Shading is linear grayscale between the terrain's min and max height;
    obstacle cells get a solid red fill. The route is a single polyline whose
    point count is path length + 1 when the path is closed. With show_tree,
    each pair of 4-adjacent mega cells the route steps across is drawn once,
    as a line between the mega-cell centres. A circumnavigation crosses
    exactly its spanning tree's edges, so for a planned route this is the tree.
    Raises ValueError unless cell_px is positive and the image size finite.
    """
    s = float(cell_px)
    width, height = grid.cols * s, grid.rows * s
    if not (s > 0 and math.isfinite(max(width, height))):
        raise ValueError(f"cell_px must be positive and keep the {grid.rows}x{grid.cols} "
                         f"image size finite, got {cell_px}")
    cells = path.cells
    if path.closed and len(cells):
        cells = np.concatenate([cells, cells[:1]])
    return "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">\n',
        *_cell_rows(grid, s),
        _crossing_lines(cells, s) if show_tree else "",
        f'<polyline points="{_points_text(cells, s)}" fill="none" stroke="{_ROUTE_STROKE}" '
        f'stroke-width="{0.25 * s:g}" stroke-linejoin="round"/>\n</svg>\n',
    ])


def _cell_rows(grid: HeightGrid, s: float) -> list[str]:
    """The `<rect>` lines of each grid row, one string per row. Each grey
    level is `round(48 + t * 176)` of the height's position t in the
    terrain's range (0.5 on a flat terrain); `np.rint` rounds half to even,
    as `round` does."""
    h_min, h_max = float(grid.heights.min()), float(grid.heights.max())
    h_span = h_max - h_min
    with np.errstate(over="ignore", invalid="ignore"):  # heights near ±max float overflow
        t = (grid.heights - h_min) / h_span if h_span else np.full(grid.heights.shape, 0.5)
    gray = np.rint(_GRAY_LOW + t * (_GRAY_HIGH - _GRAY_LOW))
    if np.isnan(gray[~grid.obstacle]).any():
        raise ValueError(f"cannot shade the terrain: height span {h_span} between min height "
                         f"{h_min} and max height {h_max} is not finite")
    fills = _FILLS[np.where(grid.obstacle, len(_FILLS) - 1, gray).astype(np.intp)]
    starts = np.array([f'<rect x="{c * s:g}" y="' for c in range(grid.cols)], dtype=object)
    return [_joined(starts, f'{r * s:g}" width="{s:g}" height="{s:g}" fill="', fills[r])
            for r in range(grid.rows)]


def _crossing_lines(cells: np.ndarray, s: float) -> str:
    """The `<line>`s of the 4-adjacent mega-cell pairs that consecutive cells
    step across. Each pair is drawn once from its upper or left end, sorted
    by that end's row and column with right before down, which is the
    canonical edge order."""
    a, b = cells[:-1] // 2, cells[1:] // 2
    down = (a[:, 1] == b[:, 1]) & (np.abs(a[:, 0] - b[:, 0]) == 1)
    step = down | ((a[:, 0] == b[:, 0]) & (np.abs(a[:, 1] - b[:, 1]) == 1))
    # row and column of each step's upper or left end, then 0 for right or 1 for down
    keys = np.column_stack([np.minimum(a, b)[step], down[step]])
    keys = keys[np.lexsort(keys.T[::-1])]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    r, c, down = keys[first].T
    ends = (c, r, c + 1 - down, r + down)  # x1, y1, x2, y2 of each line
    texts = ('<line x1="{}" y1="', '{}" x2="', '{}" y2="',
             f'{{}}" stroke="{_TREE_STROKE}" stroke-width="{0.3 * s:g}"/>\n')
    return _joined(*(_each_formatted(v, lambda v, text=text: text.format(f"{(2 * v + 1) * s:g}"))
                     for v, text in zip(ends, texts)))


def _points_text(cells: np.ndarray, s: float) -> str:
    """`x,y` of each cell's centre, space separated."""
    return _joined(_each_formatted(cells[:, 1], lambda v: f"{(v + 0.5) * s:g},"),
                   _each_formatted(cells[:, 0], lambda v: f"{(v + 0.5) * s:g} "))[:-1]
