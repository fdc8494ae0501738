"""Minimal SVG writer for terrain-plus-route figures."""

from __future__ import annotations

import numpy as np

from slopecover.coverage import CoveragePath, _each_formatted
from slopecover.terrain import HeightGrid

_OBSTACLE_FILL = "#d62728"  # solid red
_ROUTE_STROKE = "#1f77b4"
_TREE_STROKE = "#ff7f0e"
_GRAY_LOW, _GRAY_HIGH = 48, 224  # dark = low terrain, light = high
# fill of each grey level 0..255, then the obstacle fill at index 256
_FILLS = np.array([f"#{g:02x}{g:02x}{g:02x}" for g in range(256)] + [_OBSTACLE_FILL], dtype=object)


def render_svg(grid: HeightGrid, path: CoveragePath, show_tree: bool = False,
               cell_px: float = 10.0) -> str:
    """Height-shaded fine-cell grid with the route polyline on top.

    Shading is linear grayscale between the terrain's min and max height;
    obstacle cells get a solid red fill. The route is a single polyline whose
    point count is path length + 1 when the path is closed. With show_tree,
    each pair of 4-adjacent mega cells the route steps across is drawn once,
    as a line between the mega-cell centres. A circumnavigation crosses
    exactly its spanning tree's edges, so for a planned route this is the tree.
    """
    s = float(cell_px)
    if not s > 0:
        raise ValueError(f"cell_px must be positive, got {cell_px}")
    width, height = grid.cols * s, grid.rows * s
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        *_cell_rows(grid, s),
    ]
    cells = path.cells
    if path.closed and len(cells):
        cells = np.concatenate([cells, cells[:1]])
    if show_tree:
        lines += _crossing_lines(cells, s)
    lines.append(
        f'<polyline points="{_points_text(cells, s)}" fill="none" stroke="{_ROUTE_STROKE}" '
        f'stroke-width="{0.25 * s:g}" stroke-linejoin="round"/>'
    )
    lines += ["</svg>", ""]  # the empty last line ends the text with a newline
    return "\n".join(lines)


def _cell_rows(grid: HeightGrid, s: float) -> list[str]:
    """The `<rect>` lines of each grid row, joined by newlines, one string per
    row. Each grey level is `round(48 + t * 176)` of the height's position t
    in the terrain's range (0.5 on a flat terrain); `np.rint` rounds half to
    even, as `round` does."""
    h_min, h_max = float(grid.heights.min()), float(grid.heights.max())
    h_span = h_max - h_min
    with np.errstate(over="ignore", invalid="ignore"):  # heights near ±max float overflow
        t = (grid.heights - h_min) / h_span if h_span else np.full(grid.heights.shape, 0.5)
    gray = np.rint(_GRAY_LOW + t * (_GRAY_HIGH - _GRAY_LOW))
    if np.isnan(gray[~grid.obstacle]).any():
        raise ValueError(f"cannot shade the terrain: height span {h_span} between min height "
                         f"{h_min} and max height {h_max} is not finite")
    fills = _FILLS[np.where(grid.obstacle, len(_FILLS) - 1, gray).astype(np.intp)]
    size = f"{s:g}"
    args: list[str | None] = [None] * (2 * grid.cols)  # x, fill, x, fill, ...
    args[0::2] = [f"{c * s:g}" for c in range(grid.cols)]
    rows = []
    for r in range(grid.rows):
        args[1::2] = fills[r].tolist()
        rect = f'<rect x="%s" y="{r * s:g}" width="{size}" height="{size}" fill="%s"/>\n'
        rows.append((rect * grid.cols)[:-1] % tuple(args))
    return rows


def _crossing_lines(cells: np.ndarray, s: float) -> list[str]:
    """The `<line>`s, joined by newlines, of the 4-adjacent mega-cell pairs
    that consecutive cells step across: none, or one string. Each pair is
    drawn once from its upper or left end, sorted by that end's row and
    column with right before down, which is the canonical edge order."""
    a, b = cells[:-1] // 2, cells[1:] // 2
    down = (a[:, 1] == b[:, 1]) & (np.abs(a[:, 0] - b[:, 0]) == 1)
    step = down | ((a[:, 0] == b[:, 0]) & (np.abs(a[:, 1] - b[:, 1]) == 1))
    if not step.any():
        return []
    # row and column of each step's upper or left end, then 0 for right or 1 for down
    keys = np.column_stack([np.minimum(a, b)[step], down[step]]).T
    keys = keys[:, np.lexsort(keys[::-1])]
    r, c, down = keys[:, np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)]]
    ends = np.stack([c, r, c + 1 - down, r + down], axis=1)  # x1, y1, x2, y2 of each line
    coords = _each_formatted(ends.ravel(), lambda v: f"{(2 * v + 1) * s:g}")
    line = (f'<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="{_TREE_STROKE}" '
            f'stroke-width="{0.3 * s:g}"/>\n')
    return [(line * len(r))[:-1] % tuple(coords)]


def _points_text(cells: np.ndarray, s: float) -> str:
    """`x,y` of each cell's centre, space separated."""
    points = np.empty(2 * len(cells), dtype=object)  # "x,", "y ", "x,", "y ", ...
    points[0::2] = _each_formatted(cells[:, 1], lambda v: f"{(v + 0.5) * s:g},")
    points[1::2] = _each_formatted(cells[:, 0], lambda v: f"{(v + 0.5) * s:g} ")
    return "".join(points.tolist())[:-1]
