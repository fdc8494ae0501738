"""Minimal SVG writer for terrain-plus-route figures."""

from __future__ import annotations

import numpy as np

from slopecover.coverage import CoveragePath
from slopecover.spanning import SpanningTree
from slopecover.terrain import HeightGrid

_OBSTACLE_FILL = "#d62728"  # solid red
_ROUTE_STROKE = "#1f77b4"
_TREE_STROKE = "#ff7f0e"
_GRAY_LOW, _GRAY_HIGH = 48, 224  # dark = low terrain, light = high
# fill of each grey level 0..255, then the obstacle fill at index 256
_FILLS = np.array([f"#{g:02x}{g:02x}{g:02x}" for g in range(256)] + [_OBSTACLE_FILL], dtype=object)


def render_svg(
    grid: HeightGrid,
    path: CoveragePath,
    tree: SpanningTree | None = None,
    cell_px: float = 10.0,
) -> str:
    """Height-shaded fine-cell grid with the route polyline on top.

    Shading is linear grayscale between the terrain's min and max height;
    obstacle cells get a solid red fill. The route is a single polyline whose
    point count is path length + 1 when the path is closed. Tree edges, when
    given, are drawn as separate line elements between mega-cell centres.
    """
    s = float(cell_px)
    if not s > 0:
        raise ValueError(f"cell_px must be positive, got {cell_px}")
    width = grid.cols * s
    height = grid.rows * s
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        *_cell_rows(grid, s),
    ]
    if tree is not None:
        g = tree.graph
        for (ra, ca), (rb, cb) in g.nodes[g.edges[tree.edges]].tolist():
            lines.append(
                f'<line x1="{(2 * ca + 1) * s:g}" y1="{(2 * ra + 1) * s:g}" '
                f'x2="{(2 * cb + 1) * s:g}" y2="{(2 * rb + 1) * s:g}" '
                f'stroke="{_TREE_STROKE}" stroke-width="{0.3 * s:g}"/>'
            )
    cells = path.cells
    if path.closed and len(cells):
        cells = np.concatenate([cells, cells[:1]])
    lines.append(
        f'<polyline points="{_points_text(cells, s)}" fill="none" stroke="{_ROUTE_STROKE}" '
        f'stroke-width="{0.25 * s:g}" stroke-linejoin="round"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cell_rows(grid: HeightGrid, s: float) -> list[str]:
    """The `<rect>` lines of each grid row, joined by newlines, one string per
    row. Each grey level is `round(48 + t * 176)` of the height's position t
    in the terrain's range (0.5 on a flat terrain); `np.rint` rounds half to
    even, as `round` does."""
    h_min = float(grid.heights.min())
    h_span = float(grid.heights.max()) - h_min
    with np.errstate(over="ignore", invalid="ignore"):  # heights near ±max float overflow
        t = (grid.heights - h_min) / h_span if h_span else np.full(grid.heights.shape, 0.5)
    gray = np.rint(_GRAY_LOW + t * (_GRAY_HIGH - _GRAY_LOW))
    if np.isnan(gray[~grid.obstacle]).any():
        raise ValueError("cannot convert float NaN to integer")
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


def _points_text(cells: np.ndarray, s: float) -> str:
    """`x,y` of each cell's centre, space separated. Each distinct column and
    row is formatted once, so any int64 cell works, inside the grid or not."""
    points = np.empty(2 * len(cells), dtype=object)  # x, y, x, y, ...
    for k, coords in enumerate((cells[:, 1], cells[:, 0])):
        values, inverse = np.unique(coords, return_inverse=True)
        points[k::2] = np.array([f"{(v + 0.5) * s:g}" for v in values.tolist()], dtype=object)[inverse]
    return ("%s,%s " * len(cells))[:-1] % tuple(points.tolist())
