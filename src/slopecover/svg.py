"""Minimal SVG writer for terrain-plus-route figures."""

from __future__ import annotations

from slopecover.coverage import CoveragePath
from slopecover.spanning import SpanningTree
from slopecover.terrain import HeightGrid

_OBSTACLE_FILL = "#d62728"  # solid red
_ROUTE_STROKE = "#1f77b4"
_TREE_STROKE = "#ff7f0e"
_GRAY_LOW, _GRAY_HIGH = 48, 224  # dark = low terrain, light = high


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
    h_min = float(grid.heights.min())
    h_span = float(grid.heights.max()) - h_min
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
    ]
    for r in range(grid.rows):
        for c in range(grid.cols):
            if grid.obstacle[r, c]:
                fill = _OBSTACLE_FILL
            else:
                t = 0.5 if h_span == 0 else (float(grid.heights[r, c]) - h_min) / h_span
                gray = int(round(_GRAY_LOW + t * (_GRAY_HIGH - _GRAY_LOW)))
                fill = f"#{gray:02x}{gray:02x}{gray:02x}"
            lines.append(
                f'<rect x="{c * s:g}" y="{r * s:g}" width="{s:g}" height="{s:g}" fill="{fill}"/>'
            )
    if tree is not None:
        g = tree.graph
        for (ra, ca), (rb, cb) in g.nodes[g.edges[tree.edges]].tolist():
            lines.append(
                f'<line x1="{(2 * ca + 1) * s:g}" y1="{(2 * ra + 1) * s:g}" '
                f'x2="{(2 * cb + 1) * s:g}" y2="{(2 * rb + 1) * s:g}" '
                f'stroke="{_TREE_STROKE}" stroke-width="{0.3 * s:g}"/>'
            )
    rows, cols = path.cells.T.tolist()
    if path.closed and rows:
        rows, cols = rows + rows[:1], cols + cols[:1]
    point_text = " ".join(f"{(c + 0.5) * s:g},{(r + 0.5) * s:g}" for r, c in zip(rows, cols))
    lines.append(
        f'<polyline points="{point_text}" fill="none" stroke="{_ROUTE_STROKE}" '
        f'stroke-width="{0.25 * s:g}" stroke-linejoin="round"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
