"""Circumnavigating a spanning tree into the fine-grid coverage cycle."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from slopecover.spanning import SpanningTree
from slopecover.terrain import HeightGrid, MegaGrid, blocked_mega_cells
from slopecover.weights import WeightSpec, edge_weight

# (row, col) offsets of the sub-cell corners of a mega cell, clockwise
# starting top-left: NW, NE, SE, SW
_CORNER_OFFSET = ((0, 0), (0, 1), (1, 1), (1, 0))


class FineCell(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True, eq=False)
class CoveragePath:
    """Ordered fine-cell route; closed paths wrap from the last cell to the first."""

    cells: tuple[FineCell, ...]
    closed: bool = True


class PathParseError(ValueError):
    """Path file is structurally malformed."""


class PathMismatchError(ValueError):
    """Path is inconsistent with the terrain it is checked against."""


def circumnavigate(tree: SpanningTree, mega: MegaGrid) -> CoveragePath:
    """Walk clockwise around the spanning tree, hugging it, and return the
    closed cycle over fine cells.

    Each mega cell contributes its four fine sub-cells. Within a cell the
    walk rotates clockwise (NW, NE, SE, SW); when the rotation would cross an
    incident tree edge it crosses into the neighbouring mega cell instead.
    Every fine cell of every free mega cell is visited exactly once, and the
    walk crosses between mega cells only over tree edges. Starts at the
    top-left sub-cell of node 0, the first free mega cell in row-major order.
    """
    g = tree.graph
    if (
        mega.rows != g.mega.rows
        or mega.cols != g.mega.cols
        or not np.array_equal(mega.blocked, g.mega.blocked)
    ):
        raise ValueError("mega grid does not match the tree's graph")
    n = len(g.nodes)
    # state 4u + k is corner k of node u. From corner k the walk crosses the
    # tree edge in direction k (up, right, down, left), if any, arriving at
    # the corner before k of the neighbour; otherwise it turns to corner k + 1.
    incident = g.incident_edges()
    crossing = np.isin(incident, tree.edges)
    successor = np.arange(4 * n).reshape(n, 4) + (1, 1, 1, -3)
    u, k = np.nonzero(crossing)
    neighbour = g.edges[incident[crossing]].sum(axis=1) - u
    successor[crossing] = 4 * neighbour + (k + 3) % 4
    successor = successor.ravel().tolist()
    # successor is a permutation of the states, so the walk returns to state 0
    order = [0]
    state = successor[0]
    while state:
        order.append(state)
        state = successor[state]
    rows, cols = (2 * g.nodes[:, None, :] + _CORNER_OFFSET).reshape(-1, 2)[order].T.tolist()
    cells = tuple(map(FineCell, rows, cols))
    if len(cells) != 4 * n:
        raise ValueError(
            f"tree walk covered {len(cells)} of {4 * n} fine cells; "
            "the tree does not span all free mega cells"
        )
    return CoveragePath(cells=cells, closed=True)


def path_cost(path: CoveragePath, grid: HeightGrid, spec: WeightSpec) -> float:
    """Sum of edge weights over consecutive fine cells (cyclically when closed)."""
    cells = path.cells
    if len(cells) < 2:
        return 0.0
    heights = grid.heights
    successors = cells[1:] + (cells[:1] if path.closed else ())
    total = 0.0
    for a, b in zip(cells, successors):
        total += edge_weight(
            spec, float(heights[a.row, a.col]), float(heights[b.row, b.col]), grid.spacing
        )
    return total


def count_sacrificed_cells(grid: HeightGrid) -> int:
    """Free fine cells that cannot be covered because their mega cell is blocked."""
    blocked = blocked_mega_cells(grid.obstacle)
    fine_blocked = blocked.repeat(2, axis=0).repeat(2, axis=1)
    return int((fine_blocked & ~grid.obstacle).sum())


def validate_path(path: CoveragePath, grid: HeightGrid) -> None:
    """Raise PathMismatchError unless path is a full coverage cycle for grid."""
    if not path.closed:
        raise PathMismatchError("coverage path must be closed")
    cells = path.cells
    if not cells:
        raise PathMismatchError("path is empty")
    blocked = blocked_mega_cells(grid.obstacle)
    expected = 4 * int((~blocked).sum())
    if len(cells) != expected:
        raise PathMismatchError(
            f"path length {len(cells)} != 4 x free mega cells ({expected})"
        )
    seen: set[FineCell] = set()
    for cell in cells:
        if not (0 <= cell.row < grid.rows and 0 <= cell.col < grid.cols):
            raise PathMismatchError(f"cell {cell.row},{cell.col} lies outside the grid")
        if grid.obstacle[cell.row, cell.col]:
            raise PathMismatchError(f"cell {cell.row},{cell.col} is an obstacle")
        if blocked[cell.row // 2, cell.col // 2]:
            raise PathMismatchError(f"cell {cell.row},{cell.col} lies in a blocked mega cell")
        if cell in seen:
            raise PathMismatchError(f"cell {cell.row},{cell.col} visited twice")
        seen.add(cell)
    for a, b in zip(cells, cells[1:] + cells[:1]):
        if abs(a.row - b.row) + abs(a.col - b.col) != 1:
            raise PathMismatchError(
                f"step {a.row},{a.col} -> {b.row},{b.col} is not 4-adjacent"
            )


def format_path(path: CoveragePath) -> str:
    """Serialize to the path text format: header `PATH L closed`, then one
    `row col` line per cell."""
    word = "closed" if path.closed else "open"
    lines = [f"PATH {len(path.cells)} {word}"]
    lines.extend(f"{cell.row} {cell.col}" for cell in path.cells)
    return "\n".join(lines) + "\n"


def parse_path(text: str) -> CoveragePath:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise PathParseError("empty path file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "PATH" or header[2] not in ("closed", "open"):
        raise PathParseError(f"header must be 'PATH L closed|open', got {lines[0]!r}")
    try:
        length = int(header[1])
    except ValueError as exc:
        raise PathParseError(f"malformed header {lines[0]!r}") from exc
    if len(lines) - 1 != length:
        raise PathParseError(f"expected {length} cells, found {len(lines) - 1}")
    cells = []
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != 2:
            raise PathParseError(f"cell line {i}: expected 'row col', got {line!r}")
        try:
            cells.append(FineCell(int(tokens[0]), int(tokens[1])))
        except ValueError as exc:
            raise PathParseError(f"cell line {i}: non-integer coordinate") from exc
    return CoveragePath(cells=tuple(cells), closed=header[2] == "closed")


def load_path_file(path: str | Path) -> CoveragePath:
    return parse_path(Path(path).read_text(encoding="utf-8"))


def save_path(path: CoveragePath, file: str | Path) -> None:
    with open(file, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_path(path))
