"""Circumnavigating a spanning tree into the fine-grid coverage cycle."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from slopecover.graph import SpanningTree, frozen
from slopecover.terrain import HeightGrid, blocked_mega_cells
from slopecover.weights import WeightSpec, edge_weights, total_weight

# the share of walk states that are rulers of the walk's list ranking
_RULER_SHARE = 2.0 ** -7
# route cells priced, or written, at a time
_ROUTE_BLOCK = 1 << 16

# 18 digits keep every canonical count and coordinate below 10**18 < 2**63,
# so a file the bulk reader accepts cannot overflow int64
_MAX_DIGITS = 18
_CANONICAL_HEADER = re.compile(rf"PATH (\d{{1,{_MAX_DIGITS}}}) (closed|open)")


@dataclass(frozen=True, eq=False)
class CoveragePath:
    """Ordered fine-cell route; closed paths wrap from the last cell to the first.

    cells is stored as a read-only (L, 2) int64 array of fine (row, col), as
    frozen() stores it.
    """

    cells: np.ndarray
    closed: bool = True

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.shape[:1] == (0,):  # empty, of any element shape
            cells = np.empty((0, 2), np.int64)
        integer = cells.dtype != bool and np.can_cast(cells.dtype, np.int64)  # can_cast passes bool
        if cells.ndim != 2 or cells.shape[1] != 2 or not integer:
            raise ValueError(f"cells must be (L, 2) integers, got {cells.dtype} {cells.shape}")
        object.__setattr__(self, "cells", frozen(cells, np.int64))


class PathParseError(ValueError):
    """Path file is structurally malformed."""


class PathMismatchError(ValueError):
    """Path is inconsistent with the terrain it is checked against."""


def circumnavigate(tree: SpanningTree) -> CoveragePath:
    """Walk clockwise around the spanning tree, hugging it, and return the
    closed cycle over fine cells.

    Each mega cell contributes its four fine sub-cells. Within a cell the
    walk rotates clockwise (NW, NE, SE, SW); when the rotation would cross a
    tree edge of the cell it crosses into the neighbouring mega cell instead.
    Every fine cell of every free mega cell is visited exactly once, and the
    walk crosses between mega cells only over tree edges. Starts at the
    top-left sub-cell of node 0, the first free mega cell in row-major order.
    """
    g = tree.graph
    n = len(g.nodes)
    if not n:
        raise ValueError("tree walk covered 0 fine cells; "
                         "the graph has no free mega cell to start from")
    # state r * cols + c is fine cell (r, c), blocked or not. Each pair of fine
    # rows turns clockwise: NW + 1 is NE, NE + cols SE, SE - 1 SW, SW - cols NW.
    cols = 2 * g.mega.cols
    successor = np.arange(2 * g.mega.rows * cols)
    successor.reshape(-1, 2, cols)[:] += np.tile([[1, cols], [-cols, -1]], cols // 2)
    # A tree edge from a, its upper or left end, to b sends a's NE (SE when
    # down) into b, and the cell before that one in b's clockwise turn back into a.
    # row gathers by take: numpy's 2-D fancy indexing is several times slower
    a, b = g.edges.take(tree.edges, axis=0).T
    row, col = g.nodes.T  # indexed, not taken: take copies a strided column first
    down = row[a] != row[b]
    step = np.where(down, cols, 1)
    out = (2 * row[a] + down) * cols + 2 * col[a] + 1
    successor[out] = out + step
    out += cols + 1 - 2 * down
    successor[out] = out - step
    del a, b, down, step, out  # freed before the walk builds its arrays
    order = _cycle_from(successor, 2 * int(row[0]) * cols + 2 * int(col[0]))
    del successor
    if len(order) != 4 * n:
        raise ValueError(f"tree walk covered {len(order)} of {4 * n} fine cells; "
                         "the tree does not span all free mega cells")
    cells = np.empty((len(order), 2), dtype=np.int64)
    np.divmod(order, cols, out=(cells[:, 0], cells[:, 1]))
    cells.setflags(write=False)  # read-only and owning its memory: CoveragePath keeps it
    return CoveragePath(cells=cells, closed=True)


def _cycle_from(successor: np.ndarray, start: int) -> np.ndarray:
    """The states of the permutation successor's cycle through state start,
    in walk order from start.

    List ranking by a ruling set: start and about a share _RULER_SHARE of
    the states, their positions drawn by a seeded generator (not every k-th
    index, whose gaps a corridor can stretch to the grid's length), are
    rulers. Walkers start from every ruler at once and step in array rounds
    until each reaches the next ruler, recording only that ruler and the gap
    to it. One Python loop then lists the chain of rulers from start round
    to start, each ruler's run starting after the gaps before it, and a
    second walk from the chain's rulers writes each run's states in place.
    """
    states = len(successor)
    ruler = np.zeros(states, dtype=bool)
    ruler[np.random.default_rng(0).integers(states, size=int(states * _RULER_SHARE))] = True
    ruler[start] = True
    rulers = np.flatnonzero(ruler)
    next_ruler, gap = np.empty_like(rulers), np.empty_like(rulers)
    walker, at, steps = np.arange(len(rulers)), successor.take(rulers), 1
    while len(walker):
        arrived = ruler[at]
        if arrived.any():
            next_ruler[walker[arrived]] = np.searchsorted(rulers, at[arrived])
            gap[walker[arrived]] = steps
            walker, at = walker[~arrived], at[~arrived]
        at = successor.take(at)
        steps += 1
    chain, follows = [int(np.searchsorted(rulers, start))], next_ruler.tolist()
    while follows[chain[-1]] != chain[0]:
        chain.append(follows[chain[-1]])
    length = gap.take(chain)
    order = np.empty(length.sum(), dtype=np.int64)
    at, begin, steps = rulers.take(chain), np.cumsum(length) - length, 0
    while len(at):
        order[begin + steps] = at
        steps += 1
        going = length > steps
        at, begin, length = successor.take(at[going]), begin[going], length[going]
    return order


def path_cost(path: CoveragePath, grid: HeightGrid, spec: WeightSpec) -> float:
    """Sum of edge weights over consecutive fine cells (cyclically when closed),
    added in route order. Raises ValueError, naming the first cell outside the
    grid if there is one, or when the total is not finite.

    The steps are priced _ROUTE_BLOCK at a time. Each block's first weight has
    the running total added to it, so the additions are the one left-to-right
    sequence of the whole route."""
    try:
        index = np.ravel_multi_index(path.cells.T, grid.heights.shape)
    except ValueError:  # a cell outside the grid
        i = ((path.cells < 0) | (path.cells >= grid.heights.shape)).any(axis=1).argmax()
        raise ValueError(f"cell {path.cells[i, 0]},{path.cells[i, 1]} lies outside the grid") from None
    if len(index) < 2:
        return 0.0
    if path.closed:
        index = np.append(index, index[0])
    heights, total = grid.heights.ravel(), 0.0
    for start in range(0, len(index) - 1, _ROUTE_BLOCK):
        block = heights.take(index[start:start + _ROUTE_BLOCK + 1])
        weights = edge_weights(spec, block[:-1], block[1:], grid.spacing)
        with np.errstate(over="ignore"):  # total_weight reports an overflow
            weights[0] += total
        total = total_weight(weights, "path_cost")
    return total


def count_sacrificed_cells(grid: HeightGrid) -> int:
    """Free fine cells that cannot be covered because their mega cell is blocked."""
    # every obstacle lies in a blocked mega cell, which holds 4 fine cells
    return int(4 * blocked_mega_cells(grid.obstacle).sum() - grid.obstacle.sum())


def validate_path(path: CoveragePath, grid: HeightGrid) -> None:
    """Raise PathMismatchError unless path is a full coverage cycle for grid.

    Cells are checked in route order and the first failing one is reported.
    """
    if not path.closed:
        raise PathMismatchError("coverage path must be closed")
    cells = path.cells
    if not len(cells):
        raise PathMismatchError("path is empty")
    blocked = blocked_mega_cells(grid.obstacle)
    expected = 4 * int((~blocked).sum())
    if len(cells) != expected:
        raise PathMismatchError(f"path length {len(cells)} != 4 x free mega cells ({expected})")
    row, col = cells[:, 0], cells[:, 1]
    outside = (row < 0) | (row >= grid.rows) | (col < 0) | (col >= grid.cols)
    row, col = np.where(outside, 0, row), np.where(outside, 0, col)
    flat = row * grid.cols + col
    # what can be wrong with one cell, in the order it is reported
    problems = (
        (outside, "lies outside the grid"),
        (grid.obstacle.ravel().take(flat), "is an obstacle"),
        (blocked.ravel().take(row // 2 * blocked.shape[1] + col // 2), "lies in a blocked mega cell"),
        (_repeated(flat), "visited twice"),
    )
    failing = np.logical_or.reduce([mask for mask, _ in problems])
    if failing.any():
        i = int(failing.argmax())
        reason = next(text for mask, text in problems if mask[i])
        raise PathMismatchError(f"cell {cells[i, 0]},{cells[i, 1]} {reason}")
    # per column against its cyclic successor: a row-wise sum is a slow numpy reduction
    jumps = sum(np.abs(np.roll(column, -1) - column) for column in cells.T) != 1
    if jumps.any():
        i = int(jumps.argmax())
        (ra, ca), (rb, cb) = cells[i].tolist(), cells[(i + 1) % len(cells)].tolist()
        raise PathMismatchError(f"step {ra},{ca} -> {rb},{cb} is not 4-adjacent")


def _repeated(keys: np.ndarray) -> np.ndarray:
    """True at every occurrence of a non-negative key after its first."""
    repeated = np.zeros(len(keys), dtype=bool)
    if np.bincount(keys).max() > 1:
        repeated[:] = True
        repeated[np.unique(keys, return_index=True)[1]] = False
    return repeated


def format_path(path: CoveragePath) -> str:
    """Serialize to the path text format: header `PATH L closed`, then one
    `row col` line per cell."""
    return "".join(_path_text(path))


def _path_text(path: CoveragePath) -> Iterator[str]:
    """format_path's text in pieces: the header, then the lines of each
    _ROUTE_BLOCK cells."""
    cells = path.cells
    yield f"PATH {len(cells)} {'closed' if path.closed else 'open'}\n"
    for start in range(0, len(cells), _ROUTE_BLOCK):
        block = cells[start:start + _ROUTE_BLOCK]
        yield _joined(_each_formatted(block[:, 0], lambda v: f"{v} "),
                      _each_formatted(block[:, 1], lambda v: f"{v}\n"))


def _each_formatted(values: np.ndarray, text: Callable[[int], str]) -> np.ndarray:
    """text(v) of each int64 value, computed once per distinct value on the
    Python int, so any value works, inside the grid or not. The table spans
    the values' whole range when that is shorter than values, as it is for
    a route's rows and columns, and holds only the distinct values (found by
    sorting) otherwise."""
    low, high = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    if high - low < len(values):
        return np.array([text(v) for v in range(low, high + 1)], dtype=object)[values - low]
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([text(v) for v in distinct.tolist()], dtype=object)[inverse]


def _joined(*columns: np.ndarray | str) -> str:
    """The columns' texts joined row by row; a str column repeats on every row."""
    return "".join(np.column_stack(np.broadcast_arrays(*columns)).ravel().tolist())


def parse_path(text: str) -> CoveragePath:
    """Parse the path text format; raises PathParseError on malformed text.

    The canonical form that format_path writes for non-negative cells is read
    in bulk; any other text goes through the line loop below, which gives
    the same result and is the one source of every error message."""
    canonical = _parse_canonical(text)
    if canonical is not None:
        return canonical
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
    values: list[int] = []
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != 2:
            raise PathParseError(f"cell line {i}: expected 'row col', got {line!r}")
        try:
            values += map(int, tokens)
        except ValueError as exc:
            raise PathParseError(f"cell line {i}: non-integer coordinate") from exc
    try:
        cells = np.array(values, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise PathParseError("cell coordinate out of the int64 range") from exc
    return CoveragePath(cells=cells, closed=header[2] == "closed")


def _parse_canonical(text: str) -> CoveragePath | None:
    """The path of `PATH L closed|open`, then exactly L `row col` lines of
    1 to 18 ASCII digits each, every line ending in a newline; None for any
    other text."""
    header, _, body = text.partition("\n")
    match = _CANONICAL_HEADER.fullmatch(header)
    if match is None or not body.isascii() or body[-1:] not in ("", "\n"):
        return None
    length = int(match[1])
    chars = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(chars - ord("0") > 9)  # uint8 wraps below "0"
    if len(ends) != 2 * length:
        return None
    digits = np.diff(ends, prepend=-1) - 1
    if ((chars[ends[0::2]] != ord(" ")).any() or (chars[ends[1::2]] != ord("\n")).any()
            or ((digits < 1) | (digits > _MAX_DIGITS)).any()):
        return None
    cells = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    return CoveragePath(cells=cells, closed=match[2] == "closed")


def load_path_file(path: str | Path) -> CoveragePath:
    return parse_path(Path(path).read_text(encoding="utf-8"))


def save_path(path: CoveragePath, file: str | Path) -> None:
    """Write format_path's text to file, block by block."""
    with open(file, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(_path_text(path))
