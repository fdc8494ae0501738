"""Elevation grids: text format, seeded synthetic generation and 2x2 aggregation."""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from slopecover.graph import region_count, slope_sum

_GENERATION_ATTEMPTS = 64
_MASK_FREE = "."
_MASK_OBSTACLE = "#"
_MASK_CHARS = str.maketrans("", "", _MASK_FREE + _MASK_OBSTACLE)  # deletes both


class TerrainParseError(ValueError):
    """Terrain or mask section of a terrain file is structurally malformed."""


class TerrainGenerationError(RuntimeError):
    """No connected obstacle layout was found within the retry budget."""


# aggregation doubles the fine-cell spacing, which must stay finite
_MAX_FINE_SPACING = sys.float_info.max / 2


def _check_spacing(spacing: float, limit: float) -> None:
    if not 0 < spacing <= limit:
        raise ValueError(f"spacing must be positive and finite, at most {limit!r}, got {spacing}")


def _check_even(rows: int, cols: int) -> None:
    if rows % 2 or cols % 2:
        raise ValueError(f"grid dimensions must be even so 2x2 aggregation is exact, got {rows}x{cols}")


def _freeze_grid(grid: HeightGrid | MegaGrid, mask: str, max_spacing: float) -> None:
    """Check and store the fields both grids share as plain ints, a float and
    read-only (rows, cols) arrays; mask names the boolean field."""
    rows, cols, spacing = int(grid.rows), int(grid.cols), float(grid.spacing)
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    _check_spacing(spacing, max_spacing)
    heights = np.asarray(grid.heights, dtype=np.float64)
    flags = np.asarray(getattr(grid, mask), dtype=bool)
    for name, array in (("heights", heights), (f"{mask} flags", flags)):
        if array.size != rows * cols:
            raise ValueError(f"expected {rows * cols} {name}, got {array.size}")
    if not np.isfinite(heights).all():
        raise ValueError("heights must be finite (no nan or inf)")
    fields = {"rows": rows, "cols": cols, "spacing": spacing}
    for name, array in (("heights", heights), (mask, flags)):
        fields[name] = array.reshape(rows, cols).copy()
        fields[name].setflags(write=False)
    for name, value in fields.items():
        object.__setattr__(grid, name, value)


@dataclass(frozen=True, eq=False)
class HeightGrid:
    """Fine elevation grid; one cell per vehicle footprint.

    heights are metres relative to an arbitrary datum (only differences
    matter). Obstacles live in a separate boolean mask so heights stay finite.
    Instances are immutable and safe to share across threads.
    """

    rows: int
    cols: int
    heights: np.ndarray
    obstacle: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        _freeze_grid(self, "obstacle", _MAX_FINE_SPACING)
        _check_even(self.rows, self.cols)


@dataclass(frozen=True, eq=False)
class MegaGrid:
    """Aggregated grid of 2x2 fine-cell blocks; its cells are the graph nodes."""

    rows: int
    cols: int
    heights: np.ndarray
    blocked: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        _freeze_grid(self, "blocked", sys.float_info.max)


@dataclass(frozen=True)
class TerrainGenSpec:
    """Parameters for the seeded terrain generator.

    roughness targets the average slope of the aggregated grid: the noise
    field is rescaled so the achieved value matches (0 forces perfectly flat
    terrain).
    """

    rows: int
    cols: int
    seed: int = 0
    max_obstacles: int = 0
    roughness: float = 0.0
    spacing: float = 1.0

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"grid dimensions must be positive, got {self.rows}x{self.cols}")
        _check_even(self.rows, self.cols)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_obstacles < 0:
            raise ValueError(f"max_obstacles must be non-negative, got {self.max_obstacles}")
        if not 0.0 <= self.roughness <= 1.0:
            raise ValueError(f"roughness must lie in [0, 1], got {self.roughness}")
        _check_spacing(self.spacing, _MAX_FINE_SPACING)


def aggregate(grid: HeightGrid) -> MegaGrid:
    """Collapse 2x2 fine-cell blocks into mega cells.

    Mega height is the arithmetic mean of the four fine heights; a mega cell
    is blocked if any of its four fine cells is an obstacle (conservative:
    never plan over an obstacle). Spacing doubles.
    """
    half_rows, half_cols = grid.rows // 2, grid.cols // 2
    blocks = grid.heights.reshape(half_rows, 2, half_cols, 2)
    mega_heights = blocks.mean(axis=(1, 3))
    return MegaGrid(
        rows=half_rows,
        cols=half_cols,
        heights=mega_heights,
        blocked=blocked_mega_cells(grid.obstacle),
        spacing=2.0 * grid.spacing,
    )


def blocked_mega_cells(obstacle: np.ndarray) -> np.ndarray:
    """Mega-cell mask of a fine obstacle mask: True where any of the 2x2 cells is an obstacle."""
    rows, cols = obstacle.shape
    return obstacle.reshape(rows // 2, 2, cols // 2, 2).any(axis=(1, 3))


def _height_row(line: str, i: int, cols: int) -> list[float]:
    tokens = line.split()
    if len(tokens) != cols:
        raise TerrainParseError(f"height row {i}: expected {cols} values, got {len(tokens)}")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise TerrainParseError(f"height row {i}: non-numeric value") from exc


def _bulk_heights(lines: list[str], cols: int) -> np.ndarray | None:
    """The heights of lines of cols numbers each, separated by single spaces,
    read in one pass; None for any other text."""
    if not lines[0]:  # loadtxt skips blank lines, and warns when none is left
        return None
    try:
        values = np.loadtxt(lines, dtype=np.float64, delimiter=" ", comments=None,
                            quotechar=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(lines), cols) else None


def parse_height_grid(text: str) -> HeightGrid:
    """Parse the terrain text format.

    Line 1 is ``N M spacing``; then N rows of M heights; then optionally a
    line ``MASK`` followed by N rows of ``.``/``#`` characters. A missing
    mask means all cells are free.

    Height rows of M values separated by single spaces, as format_height_grid
    writes them, are read in bulk; any other text goes through the row loop
    below, which gives the same result and is the one source of every error
    message.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise TerrainParseError("empty terrain file")
    header = lines[0].split()
    if len(header) != 3:
        raise TerrainParseError(f"header must be 'N M spacing', got {lines[0]!r}")
    try:
        rows, cols, spacing = int(header[0]), int(header[1]), float(header[2])
    except ValueError as exc:
        raise TerrainParseError(f"malformed header {lines[0]!r}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    if len(lines) < 1 + rows:
        raise TerrainParseError(f"expected {rows} height rows, found {len(lines) - 1}")
    height_lines = lines[1 : 1 + rows]
    values = _bulk_heights(height_lines, cols)
    if values is None:
        # grows row by row, so a header larger than its text fails at its first
        # short row without allocating the header's size
        rows_of_values = (_height_row(line, i, cols) for i, line in enumerate(height_lines))
        values = np.fromiter(itertools.chain.from_iterable(rows_of_values), np.float64)
    obstacle = np.zeros((rows, cols), dtype=bool)
    rest = lines[1 + rows :]
    if rest:
        if rest[0].strip() != "MASK":
            raise TerrainParseError(f"expected 'MASK' or end of file, got {rest[0]!r}")
        if len(rest) != 1 + rows:
            raise TerrainParseError(f"mask section: expected {rows} rows, found {len(rest) - 1}")
        mask = [line.strip() for line in rest[1:]]
        for i, line in enumerate(mask):
            if len(line) != cols:
                raise TerrainParseError(f"mask row {i}: expected {cols} characters, got {len(line)}")
            invalid = line.translate(_MASK_CHARS)
            if invalid:
                raise TerrainParseError(f"mask row {i}: invalid character {invalid[0]!r}")
        obstacle = np.frombuffer("".join(mask).encode("ascii"), np.uint8) == ord(_MASK_OBSTACLE)
    return HeightGrid(rows=rows, cols=cols, heights=values, obstacle=obstacle, spacing=spacing)


def format_height_grid(grid: HeightGrid) -> str:
    """Serialize a grid to the terrain text format (9 significant digits)."""
    row = " ".join(["%.9g"] * grid.cols) + "\n"
    text = f"{grid.rows} {grid.cols} {grid.spacing:.9g}\n"
    text += (row * grid.rows) % tuple(grid.heights.ravel().tolist())
    if grid.obstacle.any():
        mask = np.full((grid.rows, grid.cols + 1), ord("\n"), dtype=np.uint8)
        mask[:, :-1] = np.where(grid.obstacle, ord(_MASK_OBSTACLE), ord(_MASK_FREE))
        text += "MASK\n" + mask.tobytes().decode("ascii")
    return text


def load_height_grid(path: str | Path) -> HeightGrid:
    return parse_height_grid(Path(path).read_text(encoding="utf-8"))


def save_height_grid(grid: HeightGrid, path: str | Path) -> None:
    Path(path).write_text(format_height_grid(grid), encoding="utf-8", newline="\n")


def generate_terrain(spec: TerrainGenSpec) -> HeightGrid:
    """Deterministically generate a random terrain.

    Midpoint-displacement noise gives the relief; the field is rescaled so
    the aggregated grid's average slope equals spec.roughness. Rectangular
    obstacle patches (exactly max_obstacles of them, so the merged region
    count stays <= max_obstacles) are redrawn until the free mega cells form
    a single connected region. Raises ValueError when spacing and roughness
    scale the heights past the largest float.
    """
    rng = np.random.default_rng(spec.seed)
    field = _midpoint_displacement(rng, spec.rows, spec.cols)
    for _ in range(_GENERATION_ATTEMPTS):
        obstacle = _place_obstacles(rng, spec.rows, spec.cols, spec.max_obstacles)
        if region_count(blocked_mega_cells(obstacle)) == 1:
            break
    else:
        raise TerrainGenerationError(
            f"free mega cells never formed one connected region after {_GENERATION_ATTEMPTS} "
            f"attempts (rows={spec.rows}, cols={spec.cols}, "
            f"max_obstacles={spec.max_obstacles}, seed={spec.seed})"
        )
    # rescale so the aggregated average slope is spec.roughness; with no free
    # adjacent pair (a single mega cell) that target is undefined
    mega = aggregate(HeightGrid(rows=spec.rows, cols=spec.cols, heights=field,
                                obstacle=obstacle, spacing=spec.spacing))
    total, count = slope_sum(mega.heights, mega.blocked)
    if count > 0 and total > 0.0:
        heights = field * (spec.roughness * mega.spacing * count / total)
    else:
        heights = field * spec.roughness
    if not np.isfinite(heights).all():
        raise ValueError(
            f"spacing {spec.spacing!r} with roughness {spec.roughness!r} overflows the heights"
        )
    return HeightGrid(
        rows=spec.rows, cols=spec.cols, heights=heights, obstacle=obstacle, spacing=spec.spacing
    )


def _midpoint_displacement(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Classic diamond-square field on a (2^k + 1) lattice, cropped to rows x cols."""
    size = 1
    while size < max(rows, cols):
        size *= 2
    field = np.zeros((size + 1, size + 1), dtype=np.float64)
    field[::size, ::size] = rng.standard_normal((2, 2))
    step, scale = size, 1.0
    while step > 1:
        half = step // 2
        # diamond then square, in half steps; off-lattice neighbours read nan: they add 0 and count 0
        for origins, offsets in (([(1, 1)], [(-1, -1), (-1, 1), (1, -1), (1, 1)]),
                                 ([(0, 1), (1, 0)], [(-1, 0), (1, 0), (0, -1), (0, 1)])):
            lattice = np.pad(field[::half, ::half], 1, constant_values=np.nan)
            for r0, c0 in origins:
                points = field[r0 * half :: step, c0 * half :: step]
                total, count = np.zeros(points.shape), np.zeros(points.shape)
                for dr, dc in offsets:
                    near = lattice[1 + r0 + dr :: 2, 1 + c0 + dc :: 2][: len(points), : points.shape[1]]
                    total += np.nan_to_num(near)
                    count += np.isfinite(near)
                points[...] = total / count + scale * rng.standard_normal(points.shape)
        scale *= 0.5
        step = half
    return field[:rows, :cols].copy()


def _place_obstacles(
    rng: np.random.Generator, rows: int, cols: int, count: int
) -> np.ndarray:
    obstacle = np.zeros((rows, cols), dtype=bool)
    if count == 0:
        return obstacle
    # small patches keep the free region connected with high probability
    max_side = max(2, min(rows, cols) // 16)
    for _ in range(count):
        height = int(rng.integers(1, max_side + 1))
        width = int(rng.integers(1, max_side + 1))
        row = int(rng.integers(0, rows - height + 1))
        col = int(rng.integers(0, cols - width + 1))
        obstacle[row : row + height, col : col + width] = True
    return obstacle
