"""Elevation grids: text format, seeded synthetic generation and 2x2 aggregation."""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from slopecover.graph import frozen, region_count, slope_sum

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
    read-only (rows, cols) views of frozen() arrays; mask names the boolean field."""
    rows, cols, spacing = int(grid.rows), int(grid.cols), float(grid.spacing)
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    _check_spacing(spacing, max_spacing)
    heights = frozen(grid.heights, np.float64)
    flags = frozen(getattr(grid, mask), bool)
    for name, array in (("heights", heights), (f"{mask} flags", flags)):
        if array.size != rows * cols:
            raise ValueError(f"expected {rows * cols} {name}, got {array.size}")
    if not np.isfinite(heights).all():
        raise ValueError("heights must be finite (no nan or inf)")
    fields = {"rows": rows, "cols": cols, "spacing": spacing}
    for name, array in (("heights", heights), (mask, flags)):
        fields[name] = array.reshape(rows, cols)  # a view; a copy when a column-major array changes shape
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

    Mega height is the arithmetic mean of the four fine heights, added in
    one fixed order: ((top left + top right) + (bottom left + bottom right))
    / 4. A mega cell is blocked if any of its four fine cells is an obstacle
    (conservative: never plan over an obstacle). Spacing doubles.
    """
    return MegaGrid(rows=grid.rows // 2, cols=grid.cols // 2, heights=_block_means(grid.heights),
                    blocked=blocked_mega_cells(grid.obstacle), spacing=2.0 * grid.spacing)


def _block_means(h: np.ndarray) -> np.ndarray:
    """Mean of each 2x2 block of h, in aggregate's order, from four strided views."""
    return ((h[0::2, 0::2] + h[0::2, 1::2]) + (h[1::2, 0::2] + h[1::2, 1::2])) / 4


def blocked_mega_cells(obstacle: np.ndarray) -> np.ndarray:
    """Mega-cell mask of a fine obstacle mask: True where any of the 2x2 cells is an obstacle."""
    return (obstacle[0::2, 0::2] | obstacle[0::2, 1::2]) | (obstacle[1::2, 0::2] | obstacle[1::2, 1::2])


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
    for array in (values, obstacle):
        array.setflags(write=False)  # read-only and owning its memory: HeightGrid keeps it
    return HeightGrid(rows=rows, cols=cols, heights=values, obstacle=obstacle, spacing=spacing)


def format_height_grid(grid: HeightGrid) -> str:
    """Serialize a grid to the terrain text format, each height written as
    ``"%.9g" % height`` writes it, byte for byte; the spacing too, unless only
    its repr reads back as the same float."""
    return b"".join(_grid_text(grid)).decode("ascii")


def _grid_text(grid: HeightGrid) -> Iterator[bytes]:
    """format_height_grid's text in ASCII pieces: the header, the heights
    _FORMAT_BLOCK at a time, then the mask section if any cell is an obstacle."""
    flat = grid.heights.ravel()
    spacing = f"{grid.spacing:.9g}"
    spacing = spacing if float(spacing) == grid.spacing else repr(grid.spacing)
    yield f"{grid.rows} {grid.cols} {spacing}\n".encode("ascii")
    for start in range(0, flat.size, _FORMAT_BLOCK):
        yield _height_text(flat[start:start + _FORMAT_BLOCK], start, grid.cols)
    if grid.obstacle.any():
        mask = np.full((grid.rows, grid.cols + 1), ord("\n"), dtype=np.uint8)
        mask[:, :-1] = np.where(grid.obstacle, np.uint8(ord(_MASK_OBSTACLE)), np.uint8(ord(_MASK_FREE)))
        yield from (b"MASK\n", mask.tobytes())


# "%.9g" writes a finite height h != 0 in fixed notation when its decimal exponent E,
# the one that puts N = round-half-even(|h| * 10**(8 - E)) in [10**8, 10**9), lies in
# [-4, 8]. Every 10**(8 - E) is a double, so N is found on arrays, except for ties and
# E estimates one off, which the one-value format writes. Each height becomes a record
# of 16 bytes, and the NUL bytes are removed at the end: byte 0 is "-" or NUL and byte
# 15 is " " or "\n". For E >= 0 the first digit is at byte 1, the E digits after it at
# bytes 2 to E + 1, the point at E + 2 and the fraction after it; for E < 0, "0." and
# -E - 1 zeros are at bytes 1 to 5 and the 9 digits at 6 to 14.
_FORMAT_BLOCK = 1 << 14  # heights per array pass; one pass over all 1000² of them ran 1.5x slower
_POW10 = 10.0 ** np.arange(14)  # 10**(8 - E) for E in [-5, 8]
# the ASCII of each 4-digit group, first digit in the low byte; from 10_000 + group
# on, the same with the group's trailing zeros as NUL
_group_digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + ord("0")
_trailing_zeros = np.logical_and.accumulate(_group_digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
_GROUPS = np.ascontiguousarray(np.concatenate([_group_digits, np.where(_trailing_zeros, 0, _group_digits)]),
                               dtype=np.uint8).view("<u4").ravel().astype(np.uint64)
# by E + 4: a mask of the digits 2 to 9 that come before the point (E of them, or all
# when E < 0, which has no point); "0" bytes that give those back the trailing zeros
# of the integer part; the bits before the first digit; "0." and its zeros (E < 0);
# the point as the two words of a record
_E = np.arange(-4, 9)
_LOW_BYTES = np.tril(np.full((9, 8), 0xFF, dtype=np.uint8), -1).view("<u8").ravel()  # k low bytes set
_BEFORE_POINT = _LOW_BYTES[np.where(_E < 0, 8, _E)]
_ZEROS = np.where(_E < 0, 0, np.frombuffer(b"00000000", "<u8")[0])
_SHIFT = np.where(_E < 0, 48, 8).astype(np.uint64)
_PREFIX = np.where(_E < 0, np.frombuffer(b"\x000.000\x00\x00", "<u8")[0] & _LOW_BYTES[np.clip(2 - _E, 0, 8)],
                   0)
_POINT = np.where(np.arange(16) == _E[:, None] + 2, ord("."), 0).astype(np.uint8).view("<u8")
_SPACE, _NEWLINE = np.uint64(ord(" ") << 56), np.uint64(ord("\n") << 56)
_ONE_VALUE = np.frombuffer(b"%.9g\x00\x00\x00\x00", "<u8")[0]


def _height_text(h: np.ndarray, start: int, cols: int) -> bytes:
    """``"%.9g" % height`` of each height, followed by " ", or by "\\n" at the
    end of a grid row; h holds the row-major heights from flat index start on."""
    x = np.abs(h)
    fixed = (x >= 1e-5) & (x < 1e9)  # may be fixed notation; 1.0 stands in for the rest
    x = np.where(fixed, x, 1.0)
    # E, or one off it near a power of 10; capped at 8, since log10 rounds the float
    # below 1e9 up to 9.0 and 8 - E indexes _POW10
    e = np.minimum(np.floor(np.log10(x)), 8).astype(np.intp)
    hi = x * _POW10[8 - e]  # rounded once, so rint(hi) is N unless hi ends in exactly .5
    n = np.rint(hi)
    n[np.abs(hi - n) == 0.5] = np.nan  # a tie, left out of [1e8, 1e9) like an E one off
    # ties, E one off, exponent notation, subnormals and whatever else this kernel leaves out
    other = np.flatnonzero((h != 0) & ~(fixed & (e >= -4) & (n >= 1e8) & (n < 1e9)))
    n *= fixed  # zeros write N = 0 as "0"
    n[other], e[other] = 0, 0  # a stand-in, replaced below
    n = n.astype(np.int32)
    first = n // 100_000_000
    n -= first * 100_000_000
    a = n // 10_000
    b = n - a * 10_000
    # digits 2 to 9 in one word, digit 2 in the low byte, the trailing zeros NUL
    digits = np.take(_GROUPS, a + 10_000 * (b == 0)) | (np.take(_GROUPS, b + 10_000) << np.uint64(32))
    e += 4
    before = np.take(_BEFORE_POINT, e)
    whole = (digits | np.take(_ZEROS, e)) & before
    frac = digits & ~before
    point = np.minimum(frac, np.uint64(1))  # a point only when a fraction follows
    shift = np.take(_SHIFT, e)
    record = np.empty((len(h), 2), dtype="<u8")
    record[:, 0] = (np.take(_PREFIX, e) | (h.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-"))
                    | ((first.astype(np.uint64) + np.uint64(ord("0"))) << shift)
                    | (whole << (shift + np.uint64(8))) | (frac << np.uint64(24))
                    | np.take(_POINT[:, 0], e) * point)
    record[:, 1] = ((whole >> (np.uint64(56) - shift)) | (frac >> np.uint64(40))
                    | np.take(_POINT[:, 1], e) * point | _SPACE)
    record[(cols - 1 - start) % cols::cols, 1] ^= _SPACE ^ _NEWLINE
    record[other, 0] = _ONE_VALUE  # filled by the one-value format below
    record[other, 1] &= _SPACE | _NEWLINE
    text = record.view(np.uint8).ravel()
    text = text[text != 0].tobytes()
    return text % tuple(h[other].tolist()) if len(other) else text


def load_height_grid(path: str | Path) -> HeightGrid:
    return parse_height_grid(Path(path).read_text(encoding="utf-8"))


def save_height_grid(grid: HeightGrid, path: str | Path) -> None:
    """Write format_height_grid's text to path, block by block."""
    with open(path, "wb") as out:
        out.writelines(_grid_text(grid))


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
        blocked = blocked_mega_cells(obstacle)
        if region_count(blocked) == 1:
            break
    else:
        raise TerrainGenerationError(
            f"free mega cells never formed one connected region after {_GENERATION_ATTEMPTS} "
            f"attempts (rows={spec.rows}, cols={spec.cols}, "
            f"max_obstacles={spec.max_obstacles}, seed={spec.seed})"
        )
    # rescale so the aggregated average slope is spec.roughness; with no free
    # adjacent pair (a single mega cell) that target is undefined
    total, count = slope_sum(_block_means(field), blocked)
    if count > 0 and total > 0.0:
        heights = field * (spec.roughness * (2.0 * spec.spacing) * count / total)
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
        # diamond then square, in half steps, on the lattice of spacing half bordered by zeros:
        # off-lattice neighbours add +0.0, and a point lacks one per lattice border it lies on
        n = size // half
        lattice = np.zeros((n + 3, n + 3))
        border = np.arange(n + 1) % n == 0
        for origins, offsets in (([(1, 1)], [(-1, -1), (-1, 1), (1, -1), (1, 1)]),
                                 ([(0, 1), (1, 0)], [(-1, 0), (1, 0), (0, -1), (0, 1)])):
            lattice[1:-1, 1:-1] = field[::half, ::half]
            for r0, c0 in origins:
                points = field[r0 * half :: step, c0 * half :: step]
                total = np.zeros(points.shape)
                for dr, dc in offsets:
                    near = (slice(1 + r0 + dr, None, 2), slice(1 + c0 + dc, None, 2))
                    total += lattice[near][: len(points), : points.shape[1]]
                count = 4.0 - border[r0::2, None] - border[c0::2]
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
