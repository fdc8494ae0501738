from __future__ import annotations

import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    any_blocked_blocks,
    block_means_per_cell,
    flood_fill_regions,
    format_height_template,
    label_regions,
    mean_block_heights,
    midpoint_displacement,
    padded_midpoint_displacement,
    parse_height_lines,
    parse_mask_rows,
)
from slopecover import terrain
from slopecover.bench import BenchConfig
from slopecover.graph import average_slope, region_count, spanning_forest
from slopecover.terrain import (
    HeightGrid,
    MegaGrid,
    TerrainGenSpec,
    TerrainGenerationError,
    TerrainParseError,
    _midpoint_displacement,
    aggregate,
    blocked_mega_cells,
    format_height_grid,
    generate_terrain,
    parse_height_grid,
)


_DIMS = st.sampled_from([2, 4, 2, 4, 6, 0, 3, 10**12])
# mostly valid, so that some texts reach the mask section and parse
_HEIGHT = st.sampled_from(["0", "-1.5", "2", "1e308", "0.25", "-7", "0", "2", "1e999", "nan", "x", ""])


def _near(n: int, otherwise: st.SearchStrategy[int]) -> st.SearchStrategy[int]:
    """n, or one off it, when n is a small positive count."""
    return st.sampled_from([n, n, n, n, n + 1, n - 1]) if 0 < n <= 6 else otherwise


@st.composite
def terrain_like_texts(draw) -> str:
    """Terrain text with parts of it broken: dimensions that are odd, not
    positive or huge, sections with a row too many or too few, rows of the
    wrong width, bad heights and bad mask characters."""
    rows, cols = draw(_DIMS), draw(_DIMS)
    count, width = _near(rows, st.integers(0, 8)), _near(cols, st.integers(0, 6))
    height_row = width.flatmap(lambda n: st.lists(_HEIGHT, min_size=n, max_size=n)).map(" ".join)
    mask_row = width.flatmap(lambda n: st.text(".#.#?", min_size=n, max_size=n))
    lines = [f"{rows} {cols} {draw(st.sampled_from(['1', '0.5', '0', 'x']))}"]
    lines += draw(count.flatmap(lambda n: st.lists(height_row, min_size=n, max_size=n)))
    if draw(st.booleans()):
        lines += ["MASK", *draw(count.flatmap(lambda n: st.lists(mask_row, min_size=n, max_size=n)))]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestParsing:
    def test_minimal_file(self):
        grid = parse_height_grid("2 2 1.0\n1 2\n3 4\n")
        assert grid.rows == 2 and grid.cols == 2
        assert grid.spacing == 1.0
        assert grid.heights.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not grid.obstacle.any()

    def test_mask_section(self):
        grid = parse_height_grid("2 2 0.5\n1 2\n3 4\nMASK\n.#\n..\n")
        assert grid.obstacle.tolist() == [[False, True], [False, False]]

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError, match="even"):
            parse_height_grid("3 2 1.0\n1 2\n3 4\n5 6\n")

    def test_nan_height_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_height_grid("2 2 1.0\n1 nan\n3 4\n")

    def test_inf_height_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_height_grid("2 2 1.0\n1 inf\n3 4\n")

    def test_malformed_header(self):
        with pytest.raises(TerrainParseError, match="header"):
            parse_height_grid("2 2\n1 2\n3 4\n")
        with pytest.raises(TerrainParseError):
            parse_height_grid("two 2 1.0\n1 2\n3 4\n")

    def test_row_length_mismatch(self):
        with pytest.raises(TerrainParseError, match="expected 2 values"):
            parse_height_grid("2 2 1.0\n1 2 3\n3 4\n")

    def test_missing_rows(self):
        with pytest.raises(TerrainParseError, match="height rows"):
            parse_height_grid("4 2 1.0\n1 2\n3 4\n")

    def test_non_numeric_height(self):
        with pytest.raises(TerrainParseError, match="non-numeric"):
            parse_height_grid("2 2 1.0\n1 x\n3 4\n")

    def test_bad_mask_character(self):
        with pytest.raises(TerrainParseError, match="invalid character"):
            parse_height_grid("2 2 1.0\n1 2\n3 4\nMASK\n.?\n..\n")

    # messages recorded from the per-character parser: the first failing row
    # wins, and within a row a wrong length beats a bad character
    @pytest.mark.parametrize(
        "mask, message",
        [
            ((".?x.", "..#."), "mask row 0: invalid character '?'"),
            (("..#.", ".?x."), "mask row 1: invalid character '?'"),
            ((".?..", "....."), "mask row 0: invalid character '?'"),
            (("....#", ".?.."), "mask row 0: expected 4 characters, got 5"),
            (("?.....", "...."), "mask row 0: expected 4 characters, got 6"),
            ((".é..", "...."), "mask row 0: invalid character 'é'"),
            (("....", "\U0001F600#.."), "mask row 1: invalid character '\U0001F600'"),
            (("#\x00..", "...."), "mask row 0: invalid character '\\x00'"),
            (("#\t.#", "...."), "mask row 0: invalid character '\\t'"),
            (("#\ud800..", "...."), "mask row 0: invalid character '\\ud800'"),
            (("", "...."), "mask row 0: expected 4 characters, got 0"),
            (("....", "#.#"), "mask row 1: expected 4 characters, got 3"),
        ],
    )
    def test_mask_errors(self, mask, message):
        text = "2 4 1.0\n0 0 0 0\n0 0 0 0\nMASK\n" + "\n".join(mask) + "\n"
        with pytest.raises(TerrainParseError) as info:
            parse_height_grid(text)
        assert str(info.value) == message

    @settings(max_examples=300)
    @given(
        cols=st.sampled_from([2, 4]),
        mask=st.lists(st.text(alphabet=st.sampled_from(list("..##. \t?é\x00\U0001F600")),
                              max_size=6), min_size=2, max_size=2),
    )
    def test_mask_matches_per_character_reference(self, cols, mask):
        assume(mask[-1].strip())  # the parser drops trailing blank lines before the mask
        heights = "\n".join([" ".join(["0"] * cols)] * 2)
        text = f"2 {cols} 1.0\n{heights}\nMASK\n" + "\n".join(mask) + "\n"
        expected = parse_mask_rows(mask, cols)
        if isinstance(expected, str):
            with pytest.raises(TerrainParseError) as info:
                parse_height_grid(text)
            assert str(info.value) == expected
        else:
            assert parse_height_grid(text).obstacle.tolist() == expected

    def test_mask_row_count(self):
        with pytest.raises(TerrainParseError, match="mask section"):
            parse_height_grid("2 2 1.0\n1 2\n3 4\nMASK\n..\n")

    def test_empty_file(self):
        with pytest.raises(TerrainParseError, match="empty"):
            parse_height_grid("\n\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 1000000000000 1.0\n1 2\n3 4\n", "height row 0: expected 1000000000000 values, got 2"),
            # more values than characters, and an earlier row fails first
            ("4 8 1\n0 0 0 0 0 0 0 x\n1\n2\n3", "height row 0: non-numeric value"),
        ],
    )
    def test_header_larger_than_the_text(self, text, message):
        with pytest.raises(TerrainParseError) as info:
            parse_height_grid(text)
        assert str(info.value) == message

    @settings(max_examples=500)
    @given(text=st.one_of(st.text(), terrain_like_texts()))
    def test_fuzzed_text_raises_only_documented_errors(self, text):
        try:
            parse_height_grid(text)
        except ValueError:  # TerrainParseError is one
            pass

    def test_round_trip_nine_significant_digits(self):
        rng = np.random.default_rng(99)
        heights = rng.normal(0.0, 123.456, (6, 8))
        obstacle = rng.random((6, 8)) < 0.2
        grid = HeightGrid(rows=6, cols=8, heights=heights, obstacle=obstacle, spacing=0.75)
        text = format_height_grid(grid)
        back = parse_height_grid(text)
        # 9 significant digits bound the relative quantisation error by 5e-9
        assert np.allclose(back.heights, grid.heights, rtol=5e-9, atol=0.0)
        assert np.array_equal(back.obstacle, grid.obstacle)
        assert back.spacing == grid.spacing
        # after one round trip the text representation is a fixpoint
        assert format_height_grid(back) == text

    @given(st.floats(min_value=0.0, max_value=sys.float_info.max / 2, exclude_min=True))
    def test_spacing_reads_back_exactly(self, spacing):
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=spacing)
        text = format_height_grid(grid)
        assert parse_height_grid(text).spacing == spacing
        if float(f"{spacing:.9g}") == spacing:  # 9 digits are kept wherever they read back
            assert text.startswith(f"2 2 {spacing:.9g}\n")

    def test_ten_digit_spacing_reads_back_exactly(self):
        spec = TerrainGenSpec(rows=4, cols=4, seed=1, roughness=0.5, spacing=0.1234567891)
        text = format_height_grid(generate_terrain(spec))
        assert text.startswith("4 4 0.1234567891\n")
        assert parse_height_grid(text).spacing == 0.1234567891

    def test_bytes_match_per_value_format(self):
        rng = np.random.default_rng(12)
        for i in range(20):
            rows, cols = (2 * rng.integers(1, 8, size=2)).tolist()
            exponents = rng.integers(-300, 300, (rows, cols))
            heights = rng.normal(0.0, 1.0, (rows, cols)) * 10.0**exponents
            heights[0, :2] = (0.0, -0.0)
            obstacle = (rng.random((rows, cols)) < 0.3) & (i % 2 == 1)
            grid = HeightGrid(
                rows=rows, cols=cols, heights=heights, obstacle=obstacle, spacing=rng.uniform(0.1, 9)
            )
            lines = [f"{rows} {cols} {grid.spacing!r}"]  # 9 digits would not read back
            lines += [" ".join(f"{v:.9g}" for v in row) for row in heights.tolist()]
            if obstacle.any():
                lines.append("MASK")
                lines += ["".join("#" if flag else "." for flag in row) for row in obstacle.tolist()]
            assert format_height_grid(grid) == "\n".join(lines) + "\n"

    def test_mask_omitted_when_obstacle_free(self):
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=1.0)
        assert "MASK" not in format_height_grid(grid)


def _ninth_digit_ties() -> list[float]:
    """Heights exactly halfway between two 9-digit decimals, (N + 0.5) * 10**-k
    for an even and an odd N at each k: m / 2**(k + 1) with m = 2N + 1 an odd
    multiple of 5**k."""
    ties = []
    for k in range(13):
        least = -(-(2 * 10**8 + 1) // 5**k) | 1  # the least odd m with N >= 10**8
        for m in (least, least + 2):
            tie = m / 2 ** (k + 1)
            assert Fraction(tie) * 10**k % 1 == Fraction(1, 2) and 10**8 <= tie * 10**k < 10**9
            ties.append(tie)
    return ties


def _rounded_ties() -> list[float]:
    """Heights x whose x * 10**p rounds to exactly I + 0.5 without being it, one
    above and one below at each p: only the product's rounding error says which
    way %.9g rounds them."""
    found = []
    for p in range(1, 13):
        sides = {}
        for i in range(123456789, 123466789):
            x = (i + 0.5) / 10.0**p
            error = Fraction(x) * 10**p - Fraction(i) - Fraction(1, 2)
            if x * 10.0**p == i + 0.5 and error:
                sides.setdefault(error > 0, x)
            if len(sides) == 2:
                break
        assert len(sides) == 2
        found += sides.values()
    return found


_POWERS_OF_TEN = [float(v) for k in range(-5, 11)
                  for v in (np.nextafter(10.0**k, 0.0), 10.0**k, np.nextafter(10.0**k, np.inf))]
_BOUNDARY_HEIGHTS = {
    "zeros-and-subnormals": [0.0, -0.0, 5e-324, -2.5e-310],
    "powers-of-ten-and-neighbours": _POWERS_OF_TEN,
    "fixed-notation-edges": [1e-4, 9.99999999e-5, 99999999.95, 999999999.5],
    "ninth-digit-ties": _ninth_digit_ties(),
    "rounded-ties": _rounded_ties(),
}


@st.composite
def near_nine_digit_heights(draw) -> float:
    """(N + k/2) * 10**-p for N in [10**8, 10**9), k in {-1, 0, 1} and p in [-1, 13],
    as the nearest float or one of its neighbours, of either sign: the ties and the
    heights whose exponent estimate is one off, which the writer leaves to %."""
    n, k = draw(st.integers(10**8, 10**9 - 1)), draw(st.sampled_from([-1, 0, 1]))
    x = float(Fraction(2 * n + k, 2) * Fraction(10) ** -draw(st.integers(-1, 13)))
    x = float(np.nextafter(x, draw(st.sampled_from([-np.inf, x, np.inf]))))
    return draw(st.sampled_from([x, -x]))


def _grid_of(values: list[float], rows: int = 2) -> HeightGrid:
    """The values and their negations, repeated to fill a grid of even sides."""
    heights = np.array(values + [-v for v in values])
    heights = np.resize(heights, -(-len(heights) // (2 * rows)) * 2 * rows).reshape(rows, -1)
    return HeightGrid(rows=rows, cols=heights.shape[1], heights=heights,
                      obstacle=np.zeros(heights.shape, dtype=bool), spacing=1.0)


class TestFormat:
    @settings(max_examples=300)
    @given(shape=st.sampled_from([(2, 2), (2, 4), (4, 2), (4, 6), (6, 4)]), data=st.data())
    def test_matches_template_on_finite_heights(self, shape, data):
        size = shape[0] * shape[1]
        heights = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=size, max_size=size))
        obstacle = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        grid = HeightGrid(rows=shape[0], cols=shape[1], heights=heights, obstacle=obstacle, spacing=1.0)
        assert format_height_grid(grid) == format_height_template(grid)

    @settings(max_examples=300)
    @given(heights=st.lists(near_nine_digit_heights(), min_size=8, max_size=8))
    def test_matches_template_near_nine_digit_decimals(self, heights):
        grid = HeightGrid(rows=2, cols=4, heights=heights, obstacle=np.zeros((2, 4), dtype=bool),
                          spacing=1.0)
        assert format_height_grid(grid) == format_height_template(grid)

    @pytest.mark.parametrize("values", _BOUNDARY_HEIGHTS.values(), ids=_BOUNDARY_HEIGHTS.keys())
    def test_boundary_heights_match_template(self, values):
        grid = _grid_of(values)
        assert format_height_grid(grid) == format_height_template(grid)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_grids_match_template(self, zero):
        grid = HeightGrid(rows=4, cols=6, heights=np.full((4, 6), zero),
                          obstacle=np.zeros((4, 6), dtype=bool), spacing=1.0)
        text = format_height_grid(grid)
        assert text == format_height_template(grid)
        assert text.splitlines()[1] == " ".join([f"{zero:.9g}"] * 6)

    @pytest.mark.parametrize("shape", [(130, 130), (2, 16390)])
    def test_matches_template_across_blocks(self, shape):
        # rows that straddle the kernel's blocks, with exponent-notation heights in several
        rng = np.random.default_rng(21)
        heights = rng.normal(0.0, 20.0, shape) * 10.0 ** rng.choice([0, 0, 0, 0, -7, 12], shape)
        grid = HeightGrid(rows=shape[0], cols=shape[1], heights=heights,
                          obstacle=rng.random(shape) < 0.05, spacing=0.5)
        assert grid.heights.size > terrain._FORMAT_BLOCK
        assert format_height_grid(grid) == format_height_template(grid)


def parse_outcome(parse, text):
    """The error's type and message, or the heights' bits, the mask and the
    spacing; a warning is raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = parse(text)
        except ValueError as exc:  # TerrainParseError is one
            return type(exc), str(exc)
    return grid.heights.view(np.int64).tolist(), grid.obstacle.tolist(), grid.spacing


@st.composite
def written_grid_texts(draw) -> str:
    """Terrain text of a random grid as format_height_grid writes it, or with
    its heights rewritten in another format of single-space separated rows."""
    rows, cols = draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([2, 4, 6]))
    cells = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=rows * cols, max_size=rows * cols)
    flags = st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)
    grid = HeightGrid(rows=rows, cols=cols, heights=draw(cells), obstacle=draw(flags),
                      spacing=draw(st.floats(0.01, 100.0)))
    lines = format_height_grid(grid).splitlines()
    spec = draw(st.sampled_from(["%.9g", "%r", "%.17g", "%.3e", "%.12f"]))
    lines[1 : 1 + rows] = [" ".join([spec] * cols) % tuple(row) for row in grid.heights.tolist()]
    return "\n".join(lines) + "\n"


class TestBulkHeightReader:
    """parse_height_grid against the row-by-row oracle: the same heights bit
    for bit, mask and spacing, or the same error type and message, and no
    numpy warning."""

    @settings(max_examples=400)
    @given(text=st.one_of(terrain_like_texts(), written_grid_texts()))
    def test_matches_row_oracle(self, text):
        assert parse_outcome(parse_height_grid, text) == parse_outcome(parse_height_lines, text)

    @settings(max_examples=100)
    @given(text=written_grid_texts())
    def test_written_grids_are_read_in_bulk(self, text):
        header, *lines = text.splitlines()
        rows, cols = (int(n) for n in header.split()[:2])
        assert terrain._bulk_heights(lines[:rows], cols) is not None

    @pytest.mark.parametrize("mask", ["", "MASK\n.#\n..\n"])
    @pytest.mark.parametrize("rows", [
        ("1  2", "3 4"), (" 1 2", "3 4"), ("1 2 ", "3 4"), ("1\t2", "3 4"), ("1 \x0c 2", "3 4"),
        ("1_0 2", "3 4"), ("", "3 4"), ("", ""), (" ", " "), ("1 nan", "3 4"), ("inf 2", "3 4"),
        ("1e400 2", "3 4"), ("1 #", "3 4"), ("1 2#", "3 4"), ("# 1 2", "3 4"), ('"1" 2', "3 4"),
        ("1", "2 3 4"),
    ])
    def test_edge_texts_match_row_oracle(self, rows, mask):
        text = "2 2 1\n" + "\n".join(rows) + "\n" + mask
        assert parse_outcome(parse_height_grid, text) == parse_outcome(parse_height_lines, text)


class TestHeightGridInvariants:
    def test_nonpositive_dimensions(self):
        with pytest.raises(ValueError, match=r"^grid dimensions must be positive, got 0x2$"):
            HeightGrid(rows=0, cols=2, heights=[], obstacle=[], spacing=1.0)

    def test_wrong_height_count(self):
        with pytest.raises(ValueError, match="expected 4 heights"):
            HeightGrid(rows=2, cols=2, heights=[1, 2, 3], obstacle=[False] * 4, spacing=1.0)

    def test_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=0.0)

    @pytest.mark.parametrize("spacing", [float("inf"), float("nan")])
    def test_non_finite_spacing(self, spacing):
        with pytest.raises(ValueError, match="finite"):
            HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=spacing)
        with pytest.raises(ValueError, match="finite"):
            MegaGrid(rows=1, cols=2, heights=[1, 2], blocked=[False] * 2, spacing=spacing)

    def test_fine_spacing_must_double_to_a_finite_value(self):
        with pytest.raises(ValueError, match="spacing"):
            HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=1e308)
        largest = sys.float_info.max / 2
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=largest)
        assert aggregate(grid).spacing == sys.float_info.max
        # a mega grid's spacing is never doubled again, so it only has to be finite
        MegaGrid(rows=1, cols=2, heights=[1, 2], blocked=[False] * 2, spacing=1e308)

    def test_arrays_read_only(self):
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=1.0)
        with pytest.raises(ValueError):
            grid.heights[0, 0] = 99.0


class TestAggregate:
    def test_mean_of_four(self):
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=1.0)
        mega = aggregate(grid)
        assert mega.rows == 1 and mega.cols == 1
        assert mega.heights[0, 0] == 2.5
        assert not mega.blocked[0, 0]
        assert mega.spacing == 2.0

    def test_constant_grid_stays_constant(self):
        grid = HeightGrid(rows=4, cols=4, heights=[7.25] * 16, obstacle=[False] * 16, spacing=0.5)
        mega = aggregate(grid)
        assert (mega.heights == 7.25).all()
        assert mega.spacing == 1.0

    def test_any_obstacle_blocks_mega_cell(self):
        obstacle = [False] * 4
        obstacle[3] = True  # one fine cell in the only 2x2 block
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=obstacle, spacing=1.0)
        assert aggregate(grid).blocked[0, 0]

    def test_block_positions(self):
        heights = np.arange(16, dtype=float).reshape(4, 4)
        grid = HeightGrid(rows=4, cols=4, heights=heights, obstacle=np.zeros(16, bool), spacing=1.0)
        mega = aggregate(grid)
        # top-left block is rows 0-1 x cols 0-1: (0+1+4+5)/4
        assert mega.heights[0, 0] == 2.5
        assert mega.heights[1, 1] == (10 + 11 + 14 + 15) / 4

    @settings(max_examples=50)
    @given(
        half_rows=st.integers(min_value=1, max_value=5),
        half_cols=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mega_height_within_block_bounds(self, half_rows, half_cols, seed):
        rng = np.random.default_rng(seed)
        rows, cols = 2 * half_rows, 2 * half_cols
        heights = rng.normal(0, 50, (rows, cols))
        grid = HeightGrid(
            rows=rows, cols=cols, heights=heights, obstacle=np.zeros((rows, cols), bool), spacing=1.0
        )
        mega = aggregate(grid)
        for mr in range(half_rows):
            for mc in range(half_cols):
                block = heights[2 * mr : 2 * mr + 2, 2 * mc : 2 * mc + 2]
                assert block.min() <= mega.heights[mr, mc] <= block.max()

    @settings(max_examples=300)
    @given(
        half_rows=st.integers(min_value=1, max_value=40),
        half_cols=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        exponents=st.sampled_from([(0, 1), (-3, 4), (-300, 300)]),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_reshaped_mean_and_any(self, half_rows, half_cols, seed, exponents, density):
        """Every even shape from 2x2 up, with heights whose magnitudes differ
        enough that another order of the four additions changes the bits."""
        rng = np.random.default_rng(seed)
        rows, cols = 2 * half_rows, 2 * half_cols
        heights = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(*exponents, size=(rows, cols))
        obstacle = rng.random((rows, cols)) < density
        mega = aggregate(HeightGrid(rows=rows, cols=cols, heights=heights, obstacle=obstacle, spacing=1.0))
        assert mega.heights.tobytes() == block_means_per_cell(heights).tobytes()
        if cols >= 4:  # on 2 columns numpy's mean adds in sequence; see the test below
            assert mega.heights.tobytes() == mean_block_heights(heights).tobytes()
        assert np.array_equal(mega.blocked, any_blocked_blocks(obstacle))
        assert np.array_equal(blocked_mega_cells(obstacle), any_blocked_blocks(obstacle))

    def test_two_columns_add_in_the_documented_order(self):
        """(1e16 + 1) + (-1e16 + 1) rounds to 0, while numpy's mean on a grid
        2 columns wide sums ((1e16 + 1) - 1e16) + 1 = 1, for a mean of 0.25."""
        heights = np.array([[1e16, 1.0], [-1e16, 1.0]])
        grid = HeightGrid(rows=2, cols=2, heights=heights, obstacle=np.zeros((2, 2), bool), spacing=1.0)
        assert aggregate(grid).heights.tolist() == [[0.0]]
        assert mean_block_heights(heights).tolist() == [[0.25]]


def regions(mask: np.ndarray) -> int:
    """region_count of the blocked mask whose free mega cells are mask."""
    return region_count(~mask)


class TestRegionCount:
    @settings(max_examples=300)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=40),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_region_count_matches_flood_fill(self, rows, cols, density, seed):
        mask = np.random.default_rng(seed).random((rows, cols)) < density
        assert regions(mask) == flood_fill_regions(mask)

    @pytest.mark.parametrize("picture, count", [
        # a comb and a U: runs that touch through several vertical contacts
        ([".#.#.#.", ".#.#.#.", "......."], 1),
        ([".##.", ".##.", "....", "...."], 1),
        (["......", "#....#", "......"], 1),
        # a staircase of runs that touch at one column, and one that touches only at corners
        (["..####", "#..###", "##..##", "###..#", "####.."], 1),
        (["..####", "##..##", "####.."], 3),
        # runs split by a single blocked cell
        (["...#..."], 2),
        (["...#...", "...#..."], 2),
        (["...#...", "......."], 1),
        (["..#..", ".#.#.", "..#.."], 3),
        # all free and all blocked
        (["." * 40] * 40, 1),
        (["#" * 40] * 40, 0),
    ], ids=["comb", "u", "wide-contact", "staircase", "corners-only", "split-row", "split-column",
            "split-then-joined", "split-around", "all-free", "all-blocked"])
    def test_targeted_masks(self, picture, count):
        mask = np.array([[ch == "." for ch in line] for line in picture])
        assert regions(mask) == regions(mask.T) == flood_fill_regions(mask) == count

    @pytest.mark.parametrize("side, obstacles, roughness", [(1000, 60, 0.3), (250, 15, 0.3), (500, 40, 0.2)],
                             ids=["plan-1000", "plan-1000-warmup", "render-500"])
    def test_benchmark_terrains_form_one_region(self, side, obstacles, roughness):
        # the terrains perfbench's set-up writes at seed 42
        spec = TerrainGenSpec(rows=side, cols=side, seed=42, max_obstacles=obstacles, roughness=roughness)
        blocked = blocked_mega_cells(generate_terrain(spec).obstacle)
        assert region_count(blocked) == flood_fill_regions(~blocked) == 1

    def test_paper_terrains_form_one_region(self):
        for spec in BenchConfig(seed=42).terrain_specs():
            blocked = blocked_mega_cells(generate_terrain(spec).obstacle)
            assert region_count(blocked) == flood_fill_regions(~blocked) == 1

    @pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (12, 12), (5, 7)])
    @pytest.mark.parametrize("free", [True, False])
    def test_uniform_masks(self, shape, free):
        mask = np.full(shape, free)
        assert regions(mask) == flood_fill_regions(mask) == int(free)

    @pytest.mark.parametrize("line, count", [("#.#..#.", 3), ("..##...#", 2)])
    def test_single_row_and_column(self, line, count):
        mask = np.array([[ch == "." for ch in line]])
        assert regions(mask) == regions(mask.T) == count

    @settings(max_examples=300)
    @given(n=st.integers(min_value=0, max_value=12), data=st.data())
    def test_spanning_forest_against_label_oracle(self, n, data):
        node = st.integers(min_value=0, max_value=max(n - 1, 0))
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=30)) if n else []
        a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        forest = spanning_forest(n, a, b, np.zeros(len(pairs)))
        assert forest.dtype == np.int64
        joins = forest.tolist()
        assert joins == sorted(set(joins))  # strictly increasing edge indices
        assert n - len(joins) == label_regions(n, pairs)
        assert len(joins) <= max(n - 1, 0)
        # exactly the edges that lower the region count of the pairs before them
        assert joins == [k for k in range(len(pairs))
                         if label_regions(n, pairs[: k + 1]) < label_regions(n, pairs[:k])]


class TestGenerate:
    def test_zero_roughness_is_flat(self):
        grid = generate_terrain(TerrainGenSpec(rows=4, cols=4, seed=7, max_obstacles=0, roughness=0.0))
        assert len(np.unique(grid.heights)) == 1
        assert not grid.obstacle.any()

    def test_deterministic_for_fixed_spec(self):
        spec = TerrainGenSpec(rows=20, cols=24, seed=123, max_obstacles=4, roughness=0.3)
        a = generate_terrain(spec)
        b = generate_terrain(spec)
        assert format_height_grid(a) == format_height_grid(b)

    @settings(max_examples=200)
    @given(half_rows=st.integers(1, 65), half_cols=st.integers(1, 65), seed=st.integers(min_value=0))
    def test_noise_field_bits_match_reference(self, half_rows, half_cols, seed):
        rows, cols = 2 * half_rows, 2 * half_cols
        field = _midpoint_displacement(np.random.default_rng(seed), rows, cols)
        expected = midpoint_displacement(np.random.default_rng(seed), rows, cols)
        assert field.shape == expected.shape and field.tobytes() == expected.tobytes()

    @settings(max_examples=200)
    @given(half_rows=st.integers(1, 65), half_cols=st.integers(1, 65), seed=st.integers(min_value=0))
    def test_noise_field_bits_match_padded_lattice(self, half_rows, half_cols, seed):
        rows, cols = 2 * half_rows, 2 * half_cols
        field = _midpoint_displacement(np.random.default_rng(seed), rows, cols)
        expected = padded_midpoint_displacement(np.random.default_rng(seed), rows, cols)
        assert field.shape == expected.shape and field.tobytes() == expected.tobytes()

    def test_full_scale_connected_and_bounded_obstacles(self):
        spec = TerrainGenSpec(rows=250, cols=250, seed=1, max_obstacles=30, roughness=0.5)
        grid = generate_terrain(spec)
        mega = aggregate(grid)
        assert flood_fill_regions(~mega.blocked) == 1
        assert flood_fill_regions(grid.obstacle) <= 30

    def test_average_slope_matches_roughness(self):
        slopes = []
        for roughness in (0.1, 0.3, 0.5):
            spec = TerrainGenSpec(rows=60, cols=60, seed=5, max_obstacles=3, roughness=roughness)
            mega = aggregate(generate_terrain(spec))
            slope = average_slope(mega)
            assert slope == pytest.approx(roughness, rel=1e-9)
            slopes.append(slope)
        assert slopes == sorted(slopes)

    def test_zero_roughness_slope_exactly_zero(self):
        spec = TerrainGenSpec(rows=16, cols=16, seed=2, max_obstacles=2, roughness=0.0)
        mega = aggregate(generate_terrain(spec))
        assert average_slope(mega) == 0.0

    def test_generation_failure_when_obstacles_cannot_fit(self):
        # a 2x2 grid has one mega cell; any obstacle patch blocks it
        with pytest.raises(TerrainGenerationError, match="connected"):
            generate_terrain(TerrainGenSpec(rows=2, cols=2, seed=0, max_obstacles=1))

    def test_spacing_carried_through(self):
        grid = generate_terrain(TerrainGenSpec(rows=8, cols=8, seed=3, spacing=2.5))
        assert grid.spacing == 2.5
        assert aggregate(grid).spacing == 5.0


class TestGenSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(rows=3, cols=4), "even"),
            (dict(rows=4, cols=6, seed=-1), "non-negative"),
            (dict(rows=4, cols=4, max_obstacles=-2), "non-negative"),
            (dict(rows=4, cols=4, roughness=1.5), "roughness"),
            (dict(rows=4, cols=4, roughness=-0.1), "roughness"),
            (dict(rows=4, cols=4, spacing=0.0), "spacing"),
            (dict(rows=0, cols=4), "positive"),
            (dict(rows=4, cols=4, spacing=float("inf")), "finite"),
            (dict(rows=4, cols=4, spacing=1e308), "spacing"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TerrainGenSpec(**kwargs)
