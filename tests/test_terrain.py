from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import flood_fill_regions, label_regions, parse_mask_rows
from slopecover.graph import average_slope
from slopecover.terrain import (
    HeightGrid,
    MegaGrid,
    TerrainGenSpec,
    TerrainGenerationError,
    TerrainParseError,
    aggregate,
    component_count,
    format_height_grid,
    generate_terrain,
    parse_height_grid,
    spanning_forest,
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
            lines = [f"{rows} {cols} {grid.spacing:.9g}"]
            lines += [" ".join(f"{v:.9g}" for v in row) for row in heights.tolist()]
            if obstacle.any():
                lines.append("MASK")
                lines += ["".join("#" if flag else "." for flag in row) for row in obstacle.tolist()]
            assert format_height_grid(grid) == "\n".join(lines) + "\n"

    def test_mask_omitted_when_obstacle_free(self):
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=1.0)
        assert "MASK" not in format_height_grid(grid)


class TestHeightGridInvariants:
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


class TestRegionCount:
    @settings(max_examples=300)
    @given(
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_component_count_matches_flood_fill(self, rows, cols, density, seed):
        mask = np.random.default_rng(seed).random((rows, cols)) < density
        assert component_count(mask) == flood_fill_regions(mask)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (12, 12), (5, 7)])
    @pytest.mark.parametrize("free", [True, False])
    def test_uniform_masks(self, shape, free):
        mask = np.full(shape, free)
        assert component_count(mask) == flood_fill_regions(mask) == int(free)

    @pytest.mark.parametrize("line, regions", [("#.#..#.", 3), ("..##...#", 2)])
    def test_single_row_and_column(self, line, regions):
        mask = np.array([[ch == "." for ch in line]])
        assert component_count(mask) == component_count(mask.T) == regions

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
