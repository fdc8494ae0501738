from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    coverage_violations,
    flood_fill_regions,
    mega,
    format_path_template,
    parse_path_lines,
    pointer_chase_walk,
    sacrificed_cells,
    scalar_path_cost,
    tree_crossing_violations,
)
from slopecover import coverage
from slopecover.coverage import (
    CoveragePath,
    PathMismatchError,
    PathParseError,
    circumnavigate,
    count_sacrificed_cells,
    format_path,
    parse_path,
    path_cost,
    save_path,
    validate_path,
)
from slopecover.graph import (SpanningTree, build_graph, classical_spanning_tree, minimum_spanning_tree,
                              tree_weight)
from slopecover.terrain import (HeightGrid, MegaGrid, TerrainGenSpec, aggregate, blocked_mega_cells,
                               generate_terrain)
from slopecover.weights import WeightSpec


def tree_for(m: MegaGrid):
    g = build_graph(m)
    return minimum_spanning_tree(g, g.weights(WeightSpec.PYTHAGORAS))


def test_single_mega_cell_clockwise_square():
    m = mega([[5.0]])
    path = circumnavigate(tree_for(m))
    assert path.closed
    assert path.cells.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]


def test_two_horizontal_mega_cells_hug_the_edge():
    m = mega([[0.0, 0.0]])
    path = circumnavigate(tree_for(m))
    # unique hugging cycle on the 2x4 fine grid, enumerated by hand
    assert path.cells.tolist() == [
        [0, 0],
        [0, 1],
        [0, 2],
        [0, 3],
        [1, 3],
        [1, 2],
        [1, 1],
        [1, 0],
    ]


def test_two_vertical_mega_cells_hug_the_edge():
    m = mega([[0.0], [0.0]])
    path = circumnavigate(tree_for(m))
    assert path.cells.tolist() == [
        [0, 0],
        [0, 1],
        [1, 1],
        [2, 1],
        [3, 1],
        [3, 0],
        [2, 0],
        [1, 0],
    ]


def test_starts_at_top_left_subcell_of_root():
    blocked = np.array([[True, False], [False, False]])
    m = mega(np.zeros((2, 2)), blocked)
    path = circumnavigate(tree_for(m))
    # root is the first free mega cell in row-major order: (0, 1)
    assert path.cells[0].tolist() == [0, 2]


def test_invariants_on_random_terrains():
    rng = np.random.default_rng(77)
    for _ in range(12):
        rows = 2 * int(rng.integers(4, 12))
        cols = 2 * int(rng.integers(4, 12))
        spec = TerrainGenSpec(
            rows=rows,
            cols=cols,
            seed=int(rng.integers(2**32)),
            max_obstacles=int(rng.integers(0, 5)),
            roughness=float(rng.uniform(0.0, 0.5)),
        )
        grid = generate_terrain(spec)
        m = aggregate(grid)
        tree = tree_for(m)
        path = circumnavigate(tree)
        assert coverage_violations(path, grid) == []
        assert tree_crossing_violations(path, tree) == []
        assert len(path.cells) == 4 * int((~m.blocked).sum())
        validate_path(path, grid)  # the library's own checker agrees


@settings(max_examples=200)
@given(
    rows=st.integers(min_value=1, max_value=10),
    cols=st.integers(min_value=1, max_value=10),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spec=st.sampled_from(list(WeightSpec)),
)
def test_invariants_on_random_blocked_masks(rows, cols, density, seed, spec):
    """Any one-region mega mask, with the corridors, holes and one-cell necks
    the rectangle generator rarely draws, under both tree builders."""
    rng = np.random.default_rng(seed)
    blocked = rng.random((rows, cols)) < density
    assume(flood_fill_regions(~blocked) == 1)
    # each blocked mega cell holds a nonempty random subset of its 2x2 fine cells
    quads = ((rng.integers(1, 16, blocked.shape)[:, :, None] >> np.arange(4)) & 1).astype(bool)
    quads &= blocked[:, :, None]
    obstacle = quads.reshape(rows, cols, 2, 2).transpose(0, 2, 1, 3).reshape(2 * rows, 2 * cols)
    assert np.array_equal(blocked_mega_cells(obstacle), blocked)
    grid = HeightGrid(rows=2 * rows, cols=2 * cols, heights=rng.normal(0.0, 2.0, obstacle.shape),
                      obstacle=obstacle, spacing=1.0)
    g = build_graph(aggregate(grid))
    for tree in (minimum_spanning_tree(g, g.weights(spec)), classical_spanning_tree(g)):
        path = circumnavigate(tree)
        assert coverage_violations(path, grid) == []
        assert tree_crossing_violations(path, tree) == []
        validate_path(path, grid)


@pytest.mark.parametrize("edges", [[], [0], [0, 1, 2, 3]])
def test_rejects_edge_set_that_is_not_a_spanning_tree(edges):
    m = mega(np.zeros((2, 2)))
    g = build_graph(m)
    not_a_tree = SpanningTree(graph=g, edges=np.array(edges, dtype=np.int64))
    with pytest.raises(ValueError, match="does not span"):
        circumnavigate(not_a_tree)


def test_walk_over_a_graph_without_nodes_is_rejected():
    g = build_graph(mega([[0.0]], np.ones((1, 1), dtype=bool)))
    empty = SpanningTree(graph=g, edges=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="^tree walk covered 0 fine cells; the graph has no free mega cell"):
        circumnavigate(empty)


def first_region(free: np.ndarray) -> np.ndarray:
    """The free cells 4-connected to the first free cell in row-major order."""
    region = np.zeros_like(free)
    if not free.any():
        return region
    start = tuple(np.argwhere(free)[0].tolist())
    region[start] = True
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        for cell in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= cell[0] < free.shape[0] and 0 <= cell[1] < free.shape[1] and free[cell] \
                    and not region[cell]:
                region[cell] = True
                queue.append(cell)
    return region


class TestWalkOracle:
    """circumnavigate's list ranking against the walk one state at a time:
    the same cells, bit for bit, or the same error."""

    @staticmethod
    def assert_same_walk(tree: SpanningTree) -> None:
        got, expected = circumnavigate(tree), pointer_chase_walk(tree)
        assert got.closed
        assert got.cells.dtype == expected.cells.dtype and got.cells.shape == expected.cells.shape
        assert got.cells.tobytes() == expected.cells.tobytes()

    @settings(max_examples=150)
    @given(
        rows=st.integers(min_value=1, max_value=30),
        cols=st.integers(min_value=1, max_value=30),
        density=st.floats(min_value=0.0, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        spec=st.sampled_from(list(WeightSpec)),
    )
    # down edges between consecutive node numbers: seed 8 draws [[0.33, 0.99], [0.32, 0.79]],
    # which at density 0.5 frees only the right column, and density 0 frees a whole column
    @example(rows=2, cols=2, density=0.5, seed=8, spec=WeightSpec.SLOPE_PENALTY)
    @example(rows=5, cols=1, density=0.0, seed=0, spec=WeightSpec.SLOPE_PENALTY)
    def test_matches_pointer_chase_on_random_masks(self, rows, cols, density, seed, spec):
        rng = np.random.default_rng(seed)
        free = first_region(rng.random((rows, cols)) >= density)
        assume(free.any())
        g = build_graph(mega(rng.normal(0.0, 2.0, free.shape), ~free))
        for tree in (minimum_spanning_tree(g, g.weights(spec)), classical_spanning_tree(g)):
            self.assert_same_walk(tree)

    def test_one_node(self):
        g = build_graph(mega([[1.0]]))
        self.assert_same_walk(classical_spanning_tree(g))
        self.assert_same_walk(SpanningTree(graph=g, edges=np.array([], dtype=np.int64)))

    @pytest.mark.parametrize("teeth, length", [(3, 600), (40, 130), (129, 9)])
    def test_comb_of_long_vertical_corridors(self, teeth, length):
        """Teeth one cell wide hang from a top row: the walk goes down and up
        each tooth through states whose indices step by a tooth's width, the
        case that defeats rulers taken at every k-th index."""
        blocked = np.ones((length, 2 * teeth - 1), dtype=bool)
        blocked[0] = False
        blocked[:, 0::2] = False
        g = build_graph(mega(np.zeros(blocked.shape), blocked))
        for tree in (minimum_spanning_tree(g, g.weights(WeightSpec.UNIT)), classical_spanning_tree(g)):
            assert len(tree.edges) == len(g.edges)  # the comb is its own spanning tree
            self.assert_same_walk(tree)

    @settings(max_examples=60)
    @given(rows=st.integers(1, 30), cols=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           pick=st.integers(0, 10**6))
    def test_tree_missing_an_edge_raises_the_same_error(self, rows, cols, seed, pick):
        rng = np.random.default_rng(seed)
        free = first_region(rng.random((rows, cols)) >= 0.3)
        assume(free.sum() > 1)
        g = build_graph(mega(np.zeros(free.shape), ~free))
        full = classical_spanning_tree(g).edges
        tree = SpanningTree(graph=g, edges=np.delete(full, pick % len(full)))
        with pytest.raises(ValueError) as expected:
            pointer_chase_walk(tree)
        with pytest.raises(ValueError) as got:
            circumnavigate(tree)
        assert str(got.value) == str(expected.value)
        assert "does not span all free mega cells" in str(got.value)


def pointer_chase_from(successor: np.ndarray, start: int) -> list[int]:
    """The states of successor's cycle through start, one step at a time."""
    order = [start]
    while (state := int(successor[order[-1]])) != start:
        order.append(state)
    return order


@settings(max_examples=200)
@given(states=st.integers(1, 3000), cuts=st.integers(0, 300), zero_fixed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(states=1, cuts=0, zero_fixed=False, seed=0)
@example(states=3000, cuts=0, zero_fixed=False, seed=0)  # one cycle through every state
@example(states=3000, cuts=300, zero_fixed=True, seed=1)
def test_cycle_from_zero_matches_pointer_chase(states, cuts, zero_fixed, seed):
    """The list ranking on random permutations: the states shuffled, then cut
    into cycles, walked from state 0 and from a state drawn by the same
    generator. With up to 300 cycles and about states / 128 rulers, most
    cycles have no ruler on them; zero_fixed makes state 0 a fixed point."""
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(states)
    bounds = [0, states, *rng.integers(0, states, cuts).tolist()]
    if zero_fixed:
        shuffled = np.concatenate([[0], shuffled[shuffled != 0]])
        bounds.append(1)
    bounds = sorted(set(bounds))
    successor = np.empty(states, dtype=np.int64)
    for low, high in zip(bounds, bounds[1:]):
        cycle = shuffled[low:high]
        successor[cycle] = np.roll(cycle, -1)
    for start in (0, int(rng.integers(states))):
        order = coverage._cycle_from(successor, start)
        assert order.dtype == np.int64
        assert order.tolist() == pointer_chase_from(successor, start)


class TestPathCost:
    def test_flat_closed_path_costs_length_times_spacing(self):
        grid = HeightGrid(rows=2, cols=2, heights=[3.0] * 4, obstacle=[False] * 4, spacing=0.5)
        m = aggregate(grid)
        path = circumnavigate(tree_for(m))
        assert path_cost(path, grid, WeightSpec.PYTHAGORAS) == pytest.approx(
            len(path.cells) * 0.5, rel=1e-12
        )

    def test_unit_spec_costs_length(self):
        grid = HeightGrid(
            rows=2, cols=4, heights=list(range(8)), obstacle=[False] * 8, spacing=1.0
        )
        m = aggregate(grid)
        path = circumnavigate(tree_for(m))
        assert path_cost(path, grid, WeightSpec.UNIT) == len(path.cells)

    def test_single_mega_cell_heights_1234(self):
        # clockwise visit order of the fine heights is 1, 2, 4, 3
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=1.0)
        m = aggregate(grid)
        path = circumnavigate(tree_for(m))
        expected = 2 * math.sqrt(2.0) + 2 * math.sqrt(5.0)
        assert path_cost(path, grid, WeightSpec.PYTHAGORAS) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.300563, abs=1e-6)


    def test_equals_scalar_loop_on_random_terrains(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            side = 2 * int(rng.integers(1, 10))
            grid = generate_terrain(
                TerrainGenSpec(
                    rows=side,
                    cols=side + 2,
                    seed=int(rng.integers(2**32)),
                    max_obstacles=int(rng.integers(0, 3)),
                    roughness=float(rng.uniform(0.0, 1.0)),
                    spacing=float(rng.uniform(0.1, 3.0)),
                )
            )
            route = circumnavigate(tree_for(aggregate(grid)))
            cut = int(rng.integers(0, len(route.cells) + 1))
            paths = [route, CoveragePath(cells=route.cells[:cut], closed=False)]
            for path in paths:
                for spec in WeightSpec:
                    # exact: same terms, added in the same order
                    assert path_cost(path, grid, spec) == scalar_path_cost(path, grid, spec)

    def test_short_paths_cost_nothing(self):
        grid = HeightGrid(rows=2, cols=2, heights=[1, 2, 3, 4], obstacle=[False] * 4, spacing=1.0)
        for cells in ((), ((0, 0),)):
            for closed in (True, False):
                assert path_cost(CoveragePath(cells=cells, closed=closed), grid, WeightSpec.UNIT) == 0.0

    @pytest.mark.parametrize("cells, named", [
        ([(-1, -1), (0, 0)], "-1,-1"),  # numpy would read the cell (1, 1)
        ([(0, 0), (0, -1), (5, 0)], "0,-1"),
        ([(0, 0), (0, 1), (0, 2)], "0,2"),
        ([(1, 1), (2, 0), (-3, 0)], "2,0"),
    ])
    def test_cells_outside_the_grid_are_named(self, cells, named):
        grid = HeightGrid(rows=2, cols=2, heights=[0, 1, 2, 5], obstacle=[False] * 4, spacing=1.0)
        assert path_cost(CoveragePath(cells=[(1, 1), (0, 0)], closed=False), grid,
                         WeightSpec.PYTHAGORAS) == math.sqrt(26.0)
        for closed in (True, False):
            with pytest.raises(ValueError, match=f"^cell {named} lies outside the grid$"):
                path_cost(CoveragePath(cells=cells, closed=closed), grid, WeightSpec.PYTHAGORAS)

    def test_non_finite_cost_rejected(self):
        # the mega means are 0 and 0, but a fine step spans 2e308
        grid = HeightGrid(
            rows=2, cols=4, heights=[1e308, -1e308, 0, 0] * 2, obstacle=[False] * 8, spacing=1.0
        )
        m = aggregate(grid)
        tree = tree_for(m)
        path = circumnavigate(tree)
        assert tree_weight(tree, tree.graph.weights(WeightSpec.PYTHAGORAS)) == 2.0
        with pytest.raises(ValueError, match="path_cost is not finite"):
            path_cost(path, grid, WeightSpec.PYTHAGORAS)


class TestRouteBlocks:
    """path_cost prices, and format_path and save_path write, _ROUTE_BLOCK
    route cells at a time; the blocks change no bit of the cost or the text."""

    def assert_blocks_keep_cost_and_text(self, paths, grid, tmp_path):
        for path in paths:
            for spec in WeightSpec:
                # exact: same terms, added in the same order
                assert path_cost(path, grid, spec) == scalar_path_cost(path, grid, spec)
            text = format_path(path)
            assert text == format_path_template(path)
            save_path(path, tmp_path / "route.txt")
            assert (tmp_path / "route.txt").read_bytes() == text.encode("ascii")

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_small_blocks(self, monkeypatch, tmp_path, block):
        """Closed routes, and open and closed cuts of them that end on, before
        and after a block boundary."""
        monkeypatch.setattr(coverage, "_ROUTE_BLOCK", block)
        grid = generate_terrain(TerrainGenSpec(rows=6, cols=8, seed=5, roughness=0.7, spacing=0.3))
        route = circumnavigate(tree_for(aggregate(grid)))
        cuts = sorted({0, 1, 2, block, block + 1, block + 2, 2 * block, 2 * block + 1, 3 * block - 1})
        paths = [route] + [CoveragePath(cells=route.cells[:cut], closed=closed)
                           for cut in cuts for closed in (True, False)]
        self.assert_blocks_keep_cost_and_text(paths, grid, tmp_path)

    @pytest.mark.parametrize("block", [1, 3, 7, 1 << 16])
    def test_overflow_in_the_last_block(self, monkeypatch, block):
        """Along one row of 16 cells the open route's total, 1.6e308 from its
        first and last steps, is finite; the closed route's closing step
        overflows it, in the last block."""
        monkeypatch.setattr(coverage, "_ROUTE_BLOCK", block)
        heights = np.zeros((2, 16))
        heights[0, 0], heights[0, 15] = -8e307, 8e307
        grid = HeightGrid(rows=2, cols=16, heights=heights.ravel().tolist(), obstacle=[False] * 32,
                          spacing=1.0)
        cells = [(0, c) for c in range(16)]
        spec = WeightSpec.PYTHAGORAS
        route = CoveragePath(cells=cells, closed=False)
        assert path_cost(route, grid, spec) == scalar_path_cost(route, grid, spec) == 1.6e308
        with pytest.raises(ValueError, match=r"^path_cost is not finite \(inf\): a weight or the sum "
                                             r"overflows, from height differences or from the spacing$"):
            path_cost(CoveragePath(cells=cells, closed=True), grid, spec)

    def test_a_route_of_more_than_two_blocks(self, tmp_path):
        grid = generate_terrain(TerrainGenSpec(rows=364, cols=364, seed=3, roughness=0.4))
        route = circumnavigate(tree_for(aggregate(grid)))
        assert len(route.cells) == 364 * 364 > 2 * coverage._ROUTE_BLOCK
        self.assert_blocks_keep_cost_and_text([route], grid, tmp_path)


def test_non_finite_tree_weight_rejected():
    m = mega([[1e308, -1e308]])
    tree = tree_for(m)
    with pytest.raises(ValueError, match="tree_weight is not finite"):
        tree_weight(tree, tree.graph.weights(WeightSpec.SLOPE_PENALTY))
    assert tree_weight(tree, tree.graph.weights(WeightSpec.UNIT)) == 1.0


def test_path_cells_are_read_only_int64_pairs():
    path = CoveragePath(cells=[(0, 0), (0, 1)])
    assert path.cells.dtype == np.int64 and path.cells.shape == (2, 2)
    with pytest.raises(ValueError):
        path.cells[0, 0] = 5
    assert CoveragePath(cells=()).cells.shape == (0, 2)
    bad_cells = ([(0.5, 1.0)], [(1, 2, 3), (4, 5, 6)], [1, 2], np.array([[2**63]], dtype=np.uint64),
                 [[True, False]], 5)
    for bad in bad_cells:
        with pytest.raises(ValueError, match="integers"):
            CoveragePath(cells=bad)
    route = circumnavigate(tree_for(mega([[0.0, 1.0]])))
    assert route.cells.dtype == np.int64 and not route.cells.flags.writeable
    cells = np.array([[0, 0], [0, 1]], dtype=np.int64)  # already the stored dtype: still copied
    stored = CoveragePath(cells=cells).cells
    assert not stored.flags.writeable and cells.flags.writeable
    assert not np.shares_memory(stored, cells)


def test_path_keeps_read_only_cells_that_own_their_memory():
    route = circumnavigate(tree_for(mega([[0.0, 1.0], [2.0, 3.0]])))
    assert np.shares_memory(CoveragePath(cells=route.cells).cells, route.cells)
    cells = np.array([[0, 0], [0, 1]], dtype=np.int64)
    view = cells.view()  # read-only, but the caller can still write cells
    view.setflags(write=False)
    stored = CoveragePath(cells=view).cells
    assert not stored.flags.writeable and not np.shares_memory(stored, cells)


def test_sacrificed_cells_counted():
    obstacle = np.zeros((4, 4), dtype=bool)
    obstacle[0, 0] = True  # blocks mega (0,0); its other 3 fine cells are sacrificed
    grid = HeightGrid(rows=4, cols=4, heights=np.zeros(16), obstacle=obstacle, spacing=1.0)
    assert count_sacrificed_cells(grid) == 3


def test_no_sacrifice_without_obstacles():
    grid = HeightGrid(rows=4, cols=4, heights=np.zeros(16), obstacle=np.zeros(16, bool), spacing=1.0)
    assert count_sacrificed_cells(grid) == 0


@settings(max_examples=300)
@given(
    half_rows=st.integers(min_value=1, max_value=8),
    half_cols=st.integers(min_value=1, max_value=8),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sacrificed_cells_match_upsampled_oracle(half_rows, half_cols, density, seed):
    rows, cols = 2 * half_rows, 2 * half_cols
    obstacle = np.random.default_rng(seed).random((rows, cols)) < density
    grid = HeightGrid(rows=rows, cols=cols, heights=np.zeros(rows * cols), obstacle=obstacle, spacing=1.0)
    assert count_sacrificed_cells(grid) == sacrificed_cells(obstacle)


class TestPathFiles:
    def test_round_trip(self):
        path = CoveragePath(cells=((0, 0), (0, 1), (1, 1), (1, 0)))
        text = format_path(path)
        assert text.splitlines()[0] == "PATH 4 closed"
        back = parse_path(text)
        assert np.array_equal(back.cells, path.cells)
        assert back.closed

    def test_bad_header(self):
        with pytest.raises(PathParseError, match="header"):
            parse_path("ROUTE 4 closed\n0 0\n0 1\n1 1\n1 0\n")

    def test_non_integer_count(self):
        with pytest.raises(PathParseError, match=r"^malformed header 'PATH x closed'$"):
            parse_path("PATH x closed\n")

    def test_count_mismatch(self):
        with pytest.raises(PathParseError, match="expected 4 cells"):
            parse_path("PATH 4 closed\n0 0\n0 1\n")

    def test_non_integer_cell(self):
        with pytest.raises(PathParseError, match="non-integer"):
            parse_path("PATH 1 closed\n0 x\n")

    def test_first_malformed_line_is_reported(self):
        with pytest.raises(PathParseError, match="cell line 1: non-integer"):
            parse_path("PATH 3 closed\n0 0\n0 x\n1 2 3\n")
        with pytest.raises(PathParseError, match="cell line 1: expected 'row col'"):
            parse_path("PATH 3 closed\n0 0\n1 2 3\n0 x\n")

    def test_coordinate_beyond_int64_rejected(self):
        with pytest.raises(PathParseError, match="int64"):
            parse_path(f"PATH 1 open\n0 {2**63}\n")

    def test_bytes_match_line_per_cell_format(self):
        path = CoveragePath(cells=[(0, 0), (-3, 12), (1000000, 7)], closed=False)
        assert format_path(path) == "PATH 3 open\n0 0\n-3 12\n1000000 7\n"
        assert format_path(CoveragePath(cells=())) == "PATH 0 closed\n"

    @settings(max_examples=200)
    @given(
        cells=st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1), st.integers(-5, 5)), max_size=30),
        closed=st.booleans(),
    )
    def test_parse_inverts_format(self, cells, closed):
        path = CoveragePath(cells=cells, closed=closed)
        back = parse_path(format_path(path))
        assert back.closed == path.closed
        assert back.cells.dtype == np.int64
        assert np.array_equal(back.cells, path.cells)

    @settings(max_examples=200)
    @given(
        cells=st.lists(st.tuples(st.one_of(st.integers(-40, 40), st.integers(10**15, 2**63 - 1),
                                           st.integers(-(2**63), -(10**15))),
                                 st.integers(-(2**63), 2**63 - 1)), max_size=40),
        closed=st.booleans(),
    )
    def test_matches_one_template_writer(self, cells, closed):
        """Negative, sparse (>= 1e15), empty and open paths: the same text as
        one `%d %d` template over every coordinate, and it reads back."""
        path = CoveragePath(cells=cells, closed=closed)
        text = format_path(path)
        assert text == format_path_template(path)
        back = parse_path(text)
        assert back.closed == closed and back.cells.tobytes() == path.cells.tobytes()

    @settings(max_examples=300)
    @given(
        text=st.one_of(
            st.text(),
            st.builds(
                lambda n, word, body: f"PATH {n} {word}\n" + "\n".join(body),
                st.integers(-2, 6),
                st.sampled_from(["closed", "open", "shut"]),
                st.lists(st.text(alphabet="0123456789 -+_x\t\u0663", max_size=8), max_size=6),
            ),
        )
    )
    def test_fuzzed_text_raises_only_parse_errors(self, text):
        try:
            path = parse_path(text)
        except PathParseError:
            return
        assert path.cells.ndim == 2 and path.cells.shape[1] == 2


def parse_outcome(parse, text):
    try:
        path = parse(text)
    except PathParseError as exc:
        return "error", str(exc)
    return "path", path.cells.dtype, path.cells.tolist(), path.closed


def mutate_line(line: str, kind: str, k: int) -> str:
    """One `row col` line with a non-canonical variant of kind applied."""
    row, col = line.split()
    return {
        "crlf": f"{row} {col}\r",
        "spaces": f" {row}  {col} ",
        "tab": f"{row}\t{col}",
        "plus": f"+{row} {col}",
        "minus": f"{row} -{col}",
        "leading-zeros": f"{row:0>18} {col:0>19}",
        "19-digits": f"{row} {10**18 + k}",
        "2**63": f"{2**63} {col}",
        "digit-3": f"{row} \u0663",
    }[kind]


LINE_MUTATIONS = ("crlf", "spaces", "tab", "plus", "minus", "leading-zeros", "19-digits", "2**63",
                  "digit-3")
TEXT_MUTATIONS = ("none", "all-crlf", "blank-lines", "no-final-newline", "missing-last-line",
                  "joined-lines", "header-spaces", "header-zeros", "header-plus")


class TestBulkPathReader:
    """parse_path against the line-by-line oracle: the same cells and
    `closed`, or the same PathParseError message."""

    @settings(max_examples=400)
    @given(
        cells=st.lists(st.tuples(st.integers(0, 10**18 - 1), st.integers(-3, 40)), max_size=12),
        closed=st.booleans(),
        text_mutation=st.sampled_from(TEXT_MUTATIONS),
        line_mutations=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(LINE_MUTATIONS)),
                                max_size=2),
    )
    def test_matches_line_oracle(self, cells, closed, text_mutation, line_mutations):
        text = format_path(CoveragePath(cells=cells, closed=closed))
        if text_mutation == "none" and not line_mutations and all(c >= 0 for _, c in cells):
            assert coverage._parse_canonical(text) is not None  # the bulk path reads it
        header, *body = text.splitlines()
        for i, kind in line_mutations:
            if i < len(body):
                body[i] = mutate_line(body[i], kind, i)
        word = header.split()[2]
        text = {
            "none": lambda: "\n".join([header, *body]) + "\n",
            "all-crlf": lambda: "\r\n".join([header, *body]) + "\r\n",
            "blank-lines": lambda: "\n".join([header, *body]) + "\n\n \t\n",
            "no-final-newline": lambda: "\n".join([header, *body]),
            "missing-last-line": lambda: "\n".join([header, *body[:-1]]) + "\n",
            "joined-lines": lambda: "\n".join([header, " ".join(body[:2]), *body[2:]]) + "\n",
            "header-spaces": lambda: "\n".join([f" PATH  {len(body)} {word} ", *body]) + "\n",
            "header-zeros": lambda: "\n".join([f"PATH 0{len(body)} {word}", *body]) + "\n",
            "header-plus": lambda: "\n".join([f"PATH +{len(body)} {word}", *body]) + "\n",
        }[text_mutation]()
        assert parse_outcome(parse_path, text) == parse_outcome(parse_path_lines, text)

    @pytest.mark.parametrize("text", [
        "", "\n", "PATH 0 closed\n", "PATH 0 open", "PATH 0 closed\n5", "PATH 1 open\n5\n",
        "PATH 1 open\n1 2 3\n", "PATH 1 open\n 1 2\n", "PATH 1 open\n1  2\n", "PATH 1 open\n1 2\n\n",
        "PATH 2 open\n1 2\n", "PATH 1 open\n1 2\n3 4\n", "PATH 2 open\n1 2 3 4\n", "PATH 1 open\n1 2\x0c",
        "PATH 1 open\n1 2\x0b3 4\n", "PATH 1 open\n1 2\x85", "PATH 1 closed\n1 2\u2028",
        f"PATH 1 open\n{10**18 - 1} {10**18}\n", f"PATH {10**18} open\n1 2\n",
        "PATH 1 open\n 7\n", "PATH 1 open\n7 \n", "PATH 2 open\n1 2\n \n", "PATH 1 open\n\n 2\n",
        "PATH 1 shut\n1 2\n", "PATH 1 open\r\n1 2\n", "PATH 1 open\n1_0 2\n", "PATH 1_0 open\n",
    ])
    def test_edge_texts_match_line_oracle(self, text):
        assert parse_outcome(parse_path, text) == parse_outcome(parse_path_lines, text)


class TestValidatePath:
    def make_grid(self):
        return HeightGrid(rows=2, cols=2, heights=[0.0] * 4, obstacle=[False] * 4, spacing=1.0)

    def test_accepts_valid_cycle(self):
        grid = self.make_grid()
        path = CoveragePath(cells=((0, 0), (0, 1), (1, 1), (1, 0)))
        validate_path(path, grid)

    def test_rejects_wrong_length(self):
        path = CoveragePath(cells=((0, 0), (0, 1)))
        with pytest.raises(PathMismatchError, match="length"):
            validate_path(path, self.make_grid())

    def test_rejects_out_of_bounds(self):
        path = CoveragePath(cells=((0, 0), (0, 1), (0, 2), (0, 3)))
        with pytest.raises(PathMismatchError, match="outside"):
            validate_path(path, self.make_grid())

    def test_rejects_duplicate_visit(self):
        path = CoveragePath(
            cells=((0, 0), (0, 1), (0, 0), (1, 0))
        )
        with pytest.raises(PathMismatchError, match="twice"):
            validate_path(path, self.make_grid())

    def test_rejects_diagonal_step(self):
        path = CoveragePath(cells=((0, 0), (1, 1), (0, 1), (1, 0)))
        with pytest.raises(PathMismatchError, match="4-adjacent"):
            validate_path(path, self.make_grid())

    def test_rejects_open_path(self):
        path = CoveragePath(
            cells=((0, 0), (0, 1), (1, 1), (1, 0)), closed=False
        )
        with pytest.raises(PathMismatchError, match="closed"):
            validate_path(path, self.make_grid())

    @pytest.mark.parametrize(
        "cells, closed, message",
        [
            ([(0, 2), (0, 3), (1, 3), (1, 2)] * 3, False, "coverage path must be closed"),
            ([], True, "path is empty"),
            ([(0, 2), (0, 3)], True, "path length 2 != 4 x free mega cells (12)"),
            ([(0, 2), (0, 3), (1, 3), (1, 2), (2, 4)] + [(2, 2)] * 7, True,
             "cell 2,4 lies outside the grid"),
            ([(0, 2), (-1, 3)] + [(2, 2)] * 10, True, "cell -1,3 lies outside the grid"),
            ([(0, 2), (0, 0)] + [(2, 2)] * 10, True, "cell 0,0 is an obstacle"),
            ([(0, 2), (1, 1)] + [(2, 2)] * 10, True, "cell 1,1 lies in a blocked mega cell"),
            ([(0, 2), (0, 3), (0, 2)] + [(9, 9)] * 9, True, "cell 0,2 visited twice"),
            ([(2, 0), (2, 1), (2, 2), (2, 3), (3, 3), (3, 2), (3, 1), (3, 0),
              (0, 3), (0, 2), (1, 2), (1, 3)], True, "step 3,0 -> 0,3 is not 4-adjacent"),
            ([(1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 3), (3, 2), (3, 1), (3, 0),
              (0, 3), (0, 2), (1, 2)], True, "step 1,3 -> 2,0 is not 4-adjacent"),
        ],
    )
    def test_failure_messages(self, cells, closed, message):
        # mega (0, 0) is blocked by the obstacle at fine (0, 0); 3 free mega cells
        obstacle = np.zeros((4, 4), dtype=bool)
        obstacle[0, 0] = True
        grid = HeightGrid(rows=4, cols=4, heights=np.zeros(16), obstacle=obstacle, spacing=1.0)
        with pytest.raises(PathMismatchError) as info:
            validate_path(CoveragePath(cells=cells, closed=closed), grid)
        assert str(info.value) == message

    def test_first_failing_cell_in_route_order_is_reported(self):
        grid = HeightGrid(rows=2, cols=4, heights=[0.0] * 8, obstacle=[False] * 8, spacing=1.0)
        # a repeat (position 2) comes before an outside cell (position 5)
        cells = [(0, 0), (0, 1), (0, 0), (0, 3), (1, 3), (5, 5), (1, 1), (1, 0)]
        with pytest.raises(PathMismatchError, match="^cell 0,0 visited twice$"):
            validate_path(CoveragePath(cells=cells), grid)
        cells[2] = (9, 0)
        with pytest.raises(PathMismatchError, match="^cell 9,0 lies outside the grid$"):
            validate_path(CoveragePath(cells=cells), grid)

    def test_rejects_obstacle_cell(self):
        obstacle = np.zeros((2, 2), dtype=bool)
        obstacle[1, 0] = True
        grid = HeightGrid(rows=2, cols=2, heights=[0.0] * 4, obstacle=obstacle, spacing=1.0)
        path = CoveragePath(cells=((0, 0), (0, 1), (1, 1), (1, 0)))
        with pytest.raises(PathMismatchError):
            validate_path(path, grid)
