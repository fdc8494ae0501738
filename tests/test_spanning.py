from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    boolean_mask_spanning_forest,
    brute_force_min_spanning_weight,
    flood_fill_regions,
    mega,
    random_connected_mega,
    random_weight_spec,
    scalar_weight,
    stable_weight_kruskal,
    tuple_stack_dfs_tree,
)
from slopecover.bench import BenchConfig
from slopecover.graph import (
    CoverageGraph,
    DisconnectedGridError,
    SpanningTree,
    build_graph,
    classical_spanning_tree,
    minimum_spanning_tree,
    spanning_forest,
    tree_weight,
)
from slopecover.terrain import TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec


def mst(g: CoverageGraph, spec: WeightSpec) -> SpanningTree:
    return minimum_spanning_tree(g, g.weights(spec))


def cost(tree: SpanningTree, spec: WeightSpec) -> float:
    return tree_weight(tree, tree.graph.weights(spec))


@pytest.mark.parametrize("build", [mst, classical_spanning_tree],
                         ids=["minimum_spanning_tree", "classical_spanning_tree"])
def test_single_node_tree_is_empty(build):
    g = build_graph(mega([[5.0]]))
    tree = build(g, WeightSpec.PYTHAGORAS) if build is mst else build(g)
    assert tree.edges.tolist() == []
    assert tree.edges.dtype == np.int64
    assert g.nodes.tolist() == [[0, 0]]  # the root, node 0


def test_tree_edges_are_kept_read_only_or_copied():
    """SpanningTree keeps a read-only int64 array that owns its memory and
    copies anything else, so no caller can write the tree's edges."""
    g = build_graph(mega(np.zeros((2, 2))))
    from_list = SpanningTree(graph=g, edges=[0, 1, 2])
    assert from_list.edges.tolist() == [0, 1, 2]
    assert from_list.edges.dtype == np.int64 and not from_list.edges.flags.writeable
    edges = np.array([0, 1, 2], dtype=np.int64)
    tree = SpanningTree(graph=g, edges=edges)
    assert edges.flags.writeable and not np.shares_memory(tree.edges, edges)
    assert np.shares_memory(SpanningTree(graph=g, edges=tree.edges).edges, tree.edges)
    for tree in (mst(g, WeightSpec.PYTHAGORAS), classical_spanning_tree(g)):
        assert tree.edges.dtype == np.int64 and not tree.edges.flags.writeable
        with pytest.raises(ValueError):
            tree.edges[0] = 1


def test_flat_square_ties_break_canonically():
    g = build_graph(mega(np.zeros((2, 2)), spacing=3.0))
    tree = mst(g, WeightSpec.PYTHAGORAS)
    # all four edges weigh d; the lexicographically first acyclic triple wins
    assert tree.edges.tolist() == [0, 1, 2]
    assert cost(tree, WeightSpec.PYTHAGORAS) == pytest.approx(9.0, rel=1e-12)


def test_path_graph_has_unique_spanning_tree():
    g = build_graph(mega([[0.0, 1.0, 3.0]]))
    every_edge = list(range(len(g.edges)))
    assert mst(g, WeightSpec.PYTHAGORAS).edges.tolist() == every_edge
    assert classical_spanning_tree(g).edges.tolist() == every_edge


def test_mst_matches_brute_force_on_small_grids():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        m = random_connected_mega(rng, max_nodes=8)
        spec = random_weight_spec(rng)
        g = build_graph(m)
        expected = brute_force_min_spanning_weight(g, spec)
        actual = cost(mst(g, spec), spec)
        assert actual == pytest.approx(expected, rel=1e-9)


def test_cut_property_on_generated_terrain():
    grid = generate_terrain(TerrainGenSpec(rows=16, cols=16, seed=11, max_obstacles=2, roughness=0.4))
    g = build_graph(aggregate(grid))
    tree = mst(g, WeightSpec.PYTHAGORAS)
    n = len(g.nodes)
    ends = g.edges.tolist()
    weight = g.weights(WeightSpec.PYTHAGORAS).tolist()
    for removed in tree.edges.tolist():
        # split nodes into the two components left by removing this edge
        adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
        for e in tree.edges.tolist():
            if e == removed:
                continue
            a, b = ends[e]
            adjacency[a].append(b)
            adjacency[b].append(a)
        side = [False] * n
        start = ends[removed][0]
        stack = [start]
        side[start] = True
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not side[v]:
                    side[v] = True
                    stack.append(v)
        # any graph edge reconnecting the cut must weigh at least the removed edge
        for (a, b), w in zip(ends, weight):
            if side[a] != side[b]:
                assert w >= weight[removed] - 1e-12


def test_builders_are_deterministic():
    rng = np.random.default_rng(8)
    m = mega(rng.normal(0, 2, (4, 5)))
    g = build_graph(m)
    spec = WeightSpec.SLOPE_PENALTY
    assert np.array_equal(mst(g, spec).edges, mst(g, spec).edges)
    assert np.array_equal(classical_spanning_tree(g).edges, classical_spanning_tree(g).edges)


def test_classical_tree_ignores_weights():
    rng = np.random.default_rng(9)
    heights = rng.normal(0, 3, (3, 4))
    trees = []
    for scale in (0.0, 1.0, -50.0):  # flat, sloped and reversed terrain, same topology
        g = build_graph(mega(heights * scale))
        trees.append(g.edges[classical_spanning_tree(g).edges].tolist())
    assert all(t == trees[0] for t in trees[1:])


def test_tree_weight_examples():
    g = build_graph(mega([[0.0, 0.0]], spacing=2.0))
    tree = mst(g, WeightSpec.PYTHAGORAS)
    assert cost(tree, WeightSpec.PYTHAGORAS) == 2.0
    assert cost(tree, WeightSpec.UNIT) == 1.0  # node count - 1

    single = mst(build_graph(mega([[1.0]])), WeightSpec.UNIT)
    assert cost(single, WeightSpec.SLOPE_PENALTY) == 0.0


def test_tree_weight_reevaluates_under_other_spec():
    m = mega([[0.0, 3.0]], spacing=4.0)
    tree = mst(build_graph(m), WeightSpec.UNIT)
    assert cost(tree, WeightSpec.UNIT) == 1.0
    assert cost(tree, WeightSpec.PYTHAGORAS) == pytest.approx(5.0, rel=1e-12)
    assert cost(tree, WeightSpec.SLOPE_PENALTY) == pytest.approx(8.75, rel=1e-12)


def test_mst_never_heavier_than_classical():
    for seed in range(6):
        grid = generate_terrain(
            TerrainGenSpec(rows=20, cols=20, seed=seed, max_obstacles=3, roughness=0.35)
        )
        m = aggregate(grid)
        for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
            g = build_graph(m)
            mst_w = cost(mst(g, spec), spec)
            classical_w = cost(classical_spanning_tree(g), spec)
            assert mst_w <= classical_w + 1e-9 * max(1.0, classical_w)


def test_flat_terrain_all_trees_tie():
    grid = generate_terrain(TerrainGenSpec(rows=12, cols=12, seed=4, max_obstacles=2, roughness=0.0))
    m = aggregate(grid)
    for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
        g = build_graph(m)
        mst_w = cost(mst(g, spec), spec)
        classical_w = cost(classical_spanning_tree(g), spec)
        assert mst_w == pytest.approx(classical_w, rel=1e-12)


def test_tree_weight_is_left_to_right_sum_of_scalar_weights():
    grid = generate_terrain(TerrainGenSpec(rows=40, cols=40, seed=5, max_obstacles=4, roughness=0.45))
    m = aggregate(grid)
    g = build_graph(m)
    for tree in (mst(g, WeightSpec.PYTHAGORAS), classical_spanning_tree(g)):
        for spec in WeightSpec:
            expected = 0.0
            for a, b in g.edges[tree.edges].tolist():
                h1, h2 = m.heights[tuple(g.nodes[a])], m.heights[tuple(g.nodes[b])]
                expected += scalar_weight(spec, float(h1), float(h2), m.spacing)
            assert cost(tree, spec) == expected  # exact: same terms, same order


def assert_old_kruskal(g: CoverageGraph, spec: WeightSpec) -> None:
    assert mst(g, spec).edges.tolist() == stable_weight_kruskal(g, spec).tolist()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=11),
    cols=st.integers(min_value=1, max_value=11),
    levels=st.sampled_from([(0.0,), (0.0, 1.0), (-2.0, 0.0, 0.5, 3.0), (0.0, 1e-9, 2e-9, 3e-9),
                            (1e7, 1e7 + 1.0, 1e7 + 2.0), tuple(np.linspace(-4.0, 4.0, 17)),
                            (-1e308, 0.0, 1e308), (-1e308, -5e307, 0.0, 1.0, 1e308)]),
    spacing=st.sampled_from([0.25, 1.0, 2.0, 7.5]),
)
def test_tied_weights_build_the_stable_weight_kruskal_tree(seed, rows, cols, levels, spacing):
    """Heights from a few levels give many equal rises and weights, and
    levels near ±1e308 price rises to inf, under every spec. A mask split
    into several regions raises with their count."""
    rng = np.random.default_rng(seed)
    blocked = rng.random((rows, cols)) < 0.2
    heights = np.asarray(levels)[rng.integers(len(levels), size=(rows, cols))]
    g = build_graph(mega(heights, blocked, spacing))
    regions = flood_fill_regions(~blocked)
    for spec in WeightSpec:
        if regions == 1:
            assert_old_kruskal(g, spec)
        else:
            with pytest.raises(DisconnectedGridError) as info:
                mst(g, spec)
            assert info.value.components == regions


# 2 x 2 grids whose edges e0..e3 (top, left, right, bottom) rise by r, s, r, s
# with r > s: sorting by rise would give [1, 3, 0, 2] and the tree {0, 1, 3},
# while the equal weights keep index order and build {0, 1, 2}
@pytest.mark.parametrize("heights, spacing, spec", [
    # at d = 2 both rises price to exactly 2.0 under pythagoras
    ([[0.0, 2e-9], [1e-9, 0.0]], 2.0, WeightSpec.PYTHAGORAS),
    # heights near ±1e308: both rises price to inf under penalty
    ([[0.0, 1e308], [-5e307, 0.0]], 1.0, WeightSpec.SLOPE_PENALTY),
    ([[0.0, 4.0], [2.0, 0.0]], 1.0, WeightSpec.UNIT),
])
def test_different_rises_with_equal_weights_keep_index_order(heights, spacing, spec):
    g = build_graph(mega(heights, spacing=spacing))
    assert len(set(g.weights(spec).tolist())) == 1
    assert mst(g, spec).edges.tolist() == [0, 1, 2]
    assert_old_kruskal(g, spec)



def assert_same_forest(n: int, a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> None:
    """spanning_forest builds the boolean-mask forest byte for byte, reading
    read-only copies of its inputs and leaving them unchanged."""
    inputs = [np.array(values) for values in (a, b, weights)]
    for values in inputs:
        values.setflags(write=False)
    got, expected = spanning_forest(n, *inputs), boolean_mask_spanning_forest(n, a, b, weights)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    for values, original in zip(inputs, (a, b, weights)):
        assert values.dtype == original.dtype and values.tobytes() == original.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    loops=st.floats(min_value=0.0, max_value=1.0),
    levels=st.sampled_from([(0.0,), (0.0, 1.0), (1.0, 2.0, 3.0), (-1.0, 0.0, np.inf),
                            tuple(np.linspace(0.0, 1.0, 7)), (0.5, 1e-300, 1e300)]),
    data=st.data(),
)
def test_forest_matches_boolean_mask_boruvka(n, seed, loops, levels, data):
    """Few weight levels tie most edges, a share of the edges are self-loops
    and ends repeat, so regions pick among many equal keys in every round."""
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(min_value=0, max_value=4 * n))
    a = rng.integers(n, size=m)
    b = np.where(rng.random(m) < loops, a, rng.integers(n, size=m))
    assert_same_forest(n, a, b, np.asarray(levels)[rng.integers(len(levels), size=m)])


def test_forest_matches_boolean_mask_boruvka_on_paper_graphs():
    for terrain in BenchConfig(seed=42, terrains=3, rows=64, cols=64).terrain_specs():
        g = build_graph(aggregate(generate_terrain(terrain)))
        a, b = g.edges.T
        for spec in WeightSpec:
            assert_same_forest(len(g.nodes), a, b, g.weights(spec))


def test_nan_weights_raise_instead_of_looping():
    g = build_graph(mega(np.zeros((2, 2))))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^edge weights must not be nan$"):
        minimum_spanning_tree(g, np.full(len(g.edges), np.nan))


@pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
def test_weights_of_another_length_raise(extra):
    g = build_graph(mega(np.zeros((2, 2))))  # 4 edges
    weights = np.ones(len(g.edges) + extra)
    message = f"^{len(weights)} weights for a graph of 4 edges$"
    with pytest.raises(ValueError, match=message):
        minimum_spanning_tree(g, weights)
    with pytest.raises(ValueError, match=message):
        tree_weight(classical_spanning_tree(g), weights)


def assert_same_dfs_tree(blocked: np.ndarray) -> None:
    """classical_spanning_tree builds the tuple-stack tree byte for byte on a
    one-region mask, and both raise with the flood-fill region count on any other."""
    g = build_graph(mega(np.zeros(blocked.shape), blocked))
    regions = flood_fill_regions(~blocked)
    if regions == 1:
        expected, actual = tuple_stack_dfs_tree(g).edges, classical_spanning_tree(g).edges
        assert (actual.dtype, actual.tobytes()) == (expected.dtype, expected.tobytes())
        return
    for build in (tuple_stack_dfs_tree, classical_spanning_tree):
        with pytest.raises(DisconnectedGridError) as info:
            build(g)
        assert info.value.components == regions


def comb(rows: int, cols: int) -> np.ndarray:
    """A free spine along row 0 with a free tooth down every other column."""
    blocked = np.ones((rows, cols), dtype=bool)
    blocked[0, :] = False
    blocked[:, ::2] = False
    return blocked


@pytest.mark.parametrize("blocked", [
    np.ones((1, 1), dtype=bool), np.ones((3, 4), dtype=bool),  # no free cell
    np.array([[True, False, True]]), np.array([[True], [True], [False]]),  # one free cell
    np.zeros((1, 9), dtype=bool), np.zeros((9, 1), dtype=bool),  # strips
    np.array([[True, False], [True, False]]),  # a down edge between nodes 0 and 1
    comb(7, 9), comb(9, 8).T, comb(6, 11)[::-1], comb(5, 5)[:, ::-1],  # teeth on every side
    np.array([[False, True, False], [True, True, False], [False, True, False]]),  # three regions
    np.pad(comb(6, 7), ((1, 0), (1, 0)), constant_values=True),  # first row and column blocked
    np.pad(comb(7, 6).T, ((1, 0), (1, 0)), constant_values=True),
    np.pad(~np.eye(5, dtype=bool), ((1, 0), (1, 0)), constant_values=True),  # five diagonal regions
    np.pad(np.ones((3, 5), dtype=bool), 1),  # a ring on all four sides of the mask
    np.add.outer(*2 * [np.abs(np.arange(-3, 4))]) > 3,  # a diamond touching all four sides
], ids=["1x1-blocked", "3x4-blocked", "one-free-row", "one-free-column", "1x9", "9x1", "right-column",
        "comb-down", "comb-right", "comb-up", "comb-mirrored", "three-regions",
        "comb-first-row-and-column-blocked", "comb-right-first-row-and-column-blocked",
        "diagonal-first-row-and-column-blocked", "ring-on-all-sides", "diamond-on-all-sides"])
def test_dfs_tree_matches_tuple_stack_oracle_on_shapes(blocked):
    assert_same_dfs_tree(blocked)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=14),
    cols=st.integers(min_value=1, max_value=14),
    density=st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.6, 1.0]),
    base=st.sampled_from(["open", "comb", "comb-transposed"]),
)
def test_dfs_tree_matches_tuple_stack_oracle_on_random_masks(seed, rows, cols, density, base):
    """Random blocks over an open grid or a comb, in either orientation;
    many masks split into several regions or have no free cell."""
    blocked = {"open": np.zeros((rows, cols), dtype=bool), "comb": comb(rows, cols),
               "comb-transposed": comb(cols, rows).T}[base]
    assert_same_dfs_tree(blocked | (np.random.default_rng(seed).random((rows, cols)) < density))


def test_dfs_tree_matches_tuple_stack_oracle_on_paper_graphs():
    for seed in (0, 42, 1729):  # bench's default master seed, the paper run's and a holdout
        for spec in BenchConfig(seed=seed).terrain_specs():
            g = build_graph(aggregate(generate_terrain(spec)))
            expected, actual = tuple_stack_dfs_tree(g).edges, classical_spanning_tree(g).edges
            assert (actual.dtype, actual.tobytes()) == (expected.dtype, expected.tobytes())


def test_dfs_tree_matches_tuple_stack_oracle_at_1000():
    """plan-1000's terrain: 1000^2 fine cells, ~250k nodes."""
    spec = TerrainGenSpec(rows=1000, cols=1000, seed=42, max_obstacles=30, roughness=0.3)
    g = build_graph(aggregate(generate_terrain(spec)))
    assert len(g.nodes) > 200_000
    expected, actual = tuple_stack_dfs_tree(g).edges, classical_spanning_tree(g).edges
    assert (actual.dtype, actual.tobytes()) == (expected.dtype, expected.tobytes())


def test_dfs_tree_starts_no_garbage_collection():
    """Nothing per node is tracked by the cyclic collector, so building the
    baseline of a 250^2 paper terrain (~15k nodes) starts no collection, and
    the builder leaves the collector's switch alone."""
    g = build_graph(aggregate(generate_terrain(BenchConfig(seed=42).terrain_specs()[0])))
    assert len(g.nodes) > 10_000
    starts: list[int] = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        classical_spanning_tree(g)
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(count)
        if not enabled:
            gc.disable()
    assert starts == []
