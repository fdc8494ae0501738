from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_min_spanning_weight,
    flood_fill_regions,
    random_connected_mega,
    random_weight_spec,
    scalar_weight,
    stable_weight_kruskal,
)
from slopecover.graph import CoverageGraph, DisconnectedGridError, build_graph
from slopecover.spanning import (
    SpanningTree,
    classical_spanning_tree,
    minimum_spanning_tree,
    tree_weight,
)
from slopecover.terrain import MegaGrid, TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec


def mega(heights, blocked=None, spacing=2.0) -> MegaGrid:
    heights = np.asarray(heights, dtype=float)
    if blocked is None:
        blocked = np.zeros(heights.shape, dtype=bool)
    return MegaGrid(
        rows=heights.shape[0],
        cols=heights.shape[1],
        heights=heights,
        blocked=blocked,
        spacing=spacing,
    )


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



def test_nan_weights_raise_instead_of_looping():
    g = build_graph(mega(np.zeros((2, 2))))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^edge weights must not be nan$"):
        minimum_spanning_tree(g, np.full(len(g.edges), np.nan))
