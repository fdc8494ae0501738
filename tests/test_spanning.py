from __future__ import annotations

import numpy as np
import pytest

from oracles import brute_force_min_spanning_weight, random_connected_mega, random_weight_spec
from slopecover.graph import build_graph
from slopecover.spanning import classical_spanning_tree, minimum_spanning_tree, tree_weight
from slopecover.terrain import MegaGrid, TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec, edge_weight


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


@pytest.mark.parametrize("build", [minimum_spanning_tree, classical_spanning_tree])
def test_single_node_tree_is_empty(build):
    g = build_graph(mega([[5.0]]))
    tree = build(g, WeightSpec.PYTHAGORAS) if build is minimum_spanning_tree else build(g)
    assert tree.edges.tolist() == []
    assert tree.edges.dtype == np.int64
    assert g.nodes.tolist() == [[0, 0]]  # the root, node 0


def test_flat_square_ties_break_canonically():
    g = build_graph(mega(np.zeros((2, 2)), spacing=3.0))
    tree = minimum_spanning_tree(g, WeightSpec.PYTHAGORAS)
    # all four edges weigh d; the lexicographically first acyclic triple wins
    assert tree.edges.tolist() == [0, 1, 2]
    assert tree_weight(tree, WeightSpec.PYTHAGORAS) == pytest.approx(9.0, rel=1e-12)


def test_path_graph_has_unique_spanning_tree():
    g = build_graph(mega([[0.0, 1.0, 3.0]]))
    every_edge = list(range(len(g.edges)))
    assert minimum_spanning_tree(g, WeightSpec.PYTHAGORAS).edges.tolist() == every_edge
    assert classical_spanning_tree(g).edges.tolist() == every_edge


def test_mst_matches_brute_force_on_small_grids():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        m = random_connected_mega(rng, max_nodes=8)
        spec = random_weight_spec(rng)
        g = build_graph(m)
        expected = brute_force_min_spanning_weight(g, spec)
        actual = tree_weight(minimum_spanning_tree(g, spec), spec)
        assert actual == pytest.approx(expected, rel=1e-9)


def test_cut_property_on_generated_terrain():
    grid = generate_terrain(TerrainGenSpec(rows=16, cols=16, seed=11, max_obstacles=2, roughness=0.4))
    g = build_graph(aggregate(grid))
    tree = minimum_spanning_tree(g, WeightSpec.PYTHAGORAS)
    n = len(g.nodes)
    ends = g.edges.tolist()
    weight = g.weights(WeightSpec.PYTHAGORAS, np.arange(len(ends))).tolist()
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
    assert np.array_equal(minimum_spanning_tree(g, spec).edges, minimum_spanning_tree(g, spec).edges)
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
    tree = minimum_spanning_tree(g, WeightSpec.PYTHAGORAS)
    assert tree_weight(tree, WeightSpec.PYTHAGORAS) == 2.0
    assert tree_weight(tree, WeightSpec.UNIT) == 1.0  # node count - 1

    single = minimum_spanning_tree(build_graph(mega([[1.0]])), WeightSpec.UNIT)
    assert tree_weight(single, WeightSpec.SLOPE_PENALTY) == 0.0


def test_tree_weight_reevaluates_under_other_spec():
    m = mega([[0.0, 3.0]], spacing=4.0)
    tree = minimum_spanning_tree(build_graph(m), WeightSpec.UNIT)
    assert tree_weight(tree, WeightSpec.UNIT) == 1.0
    assert tree_weight(tree, WeightSpec.PYTHAGORAS) == pytest.approx(5.0, rel=1e-12)
    assert tree_weight(tree, WeightSpec.SLOPE_PENALTY) == pytest.approx(8.75, rel=1e-12)


def test_mst_never_heavier_than_classical():
    for seed in range(6):
        grid = generate_terrain(
            TerrainGenSpec(rows=20, cols=20, seed=seed, max_obstacles=3, roughness=0.35)
        )
        m = aggregate(grid)
        for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
            g = build_graph(m)
            mst_w = tree_weight(minimum_spanning_tree(g, spec), spec)
            classical_w = tree_weight(classical_spanning_tree(g), spec)
            assert mst_w <= classical_w + 1e-9 * max(1.0, classical_w)


def test_flat_terrain_all_trees_tie():
    grid = generate_terrain(TerrainGenSpec(rows=12, cols=12, seed=4, max_obstacles=2, roughness=0.0))
    m = aggregate(grid)
    for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
        g = build_graph(m)
        mst_w = tree_weight(minimum_spanning_tree(g, spec), spec)
        classical_w = tree_weight(classical_spanning_tree(g), spec)
        assert mst_w == pytest.approx(classical_w, rel=1e-12)


def test_tree_weight_is_left_to_right_sum_of_scalar_weights():
    grid = generate_terrain(TerrainGenSpec(rows=40, cols=40, seed=5, max_obstacles=4, roughness=0.45))
    m = aggregate(grid)
    g = build_graph(m)
    for tree in (minimum_spanning_tree(g, WeightSpec.PYTHAGORAS), classical_spanning_tree(g)):
        for spec in WeightSpec:
            expected = 0.0
            for a, b in g.edges[tree.edges].tolist():
                h1, h2 = m.heights[tuple(g.nodes[a])], m.heights[tuple(g.nodes[b])]
                expected += edge_weight(spec, float(h1), float(h2), m.spacing)
            assert tree_weight(tree, spec) == expected  # exact: same terms, same order
