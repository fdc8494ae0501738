from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_edges, flood_fill_regions, mega, scalar_weight
from slopecover import graph as graph_mod
from slopecover.graph import (
    CoverageGraph,
    DisconnectedGridError,
    average_slope,
    build_graph,
    classical_spanning_tree,
    minimum_spanning_tree,
)
from slopecover.weights import WeightSpec


def test_two_free_cells_single_edge():
    g = build_graph(mega([[0.0, 0.0]], spacing=2.0))
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.weights(WeightSpec.PYTHAGORAS).tolist() == [2.0]


def test_flat_2x2_has_four_edges_no_diagonals():
    g = build_graph(mega([[1.0, 1.0], [1.0, 1.0]]))
    assert len(g.nodes) == 4
    assert len(g.edges) == 4
    assert all(a != b for a, b in g.edges.tolist())
    for a, b in g.edges.tolist():
        (ra, ca), (rb, cb) = g.nodes[a], g.nodes[b]
        assert abs(ra - rb) + abs(ca - cb) == 1


def test_2x2_with_one_blocked_cell():
    blocked = np.array([[False, False], [False, True]])
    g = build_graph(mega([[0.0, 1.0], [2.0, 3.0]], blocked))
    # free cells (0,0), (0,1), (1,0); adjacency enumerated by hand:
    # (0,0)-(0,1) and (0,0)-(1,0)
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    pairs = {(*g.nodes[a].tolist(), *g.nodes[b].tolist()) for a, b in g.edges.tolist()}
    assert pairs == {(0, 0, 0, 1), (0, 0, 1, 0)}


def test_unit_spec_gives_unit_weights():
    heights = np.arange(12, dtype=float).reshape(3, 4) * 3.7
    g = build_graph(mega(heights))
    assert all(w == 1.0 for w in g.weights(WeightSpec.UNIT).tolist())


def test_edges_enumerated_row_major_right_then_down():
    g = build_graph(mega([[0.0, 0.0], [0.0, 0.0]]))
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]


@settings(max_examples=40)
@given(rows=st.integers(min_value=1, max_value=6), cols=st.integers(min_value=1, max_value=6))
def test_edge_count_identity_without_obstacles(rows, cols):
    g = build_graph(mega(np.zeros((rows, cols))))
    assert len(g.edges) == rows * (cols - 1) + cols * (rows - 1)
    assert len(g.edges) <= 2 * rows * cols


def test_degree_bound():
    rng = np.random.default_rng(17)
    g = build_graph(mega(rng.normal(0, 1, (6, 7))))
    degrees = [0] * len(g.nodes)
    for a, b in g.edges.tolist():
        degrees[a] += 1
        degrees[b] += 1
    assert max(degrees) <= 4


def test_weights_match_edge_weight_of_spec():
    rng = np.random.default_rng(3)
    m = mega(rng.normal(0, 2, (3, 3)), spacing=1.5)
    g = build_graph(m)
    weights = g.weights(WeightSpec.SLOPE_PENALTY)
    for (a, b), weight in zip(g.edges.tolist(), weights.tolist()):
        h1 = m.heights[tuple(g.nodes[a])]
        h2 = m.heights[tuple(g.nodes[b])]
        expected = np.hypot(1.5, h1 - h2) * (1 + abs(h1 - h2) / 1.5)
        assert weight == pytest.approx(expected, rel=1e-12)


def assert_builders_reject(g: CoverageGraph, components: int, match: str) -> None:
    """Both spanning-tree builders raise DisconnectedGridError with this region count."""
    for build in (lambda: minimum_spanning_tree(g, g.weights(WeightSpec.UNIT)),
                  lambda: classical_spanning_tree(g)):
        with pytest.raises(DisconnectedGridError, match=match) as info:
            build()
        assert info.value.components == components


def test_disconnected_free_cells_raise_with_component_count():
    # build_graph gives the topology of any mask; the tree builders find the regions
    g = build_graph(mega([[0.0, 0.0, 0.0]], np.array([[False, True, False]])))
    assert g.nodes.tolist() == [[0, 0], [0, 2]]
    assert g.edges.shape == (0, 2)
    assert_builders_reject(g, 2, "^free mega cells form 2 disconnected regions \\(need exactly 1\\)$")


def test_no_free_cells_rejected():
    g = build_graph(mega(np.zeros((2, 2)), np.ones((2, 2), dtype=bool)))
    assert (g.nodes.shape, g.edges.shape) == ((0, 2), (0, 2))
    assert_builders_reject(g, 0, "^mega grid has no free cells \\(need exactly 1 free region\\)$")


def test_node_lookup():
    blocked = np.array([[False, True], [False, False]])
    g = build_graph(mega(np.zeros((2, 2)), blocked))
    assert g.nodes.tolist() == [[0, 0], [1, 0], [1, 1]]  # (0, 1) is blocked: no node
    # edges (0, 1) down from (0, 0) and (1, 2) right from (1, 0)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_graph_is_topology_only():
    assert [f.name for f in fields(CoverageGraph)] == ["mega", "nodes", "edges"]
    m = mega(np.arange(4.0).reshape(2, 2))
    g = build_graph(m)
    # one graph serves every spec
    for spec in WeightSpec:
        expected = [scalar_weight(spec, float(m.heights.flat[a]), float(m.heights.flat[b]), 2.0)
                    for a, b in g.edges.tolist()]
        assert g.weights(spec).tolist() == expected
    # and prices them all at once, each as weights(spec) does
    together = g.spec_weights(list(WeightSpec))
    assert [w.tobytes() for w in together] == [g.weights(spec).tobytes() for spec in WeightSpec]


def test_arrays_read_only():
    g = build_graph(mega(np.zeros((2, 2))))
    for array in (g.nodes, g.edges):
        with pytest.raises(ValueError):
            array[0] = 1


@settings(max_examples=200)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    density=st.floats(min_value=0.0, max_value=1.0),
    spec=st.sampled_from(list(WeightSpec)),
)
def test_arrays_match_independent_enumeration(seed, rows, cols, density, spec):
    # density 0 and 1 give the empty and full masks, rows or cols 1 the single lines
    rng = np.random.default_rng(seed)
    blocked = rng.random((rows, cols)) < density
    m = mega(rng.normal(0.0, 3.0, (rows, cols)), blocked, spacing=float(rng.uniform(0.5, 3.0)))
    g = build_graph(m)
    cells, pairs = enumerate_edges(m)
    assert g.nodes.tolist() == [list(cell) for cell in cells]
    assert g.edges.tolist() == [list(pair) for pair in pairs]
    weights = g.weights(spec).tolist()
    for i, (a, b) in enumerate(pairs):
        (ra, ca), (rb, cb) = cells[a], cells[b]
        h1, h2 = float(m.heights[ra, ca]), float(m.heights[rb, cb])
        assert weights[i] == scalar_weight(spec, h1, h2, m.spacing)  # exact, not approx
    regions = flood_fill_regions(~blocked)
    if regions != 1:  # disconnected or empty: neither builder gives a tree
        assert_builders_reject(g, regions, "disconnected" if regions else "no free cells")


class TestAverageSlope:
    def test_flat_grid_zero(self):
        assert average_slope(mega(np.full((3, 4), 9.0))) == 0.0

    def test_single_horizontal_pair(self):
        # single edge: |0 - 1| / 2
        assert average_slope(mega([[0.0, 1.0]], spacing=2.0)) == 0.5

    def test_single_vertical_pair(self):
        assert average_slope(mega([[3.0], [0.0]], spacing=4.0)) == 0.75

    def test_blocked_pairs_excluded(self):
        blocked = np.array([[False, True, False]])
        heights = np.array([[0.0, 100.0, 0.0]])
        # no free adjacent pair remains: flat by definition
        assert average_slope(mega(heights, blocked)) == 0.0

    def test_single_free_cell_is_flat(self):
        assert average_slope(mega([[1.0]])) == 0.0

    @settings(max_examples=40)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        offset=st.floats(min_value=-1e4, max_value=1e4),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_shift_invariant_and_scale_linear(self, seed, offset, scale):
        rng = np.random.default_rng(seed)
        heights = rng.normal(0, 5, (3, 4))
        base = average_slope(mega(heights))
        shifted = average_slope(mega(heights + offset))
        scaled = average_slope(mega(heights * scale))
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
        assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)


def test_graph_imports_only_weights_at_runtime():
    # terrain imports graph, so graph may name MegaGrid only for annotations
    def runtime_imports(nodes):
        for node in nodes:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                yield from runtime_imports(node.orelse)
                continue
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.module or ""
            yield from runtime_imports(ast.iter_child_nodes(node))

    tree = ast.parse(Path(graph_mod.__file__).read_text(encoding="utf-8"))
    imported = {name for name in runtime_imports(tree.body) if name.split(".")[0] == "slopecover"}
    assert imported == {"slopecover.weights"}
