"""Spanning trees over the coverage graph: weighted MST and a weight-blind baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slopecover.graph import CoverageGraph, DisconnectedGridError
from slopecover.terrain import component_count, spanning_forest
from slopecover.weights import total_weight


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Acyclic edge subset connecting all nodes, rooted at node 0.

    edges is a sorted int64 array of indices into graph.edges.
    """

    graph: CoverageGraph
    edges: np.ndarray

    def __post_init__(self) -> None:
        self.edges.setflags(write=False)


def minimum_spanning_tree(g: CoverageGraph, weights: np.ndarray) -> SpanningTree:
    """The minimum spanning tree under weights (graph.weights of some spec),
    ties broken by edge index: the tree stable Kruskal builds. Raises
    DisconnectedGridError unless the free cells form exactly one region."""
    n = len(g.nodes)
    edges = spanning_forest(n, g.edges[:, 0], g.edges[:, 1], weights)
    if len(edges) != n - 1:  # each forest edge merged two regions
        raise DisconnectedGridError(n - len(edges))
    return SpanningTree(graph=g, edges=edges)


def classical_spanning_tree(g: CoverageGraph) -> SpanningTree:
    """Weight-blind spanning tree: depth-first from the root, neighbours tried
    up, right, down, left. Deterministic representative of the unit-weight
    approach, where any spanning tree is minimal. Raises DisconnectedGridError
    unless the free cells form exactly one region."""
    # pushed reversed so pops explore up, right, down, left
    incident = g.incident[:, ::-1].tolist()
    ends = g.edges.sum(axis=1).tolist()  # a + b: the far end of edge e from u is ends[e] - u
    n = len(g.nodes)
    visited = [False] * n
    chosen: list[int] = []
    stack: list[tuple[int, int]] = [(0, -1)] if n else []
    while stack:
        u, via = stack.pop()
        if visited[u]:
            continue
        visited[u] = True
        if via >= 0:
            chosen.append(via)
        for e in incident[u]:
            if e >= 0 and not visited[ends[e] - u]:
                stack.append((ends[e] - u, e))
    if len(chosen) != n - 1:  # the search missed a region; count them only now
        raise DisconnectedGridError(component_count(~g.mega.blocked))
    return SpanningTree(graph=g, edges=np.array(sorted(chosen), dtype=np.int64))


def tree_weight(tree: SpanningTree, weights: np.ndarray) -> float:
    """Total of the tree's edges in weights (graph.weights of some spec),
    summed in canonical edge order.

    The weights need not be the ones the tree was built with; the baseline
    tree is built weight-blind but costed with slope-aware weights. Raises
    ValueError when the total is not finite.
    """
    return total_weight(weights[tree.edges], "tree_weight")
