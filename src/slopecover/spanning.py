"""Spanning trees over the coverage graph: weighted MST and a weight-blind baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slopecover.graph import CoverageGraph
from slopecover.weights import WeightSpec, total_weight


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Acyclic edge subset connecting all nodes, rooted at node 0.

    edges is a sorted int64 array of indices into graph.edges.
    """

    graph: CoverageGraph
    edges: np.ndarray

    def __post_init__(self) -> None:
        self.edges.setflags(write=False)


def minimum_spanning_tree(g: CoverageGraph, spec: WeightSpec) -> SpanningTree:
    """Kruskal with union-find over the edge weights under spec.

    The stable sort over the graph's canonical edge list breaks weight ties
    by edge index, so equal-weight graphs always yield the same tree.
    """
    order = np.argsort(g.weights(spec, np.arange(len(g.edges))), kind="stable")
    # the ends of each edge in sorted order; the weights are freed by now
    a, b = g.edges[order].T.tolist()
    n = len(g.nodes)
    parent = list(range(n))
    chosen: list[int] = []  # positions in order
    for k, (ra, rb) in enumerate(zip(a, b)):
        # find both roots, halving the paths on the way
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra != rb:
            parent[ra] = rb
            chosen.append(k)
            if len(chosen) == n - 1:
                break
    return SpanningTree(graph=g, edges=np.sort(order[chosen]))


def classical_spanning_tree(g: CoverageGraph) -> SpanningTree:
    """Weight-blind spanning tree: depth-first from the root, neighbours tried
    up, right, down, left. Deterministic representative of the unit-weight
    approach, where any spanning tree is minimal."""
    # pushed reversed so pops explore up, right, down, left
    incident = g.incident[:, ::-1].tolist()
    ends = g.edges.sum(axis=1).tolist()  # a + b: the far end of edge e from u is ends[e] - u
    visited = [False] * len(g.nodes)
    chosen: list[int] = []
    stack: list[tuple[int, int]] = [(0, -1)]
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
    return SpanningTree(graph=g, edges=np.array(sorted(chosen), dtype=np.int64))


def tree_weight(tree: SpanningTree, spec: WeightSpec) -> float:
    """Total edge cost under spec, summed in canonical edge order.

    spec may differ from the spec the tree was built with; the baseline tree
    is built weight-blind but costed with slope-aware weights. Raises
    ValueError when the total is not finite.
    """
    return total_weight(tree.graph.weights(spec, tree.edges), "tree_weight")
