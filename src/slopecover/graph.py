"""4-connected graph over the free mega cells, priced per weight spec on demand."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slopecover.terrain import MegaGrid, adjacent_pairs, slope_sum
from slopecover.weights import WeightSpec, edge_weights


class DisconnectedGridError(ValueError):
    """Free mega cells do not form exactly one region; one closed tour needs one."""

    def __init__(self, components: int):
        message = (f"free mega cells form {components} disconnected regions (need exactly 1)"
                   if components else "mega grid has no free cells (need exactly 1 free region)")
        super().__init__(message)
        self.components = components


@dataclass(frozen=True, eq=False)
class CoverageGraph:
    """Immutable topology of the free mega cells, stored as arrays.

    nodes is the (n, 2) array of mega (row, col), row-major. edges is the
    (E, 2) array of node pairs (a, b) with a < b, enumerated row-major, right
    then down. incident is (n, 4): the index of each node's up, right, down
    and left edge, or -1. Edge costs depend on a weight spec; weights()
    computes them.
    """

    mega: MegaGrid
    nodes: np.ndarray
    edges: np.ndarray
    incident: np.ndarray

    def weights(self, spec: WeightSpec, edges: np.ndarray) -> np.ndarray:
        """edge_weight under spec of each edge indexed by edges, bit for bit."""
        node_heights = self.mega.heights[~self.mega.blocked]
        a, b = self.edges[edges].T
        return edge_weights(spec, node_heights[a], node_heights[b], self.mega.spacing)


def build_graph(mega: MegaGrid) -> CoverageGraph:
    """One node per free mega cell, one edge per 4-adjacent free pair.

    Edges are enumerated row-major, right then down, so downstream
    tie-breaking is reproducible. There is no connectivity check: any mask,
    even one with no free cell, gives its topology, and the spanning-tree
    builders raise DisconnectedGridError unless the free cells form one region.
    """
    free = ~mega.blocked
    # slot k of cell (r, c) holds its up, right, down or left edge, or -1; the
    # row-major order of the right and down slots is the canonical edge order
    has_edge = np.zeros((mega.rows, mega.cols, 4), dtype=bool)
    has_edge[:, :-1, 1], has_edge[:-1, :, 2] = adjacent_pairs(free)
    incident = np.full(has_edge.shape, -1, dtype=np.int64)
    incident[has_edge] = np.arange(int(has_edge.sum()))
    incident[1:, :, 0] = incident[:-1, :, 2]  # up: the down edge of the cell above
    incident[:, 1:, 3] = incident[:, :-1, 1]  # left: the right edge of the cell to the left
    incident = incident[free]
    # each edge sits at both ends: right or down of its first node, up or left of its second
    node, slot = np.nonzero(incident >= 0)
    edges = np.empty((len(node) // 2, 2), dtype=np.int64)
    edges[incident[node, slot], np.array([1, 0, 0, 1])[slot]] = node
    graph = CoverageGraph(mega=mega, nodes=np.argwhere(free), edges=edges, incident=incident)
    for array in (graph.nodes, graph.edges, graph.incident):
        array.setflags(write=False)
    return graph


def average_slope(mega: MegaGrid) -> float:
    """Mean over adjacent free pairs of |height difference| / horizontal distance.

    Blocked pairs do not count. A grid with no adjacent free pair (a single
    free cell, or only isolated ones) is flat by definition: 0.0.
    """
    total, count = slope_sum(mega.heights, mega.blocked)
    return total / (mega.spacing * count) if count else 0.0
