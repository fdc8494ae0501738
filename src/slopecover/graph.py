"""4-connected weighted graph over the free mega cells."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slopecover.terrain import MegaGrid, component_count, slope_sum
from slopecover.weights import WeightSpec, edge_weights


class DisconnectedGridError(ValueError):
    """Free mega cells split into several regions; one closed tour cannot cover them."""

    def __init__(self, components: int, detail: str = ""):
        message = f"free mega cells form {components} disconnected regions (need exactly 1)"
        if detail:
            message = f"{detail}: {message}"
        super().__init__(message)
        self.components = components


@dataclass(frozen=True, eq=False)
class CoverageGraph:
    """Immutable graph over free mega cells, stored as arrays.

    node_index is the (R, C) grid of node indices, -1 where blocked; nodes is
    the (n, 2) array of mega (row, col), row-major. edges is the (E, 2) array
    of node pairs (a, b) with a < b, enumerated row-major, right then down,
    and weight holds their (E,) costs under spec. edge_at is (R, C, 2): the
    index of each cell's right and down edge, or -1.
    """

    mega: MegaGrid
    spec: WeightSpec
    node_index: np.ndarray
    nodes: np.ndarray
    edges: np.ndarray
    weight: np.ndarray
    edge_at: np.ndarray

    def incident_edges(self) -> np.ndarray:
        """(n, 4) index of each node's up, right, down and left edge, or -1."""
        at = self.edge_at
        up = np.full(at.shape[:2], -1, dtype=np.int64)
        up[1:] = at[:-1, :, 1]
        left = np.full(at.shape[:2], -1, dtype=np.int64)
        left[:, 1:] = at[:, :-1, 0]
        return np.stack((up, at[..., 0], at[..., 1], left), axis=-1)[self.node_index >= 0]


def build_graph(mega: MegaGrid, spec: WeightSpec) -> CoverageGraph:
    """One node per free mega cell, one weighted edge per 4-adjacent free pair.

    Edges are enumerated row-major, right then down, so downstream
    tie-breaking is reproducible. Raises DisconnectedGridError when the free
    cells do not form a single region.
    """
    free = ~mega.blocked
    if not free.any():
        raise ValueError("mega grid has no free cells")
    components = component_count(free)
    if components != 1:
        raise DisconnectedGridError(components)
    node_index = np.full(free.shape, -1, dtype=np.int64)
    node_index[free] = np.arange(int(free.sum()))
    # has_edge[r, c, k]: cell (r, c) has a right (k = 0) or down (k = 1) edge;
    # its row-major flat order is the canonical edge order
    has_edge = np.zeros((mega.rows, mega.cols, 2), dtype=bool)
    has_edge[:, :-1, 0] = free[:, :-1] & free[:, 1:]
    has_edge[:-1, :, 1] = free[:-1, :] & free[1:, :]
    flat = np.flatnonzero(has_edge)
    edge_at = np.full(has_edge.shape, -1, dtype=np.int64)
    edge_at.flat[flat] = np.arange(len(flat))
    cell, down = np.divmod(flat, 2)
    row, col = np.divmod(cell, mega.cols)
    edges = np.stack((node_index[row, col], node_index[row + down, col + 1 - down]), axis=1)
    graph = CoverageGraph(
        mega=mega,
        spec=spec,
        node_index=node_index,
        nodes=np.argwhere(free),
        edges=edges,
        weight=_edge_weights(mega, spec, edges),
        edge_at=edge_at,
    )
    for array in (graph.node_index, graph.nodes, graph.edges, graph.weight, graph.edge_at):
        array.setflags(write=False)
    return graph


def _edge_weights(mega: MegaGrid, spec: WeightSpec, edges: np.ndarray) -> np.ndarray:
    """edge_weight of each (a, b) node pair, bit for bit."""
    node_heights = mega.heights[~mega.blocked]
    return edge_weights(spec, node_heights[edges[:, 0]], node_heights[edges[:, 1]], mega.spacing)


def average_slope(mega: MegaGrid) -> float:
    """Mean over adjacent free pairs of |height difference| / horizontal distance.

    Blocked pairs do not count. Raises ValueError when no adjacent free pair
    exists (fewer than two free cells, or all free cells isolated).
    """
    total, count = slope_sum(mega.heights, mega.blocked)
    if count == 0:
        raise ValueError("average slope undefined: free mega cells form no adjacent pair")
    return total / (mega.spacing * count)
