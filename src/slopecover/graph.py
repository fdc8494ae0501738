"""The 4-connected graph over the free mega cells, priced per weight spec on
demand, and its spanning trees: the weighted MST and a weight-blind baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from slopecover.weights import WeightSpec, spec_weights, total_weight

if TYPE_CHECKING:
    from slopecover.terrain import MegaGrid


def frozen(values: object, dtype: type) -> np.ndarray:
    """values as a read-only dtype array: one that is that already and owns
    its memory is kept, and anything else is copied."""
    array = np.asarray(values)
    array = array.astype(dtype, copy=array.flags.writeable or not array.flags.owndata)
    array.setflags(write=False)
    return array


class DisconnectedGridError(ValueError):
    """Free mega cells do not form exactly one region; one closed tour needs one."""

    def __init__(self, components: int):
        message = (f"free mega cells form {components} disconnected regions (need exactly 1)"
                   if components else "mega grid has no free cells (need exactly 1 free region)")
        super().__init__(message)
        self.components = components


@dataclass(frozen=True, eq=False)
class CoverageGraph:
    """Immutable topology of mega's free cells, derived from its blocked mask:
    one node per free mega cell, one edge per 4-adjacent free pair.

    nodes is the read-only (n, 2) int64 array of mega (row, col), in row-major
    order. edges is the read-only (E, 2) int64 array of node pairs (a, b),
    a < b, in the canonical order of _pair_mask: row-major, right then down,
    so tie-breaking downstream is reproducible. Any mask, even one with no
    free cell, gives its topology: the spanning-tree builders raise
    DisconnectedGridError unless the free cells form one region. Edge costs
    depend on a weight spec: see weights().
    """

    mega: MegaGrid
    nodes: np.ndarray = field(init=False)
    edges: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        free = ~self.mega.blocked
        node = np.cumsum(free) - 1
        cell, down = np.divmod(np.flatnonzero(_pair_mask(free)), 2)
        edges = np.stack([node[cell], node[cell + np.where(down, free.shape[1], 1)]], axis=1)
        for name, array in (("nodes", np.column_stack(np.nonzero(free))), ("edges", edges)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def weights(self, spec: WeightSpec) -> np.ndarray:
        """edge_weights under spec of every edge, in canonical order."""
        return self.spec_weights((spec,))[0]

    def spec_weights(self, specs: Sequence[WeightSpec]) -> list[np.ndarray]:
        """weights(spec) of each spec, with the distances computed once for all."""
        node_heights = self.mega.heights[~self.mega.blocked]
        a, b = self.edges.T
        return spec_weights(specs, node_heights[a], node_heights[b], self.mega.spacing)


def adjacent_pairs(free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 4-adjacent free pairs of a mask: (rows, cols - 1) True where a cell
    and its right neighbour are free, (rows - 1, cols) where it and the cell below are."""
    return free[:, :-1] & free[:, 1:], free[:-1, :] & free[1:, :]


def _pair_mask(free: np.ndarray) -> np.ndarray:
    """(rows, cols, 2) True where a free cell's right (0) or down (1) neighbour
    is free. Its row-major True positions are the canonical edge order."""
    pairs = np.zeros((*free.shape, 2), dtype=bool)
    pairs[:, :-1, 0], pairs[:-1, :, 1] = adjacent_pairs(free)
    return pairs


def build_graph(mega: MegaGrid) -> CoverageGraph:
    """The coverage graph of mega's free cells: CoverageGraph(mega=mega)."""
    return CoverageGraph(mega=mega)


def spanning_forest(n: int, a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Ascending indices k of the minimum spanning forest of the n nodes and
    edges (a[k], b[k]) under the distinct keys (weights[k], k): the forest
    stable Kruskal builds. n minus its length is the region count. Weights
    must not be nan.

    Borůvka rounds: each region takes its least-key edge and hooks to the
    region at its far end (a mutual pair's lower id is the root); pointer
    jumping finds the roots and cumsum relabels them. flatnonzero and take
    compact the live edges and tied picks: faster than boolean masks here.
    """
    chosen = np.zeros(len(a), dtype=bool)
    # edges ascending, their ends' regions and weights, the region count; round 1 reads the caller's arrays
    edge, ra, rb, w, regions = np.arange(len(a)), a, b, weights, n
    while True:
        live = np.flatnonzero(ra != rb)  # an edge inside one region never joins, nor does a self-loop
        if not len(live):
            return np.flatnonzero(chosen)
        if len(live) < len(edge):
            edge, ra, rb, w = edge.take(live), ra.take(live), rb.take(live), w.take(live)
        least = np.full(regions, np.inf)
        np.minimum.at(least, ra, w)
        np.minimum.at(least, rb, w)
        pick = np.full(regions, len(edge))  # lowest live position at that weight; ascending, so lowest k
        for end in (ra, rb):
            tied = np.flatnonzero(w == least[end])
            np.minimum.at(pick, end.take(tied), tied)
        region = np.flatnonzero(pick < len(edge))
        if not len(region):
            raise ValueError("edge weights must not be nan")
        j = pick[region]
        chosen[edge[j]] = True
        ids = np.arange(regions)
        parent = ids.copy()
        parent[region] = ra[j] + rb[j] - region  # the far end's region
        parent = np.where((parent[parent] == ids) & (ids < parent), ids, parent)  # mutual pairs
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
        root = parent == ids
        label = (np.cumsum(root) - 1)[parent]
        regions = int(root.sum())
        ra, rb = label[ra], label[rb]


def region_count(blocked: np.ndarray) -> int:
    """Number of 4-connected regions of a mega blocked mask's free cells; 0 when none is.

    Each run of free cells in a row, joined by its 4-adjacent free pairs, is one
    node. One edge joins each vertically adjacent pair of runs that differs from
    the pair to its left, and the spanning forest counts the regions.
    """
    free = ~blocked
    right, down = adjacent_pairs(free)
    starts = free.copy()
    starts[:, 1:] &= ~right
    run = np.cumsum(starts).reshape(free.shape) - 1
    down[:, 1:] &= ~down[:, :-1]  # a pair to the left joins the same two runs
    n = np.count_nonzero(starts)
    return n - len(spanning_forest(n, run[:-1][down], run[1:][down], np.zeros(np.count_nonzero(down))))


def slope_sum(heights: np.ndarray, blocked: np.ndarray) -> tuple[float, int]:
    """Sum of |height difference| over 4-adjacent free pairs, and the pair count."""
    horizontal, vertical = adjacent_pairs(~blocked)
    count = int(horizontal.sum()) + int(vertical.sum())
    total = float(np.abs(heights[:, 1:] - heights[:, :-1])[horizontal].sum())
    total += float(np.abs(heights[1:, :] - heights[:-1, :])[vertical].sum())
    return total, count


def average_slope(mega: MegaGrid) -> float:
    """Mean over adjacent free pairs of |height difference| / horizontal distance.

    Blocked pairs do not count. A grid with no adjacent free pair (a single
    free cell, or only isolated ones) is flat by definition: 0.0.
    """
    total, count = slope_sum(mega.heights, mega.blocked)
    return total / (mega.spacing * count) if count else 0.0


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Acyclic edge subset connecting all nodes, rooted at node 0.

    edges is a sorted read-only int64 array of indices into graph.edges.
    """

    graph: CoverageGraph
    edges: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozen(self.edges, np.int64))


def minimum_spanning_tree(g: CoverageGraph, weights: np.ndarray) -> SpanningTree:
    """The minimum spanning tree under weights, one per edge (graph.weights of
    some spec), ties broken by edge index: the tree stable Kruskal builds.
    Raises DisconnectedGridError unless the free cells form exactly one region."""
    if len(weights) != len(g.edges):
        raise ValueError(f"{len(weights)} weights for a graph of {len(g.edges)} edges")
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
    rows, cols = g.mega.blocked.shape
    width = cols + 2
    frame = np.ones((rows + 2, width), dtype=bool)  # the blocked mask in a blocked frame
    frame[1:-1, 1:-1] = g.mega.blocked
    cells = np.flatnonzero(~frame)  # node k is the frame cell cells[k]
    n = len(cells)
    # A node is its flat frame index, its neighbours u - width, u + 1, u + width
    # and u - 1. The search steps to the first unvisited one at once and pushes
    # only the lower-priority ones it passed over, so each pop takes the latest
    # push, as when every neighbour was pushed. The stack holds bare ints, so
    # the loop allocates nothing the cyclic collector tracks.
    visited = frame.ravel().tolist()
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    try:
        u = int(cells[0])  # the root, node 0
        visited[u] = True
        order = [u]
        visit = order.append
        for _ in repeat(None, n - 1):
            if not visited[u - width]:
                push(u - 1)
                push(u + width)
                push(u + 1)
                u -= width
            elif not visited[u + 1]:
                push(u - 1)
                push(u + width)
                u += 1
            elif not visited[u + width]:
                push(u - 1)
                u += width
            elif not visited[u - 1]:
                u -= 1
            else:
                u = pop()
                while visited[u]:
                    u = pop()
            visited[u] = True
            visit(u)
    except IndexError:  # no free cell, or the stack ran dry before the search met every region
        raise DisconnectedGridError(region_count(g.mega.blocked)) from None
    stack.clear()  # the pushes never popped: free them before the arrays below
    # A node is first reached from its neighbour visited last before it: that
    # neighbour's edge is its tree edge. Neighbour ranks come from four shifted
    # views; blocked and frame cells rank -1, below every node.
    rank = np.full(frame.shape, -1)
    rank.ravel()[order] = np.arange(n)
    del order, visit, visited  # freed before the arrays below: n and (rows + 2)(cols + 2) list slots
    free = ~g.mega.blocked
    earlier = np.stack([rank[:-2, 1:-1][free], rank[1:-1, 2:][free],
                        rank[2:, 1:-1][free], rank[1:-1, :-2][free]], axis=1)
    earlier[earlier > rank[1:-1, 1:-1][free][:, None]] = -1
    via = earlier[1:].argmax(axis=1)  # node 0, the root, has no tree edge
    del earlier, rank  # freed before the tree's index arrays
    # each tree edge is the right or down pair of its upper or left end
    r, c = g.nodes[1:].T
    tree = np.zeros((*free.shape, 2), dtype=bool)
    tree[r - (via == 0), c - (via == 3), 1 - via % 2] = True
    return SpanningTree(graph=g, edges=np.flatnonzero(tree[_pair_mask(free)]))


def tree_weight(tree: SpanningTree, weights: np.ndarray) -> float:
    """Total of the tree's edges in weights (graph.weights of some spec),
    summed in canonical edge order.

    The weights need not be the ones the tree was built with; the baseline
    tree is built weight-blind but costed with slope-aware weights. Raises
    ValueError when the total is not finite or there is not one weight per edge.
    """
    if len(weights) != len(tree.graph.edges):
        raise ValueError(f"{len(weights)} weights for a graph of {len(tree.graph.edges)} edges")
    return total_weight(weights[tree.edges], "tree_weight")
