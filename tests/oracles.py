"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch (plain loops, explicit
enumeration) so it cannot share a bug with the code under test.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque

import numpy as np

from slopecover.coverage import CoveragePath
from slopecover.graph import CoverageGraph
from slopecover.spanning import SpanningTree
from slopecover.terrain import HeightGrid, MegaGrid
from slopecover.weights import WeightSpec, edge_weight


def flood_fill_regions(mask: np.ndarray) -> int:
    """Count 4-connected regions of True cells by explicit BFS."""
    rows, cols = mask.shape
    seen = [[False] * cols for _ in range(rows)]
    regions = 0
    for r0 in range(rows):
        for c0 in range(cols):
            if not mask[r0, c0] or seen[r0][c0]:
                continue
            regions += 1
            seen[r0][c0] = True
            queue = deque([(r0, c0)])
            while queue:
                r, c = queue.popleft()
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= nr < rows and 0 <= nc < cols and mask[nr, nc] and not seen[nr][nc]:
                        seen[nr][nc] = True
                        queue.append((nr, nc))
    return regions


def brute_force_min_spanning_weight(graph: CoverageGraph, spec: WeightSpec) -> float:
    """Minimum spanning-tree weight under spec by enumerating every (n-1)-edge
    subset, each edge priced by the scalar edge_weight."""
    n = len(graph.nodes)
    if n == 1:
        return 0.0
    mega = graph.mega
    heights = [float(mega.heights[r, c]) for r, c in graph.nodes.tolist()]
    cost = [edge_weight(spec, heights[a], heights[b], mega.spacing) for a, b in graph.edges.tolist()]
    best = None
    for combo in itertools.combinations(range(len(graph.edges)), n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        joined = 0
        acyclic = True
        for i in combo:
            a, b = graph.edges[i]
            ra, rb = find(int(a)), find(int(b))
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
            joined += 1
        if acyclic and joined == n - 1:
            weight = sum(cost[i] for i in combo)
            if best is None or weight < best:
                best = weight
    assert best is not None, "graph passed to the oracle must be connected"
    return best


def enumerate_edges(mega: MegaGrid) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Free mega cells in row-major order, and the 4-adjacent pairs of their
    indices, visiting each cell's right then down neighbour."""
    cells = [
        (r, c) for r in range(mega.rows) for c in range(mega.cols) if not mega.blocked[r, c]
    ]
    index = {cell: i for i, cell in enumerate(cells)}
    pairs = []
    for i, (r, c) in enumerate(cells):
        for neighbour in ((r, c + 1), (r + 1, c)):
            if neighbour in index:
                pairs.append((i, index[neighbour]))
    return cells, pairs


def random_connected_mega(
    rng: np.random.Generator, max_nodes: int = 8
) -> MegaGrid:
    """Random small mega grid whose free cells form one 4-connected region."""
    while True:
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        blocked = rng.random((rows, cols)) < 0.25
        free = ~blocked
        if not free.any() or int(free.sum()) > max_nodes:
            continue
        if flood_fill_regions(free) != 1:
            continue
        heights = rng.normal(0.0, 2.0, (rows, cols))
        return MegaGrid(
            rows=rows,
            cols=cols,
            heights=heights,
            blocked=blocked,
            spacing=float(rng.uniform(0.5, 3.0)),
        )


def random_weight_spec(rng: np.random.Generator) -> WeightSpec:
    specs = list(WeightSpec)
    return specs[int(rng.integers(len(specs)))]


def coverage_violations(path: CoveragePath, grid: HeightGrid) -> list[str]:
    """Check a path against a terrain the slow, explicit way.

    Returns a list of violated invariants (empty means the path is a valid
    full-coverage cycle): closure, stepwise 4-adjacency, obstacle safety,
    every free-mega fine cell visited exactly once, length identity.
    """
    problems: list[str] = []
    half_rows, half_cols = grid.rows // 2, grid.cols // 2
    blocked = [[False] * half_cols for _ in range(half_rows)]
    for mr in range(half_rows):
        for mc in range(half_cols):
            for dr in (0, 1):
                for dc in (0, 1):
                    if grid.obstacle[2 * mr + dr, 2 * mc + dc]:
                        blocked[mr][mc] = True
    expected = {
        (r, c)
        for r in range(grid.rows)
        for c in range(grid.cols)
        if not blocked[r // 2][c // 2]
    }
    if not path.closed:
        problems.append("path not closed")
    cells = [tuple(cell) for cell in path.cells.tolist()]
    if len(cells) != len(expected):
        problems.append(f"length {len(cells)} != free fine cells {len(expected)}")
    counts = Counter(cells)
    missing = expected - set(counts)
    extra = set(counts) - expected
    if missing:
        problems.append(f"{len(missing)} free fine cells never visited")
    if extra:
        problems.append(f"{len(extra)} cells outside the free area visited")
    repeated = [cell for cell, k in counts.items() if k != 1]
    if repeated:
        problems.append(f"{len(repeated)} cells visited more than once")
    for cell in cells:
        if grid.obstacle[cell]:
            problems.append(f"obstacle cell {cell} on path")
            break
    for a, b in zip(cells, cells[1:] + cells[:1]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            problems.append(f"step {a} -> {b} not 4-adjacent")
            break
    return problems


def tree_crossing_violations(path: CoveragePath, tree: SpanningTree) -> list[str]:
    """Every move between different mega cells must cross a tree edge."""
    g = tree.graph
    tree_pairs = set()
    for i in tree.edges.tolist():
        a, b = g.edges[i].tolist()
        tree_pairs.add(frozenset((tuple(g.nodes[a].tolist()), tuple(g.nodes[b].tolist()))))
    problems = []
    cells = [tuple(cell) for cell in path.cells.tolist()]
    for a, b in zip(cells, cells[1:] + cells[:1]):
        mega_a = (a[0] // 2, a[1] // 2)
        mega_b = (b[0] // 2, b[1] // 2)
        if mega_a != mega_b and frozenset((mega_a, mega_b)) not in tree_pairs:
            problems.append(f"step {a} -> {b} crosses a non-tree mega boundary")
    return problems


def scalar_path_cost(path: CoveragePath, grid: HeightGrid, spec: WeightSpec) -> float:
    """Route cost by the scalar edge_weight, one step at a time, added left to right."""
    cells = [tuple(cell) for cell in path.cells.tolist()]
    if len(cells) < 2:
        return 0.0
    successors = cells[1:] + (cells[:1] if path.closed else [])
    total = 0.0
    for a, b in zip(cells, successors):
        total += edge_weight(spec, float(grid.heights[a]), float(grid.heights[b]), grid.spacing)
    return total


def parse_mask_rows(rows: list[str], cols: int) -> list[list[bool]] | str:
    """Obstacle flags of stripped mask rows, checked one character at a time
    in row order, or the message of the first failing row."""
    flags = []
    for i, raw in enumerate(rows):
        line = raw.strip()
        if len(line) != cols:
            return f"mask row {i}: expected {cols} characters, got {len(line)}"
        for ch in line:
            if ch not in "#.":
                return f"mask row {i}: invalid character {ch!r}"
        flags.append([ch == "#" for ch in line])
    return flags


def label_regions(n: int, pairs: list[tuple[int, int]]) -> int:
    """Number of connected regions of n nodes joined by pairs: every node
    takes the smallest label among its neighbours until no label changes."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    return len(set(label))
