"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch (plain loops, explicit
enumeration) so it cannot share a bug with the code under test.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque

import numpy as np

from slopecover.coverage import CoveragePath, PathParseError
from slopecover.graph import CoverageGraph, DisconnectedGridError, SpanningTree
from slopecover.terrain import HeightGrid, MegaGrid, TerrainParseError
from slopecover.weights import WeightSpec


def scalar_weight(spec: WeightSpec, h1: float, h2: float, d: float) -> float:
    """One edge's cost from its formula on Python floats: 1, the straight-line
    distance math.hypot(d, h1 - h2), or that distance times 1 + |h1 - h2| / d.
    The bit-for-bit reference for weights.edge_weights."""
    if spec is WeightSpec.UNIT:
        return 1.0
    distance = math.hypot(d, h1 - h2)
    if spec is WeightSpec.PYTHAGORAS:
        return distance
    return distance * (1.0 + abs(h1 - h2) / d)


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
    subset, each edge priced by scalar_weight."""
    n = len(graph.nodes)
    if n == 1:
        return 0.0
    mega = graph.mega
    heights = [float(mega.heights[r, c]) for r, c in graph.nodes.tolist()]
    cost = [scalar_weight(spec, heights[a], heights[b], mega.spacing) for a, b in graph.edges.tolist()]
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


def stable_weight_kruskal(graph: CoverageGraph, spec: WeightSpec) -> np.ndarray:
    """Sorted edge indices of the tree Kruskal builds when it scans the edges
    by (weight under spec, edge index), relabelling a whole region at each
    join. The graph must be connected."""
    weights = graph.weights(spec).tolist()
    label = list(range(len(graph.nodes)))
    chosen = []
    for e in sorted(range(len(weights)), key=lambda e: (weights[e], e)):
        a, b = graph.edges[e].tolist()
        if label[a] != label[b]:
            joined, into = label[b], label[a]
            label = [into if x == joined else x for x in label]
            chosen.append(e)
    assert len(chosen) == len(graph.nodes) - 1, "graph passed to the oracle must be connected"
    return np.array(sorted(chosen), dtype=np.int64)


def tuple_stack_dfs_tree(g: CoverageGraph) -> SpanningTree:
    """The weight-blind depth-first tree, built with one `(node, edge)` tuple
    per push as graph.classical_spanning_tree built it before its node-only
    stack and its tree edges from the visit order. Raises DisconnectedGridError
    with the flood-fill region count unless the free cells form exactly one region."""
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
    if len(chosen) != n - 1:
        raise DisconnectedGridError(flood_fill_regions(~g.mega.blocked))
    return SpanningTree(graph=g, edges=np.array(sorted(chosen), dtype=np.int64))


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


def mega(heights, blocked=None, spacing=2.0) -> MegaGrid:
    """MegaGrid of a height table, all free unless blocked is given."""
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
    """Route cost by scalar_weight, one step at a time, added left to right."""
    cells = [tuple(cell) for cell in path.cells.tolist()]
    if len(cells) < 2:
        return 0.0
    successors = cells[1:] + (cells[:1] if path.closed else [])
    total = 0.0
    for a, b in zip(cells, successors):
        total += scalar_weight(spec, float(grid.heights[a]), float(grid.heights[b]), grid.spacing)
    return total


def pointer_chase_walk(tree: SpanningTree) -> CoveragePath:
    """The clockwise walk around a spanning tree one state at a time, as
    coverage.circumnavigate did it before its list ranking: the reference for
    every cell and for the error text."""
    g = tree.graph
    n = len(g.nodes)
    incident = g.incident
    crossing = np.isin(incident, tree.edges)
    successor = np.arange(4 * n).reshape(n, 4) + (1, 1, 1, -3)
    u, k = np.nonzero(crossing)
    neighbour = g.edges[incident[crossing]].sum(axis=1) - u
    successor[crossing] = 4 * neighbour + (k + 3) % 4
    successor = successor.ravel().tolist()
    order = [0]
    state = successor[0]
    while state:
        order.append(state)
        state = successor[state]
    if len(order) != 4 * n:
        raise ValueError(
            f"tree walk covered {len(order)} of {4 * n} fine cells; "
            "the tree does not span all free mega cells"
        )
    offsets = ((0, 0), (0, 1), (1, 1), (1, 0))
    corners = (2 * g.nodes[:, None, :] + offsets).reshape(-1, 2)
    return CoveragePath(cells=corners[order], closed=True)


def format_path_template(path: CoveragePath) -> str:
    """The route writer as one `%` template over every coordinate, as
    coverage.format_path did it before its tables of distinct values."""
    word = "closed" if path.closed else "open"
    cells = path.cells
    return f"PATH {len(cells)} {word}\n" + ("%d %d\n" * len(cells)) % tuple(cells.ravel().tolist())


def parse_path_lines(text: str) -> CoveragePath:
    """The route reader one line at a time, as it stood before the bulk
    reader: the reference for every result and every error message."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise PathParseError("empty path file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "PATH" or header[2] not in ("closed", "open"):
        raise PathParseError(f"header must be 'PATH L closed|open', got {lines[0]!r}")
    try:
        length = int(header[1])
    except ValueError as exc:
        raise PathParseError(f"malformed header {lines[0]!r}") from exc
    if len(lines) - 1 != length:
        raise PathParseError(f"expected {length} cells, found {len(lines) - 1}")
    values: list[int] = []
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != 2:
            raise PathParseError(f"cell line {i}: expected 'row col', got {line!r}")
        try:
            values += map(int, tokens)
        except ValueError as exc:
            raise PathParseError(f"cell line {i}: non-integer coordinate") from exc
    try:
        cells = np.array(values, dtype=np.int64).reshape(-1, 2)
    except OverflowError as exc:
        raise PathParseError("cell coordinate out of the int64 range") from exc
    return CoveragePath(cells=cells, closed=header[2] == "closed")


def parse_height_lines(text: str) -> HeightGrid:
    """The terrain reader with one `float()` per height, one row at a time,
    as it stood before the bulk reader: the reference for every result and
    every error message."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise TerrainParseError("empty terrain file")
    header = lines[0].split()
    if len(header) != 3:
        raise TerrainParseError(f"header must be 'N M spacing', got {lines[0]!r}")
    try:
        rows, cols, spacing = int(header[0]), int(header[1]), float(header[2])
    except ValueError as exc:
        raise TerrainParseError(f"malformed header {lines[0]!r}") from exc
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    if len(lines) < 1 + rows:
        raise TerrainParseError(f"expected {rows} height rows, found {len(lines) - 1}")
    values: list[float] = []
    for i, line in enumerate(lines[1 : 1 + rows]):
        tokens = line.split()
        if len(tokens) != cols:
            raise TerrainParseError(f"height row {i}: expected {cols} values, got {len(tokens)}")
        try:
            values += [float(t) for t in tokens]
        except ValueError as exc:
            raise TerrainParseError(f"height row {i}: non-numeric value") from exc
    obstacle = [[False] * cols for _ in range(rows)]
    rest = lines[1 + rows :]
    if rest:
        if rest[0].strip() != "MASK":
            raise TerrainParseError(f"expected 'MASK' or end of file, got {rest[0]!r}")
        if len(rest) != 1 + rows:
            raise TerrainParseError(f"mask section: expected {rows} rows, found {len(rest) - 1}")
        obstacle = parse_mask_rows(rest[1:], cols)
        if isinstance(obstacle, str):
            raise TerrainParseError(obstacle)
    return HeightGrid(rows=rows, cols=cols, heights=np.array(values, dtype=np.float64),
                      obstacle=obstacle, spacing=spacing)


def format_height_template(grid: HeightGrid) -> str:
    """The terrain writer as one Python `%` over a row template and a tuple of
    every height, as it stood before the array writer: the reference for
    format_height_grid's bytes."""
    row = " ".join(["%.9g"] * grid.cols) + "\n"
    text = f"{grid.rows} {grid.cols} {grid.spacing:.9g}\n"
    text += (row * grid.rows) % tuple(grid.heights.ravel().tolist())
    if grid.obstacle.any():
        mask = np.full((grid.rows, grid.cols + 1), ord("\n"), dtype=np.uint8)
        mask[:, :-1] = np.where(grid.obstacle, ord("#"), ord("."))
        text += "MASK\n" + mask.tobytes().decode("ascii")
    return text


def route_crossings(cells, closed: bool) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """The 4-adjacent mega-cell pairs a route steps across, upper or left end
    first, found one step at a time on Python ints."""
    cells = [(r, c) for r, c in np.asarray(cells, dtype=np.int64).reshape(-1, 2).tolist()]
    nexts = cells[1:] + cells[:1] if closed else cells[1:]
    crossings = set()
    for (ra, ca), (rb, cb) in zip(cells, nexts):
        a, b = (ra // 2, ca // 2), (rb // 2, cb // 2)
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1:
            crossings.add((min(a, b), max(a, b)))
    return crossings


def render_svg_per_cell(
    grid: HeightGrid, path: CoveragePath, tree: SpanningTree | None = None, cell_px: float = 10.0
) -> str:
    """The SVG renderer one f-string per cell and per route point, as it stood
    before the array renderer: the reference for every output byte."""
    s = float(cell_px)
    width = grid.cols * s
    height = grid.rows * s
    h_min = float(grid.heights.min())
    h_span = float(grid.heights.max()) - h_min
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
    ]
    for r in range(grid.rows):
        for c in range(grid.cols):
            if grid.obstacle[r, c]:
                fill = "#d62728"
            else:
                t = 0.5 if h_span == 0 else (float(grid.heights[r, c]) - h_min) / h_span
                gray = int(round(48 + t * (224 - 48)))
                fill = f"#{gray:02x}{gray:02x}{gray:02x}"
            lines.append(
                f'<rect x="{c * s:g}" y="{r * s:g}" width="{s:g}" height="{s:g}" fill="{fill}"/>'
            )
    if tree is not None:
        g = tree.graph
        for (ra, ca), (rb, cb) in g.nodes[g.edges[tree.edges]].tolist():
            lines.append(
                f'<line x1="{(2 * ca + 1) * s:g}" y1="{(2 * ra + 1) * s:g}" '
                f'x2="{(2 * cb + 1) * s:g}" y2="{(2 * rb + 1) * s:g}" '
                f'stroke="#ff7f0e" stroke-width="{0.3 * s:g}"/>'
            )
    rows, cols = path.cells.T.tolist()
    if path.closed and rows:
        rows, cols = rows + rows[:1], cols + cols[:1]
    point_text = " ".join(f"{(c + 0.5) * s:g},{(r + 0.5) * s:g}" for r, c in zip(rows, cols))
    lines.append(
        f'<polyline points="{point_text}" fill="none" stroke="#1f77b4" '
        f'stroke-width="{0.25 * s:g}" stroke-linejoin="round"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


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


def sacrificed_cells(obstacle: np.ndarray) -> int:
    """Free fine cells in a 2x2 block that holds an obstacle, counted on the
    block mask upsampled back to fine cells."""
    rows, cols = obstacle.shape
    blocked = obstacle.reshape(rows // 2, 2, cols // 2, 2).any(axis=(1, 3))
    fine_blocked = blocked.repeat(2, axis=0).repeat(2, axis=1)
    return int((fine_blocked & ~obstacle).sum())


def midpoint_displacement(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Diamond-square field on a (2^k + 1) lattice, cropped to rows x cols, with
    each step written out on its own: the diamond step from four named corner
    slices, the square step from coordinate arrays, per-direction bounds masks
    and fancy-index gathers. The bit-for-bit reference for
    terrain._midpoint_displacement: same sums in the same order, same draws."""
    size = 1
    while size < max(rows, cols):
        size *= 2
    n = size + 1
    field = np.zeros((n, n), dtype=np.float64)
    field[::size, ::size] = rng.standard_normal((2, 2))
    step, scale = size, 1.0
    while step > 1:
        half = step // 2
        top_left = field[0 : n - 1 : step, 0 : n - 1 : step]
        top_right = field[0 : n - 1 : step, step::step]
        bottom_left = field[step::step, 0 : n - 1 : step]
        bottom_right = field[step::step, step::step]
        field[half::step, half::step] = (
            top_left + top_right + bottom_left + bottom_right
        ) / 4.0 + scale * rng.standard_normal(top_left.shape)
        for row0, col0 in ((0, half), (half, 0)):
            grid_r, grid_c = np.meshgrid(
                np.arange(row0, n, step), np.arange(col0, n, step), indexing="ij"
            )
            total = np.zeros(grid_r.shape, dtype=np.float64)
            count = np.zeros(grid_r.shape, dtype=np.float64)
            for dr, dc in ((-half, 0), (half, 0), (0, -half), (0, half)):
                nr, nc = grid_r + dr, grid_c + dc
                ok = (nr >= 0) & (nr < n) & (nc >= 0) & (nc < n)
                total[ok] += field[nr[ok], nc[ok]]
                count[ok] += 1
            field[grid_r, grid_c] = total / count + scale * rng.standard_normal(grid_r.shape)
        scale *= 0.5
        step = half
    return field[:rows, :cols].copy()


def padded_midpoint_displacement(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """terrain._midpoint_displacement as it was before it reused one zeros
    buffer per step: np.pad rebuilds the bordered lattice and its ones for
    each phase. The bit-for-bit reference for the buffered version."""
    size = 1
    while size < max(rows, cols):
        size *= 2
    field = np.zeros((size + 1, size + 1), dtype=np.float64)
    field[::size, ::size] = rng.standard_normal((2, 2))
    step, scale = size, 1.0
    while step > 1:
        half = step // 2
        for origins, offsets in (([(1, 1)], [(-1, -1), (-1, 1), (1, -1), (1, 1)]),
                                 ([(0, 1), (1, 0)], [(-1, 0), (1, 0), (0, -1), (0, 1)])):
            lattice = np.pad(field[::half, ::half], 1)
            inside = np.pad(np.ones(field[::half, ::half].shape), 1)
            for r0, c0 in origins:
                points = field[r0 * half :: step, c0 * half :: step]
                total, count = np.zeros(points.shape), np.zeros(points.shape)
                for dr, dc in offsets:
                    near = (slice(1 + r0 + dr, None, 2), slice(1 + c0 + dc, None, 2))
                    total += lattice[near][: len(points), : points.shape[1]]
                    count += inside[near][: len(points), : points.shape[1]]
                points[...] = total / count + scale * rng.standard_normal(points.shape)
        scale *= 0.5
        step = half
    return field[:rows, :cols].copy()


def mean_block_heights(heights: np.ndarray) -> np.ndarray:
    """Mega heights as numpy's mean over the reshaped 2x2 blocks, terrain.aggregate's
    former kernel. numpy 2.4 adds in aggregate's order on grids of 4 or more columns,
    and the four values in sequence on grids 2 columns wide."""
    rows, cols = heights.shape
    return heights.reshape(rows // 2, 2, cols // 2, 2).mean(axis=(1, 3))


def any_blocked_blocks(obstacle: np.ndarray) -> np.ndarray:
    """Mega blocked mask as numpy's any over the reshaped 2x2 blocks,
    terrain.blocked_mega_cells's former kernel."""
    rows, cols = obstacle.shape
    return obstacle.reshape(rows // 2, 2, cols // 2, 2).any(axis=(1, 3))


def block_means_per_cell(heights: np.ndarray) -> np.ndarray:
    """Each 2x2 block's ((top left + top right) + (bottom left + bottom right)) / 4,
    added on Python floats one block at a time."""
    rows, cols = heights.shape
    values = heights.tolist()
    return np.array([[((values[i][j] + values[i][j + 1]) + (values[i + 1][j] + values[i + 1][j + 1])) / 4
                      for j in range(0, cols, 2)] for i in range(0, rows, 2)]).reshape(rows // 2, cols // 2)


def boolean_mask_spanning_forest(n: int, a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """graph.spanning_forest as it was when boolean masks compacted the live
    edges and the tied picks of each Borůvka round. The bit-for-bit reference
    for the compaction by flatnonzero and take."""
    chosen = np.zeros(len(a), dtype=bool)
    edge = np.flatnonzero(a != b)
    ra, rb, w = a[edge], b[edge], weights[edge]
    regions = n
    while len(edge):
        least = np.full(regions, np.inf)
        np.minimum.at(least, ra, w)
        np.minimum.at(least, rb, w)
        pick = np.full(regions, len(edge))
        for end in (ra, rb):
            tied = w == least[end]
            np.minimum.at(pick, end[tied], np.flatnonzero(tied))
        region = np.flatnonzero(pick < len(edge))
        if not len(region):
            raise ValueError("edge weights must not be nan")
        j = pick[region]
        chosen[edge[j]] = True
        ids = np.arange(regions)
        parent = ids.copy()
        parent[region] = ra[j] + rb[j] - region
        parent = np.where((parent[parent] == ids) & (ids < parent), ids, parent)
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
        root = parent == ids
        label = (np.cumsum(root) - 1)[parent]
        regions = int(root.sum())
        ra, rb = label[ra], label[rb]
        live = ra != rb
        edge, ra, rb, w = edge[live], ra[live], rb[live], w[live]
    return np.flatnonzero(chosen)
