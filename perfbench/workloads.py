"""The benchmark's workloads: how each one sets up its inputs, the command it
times, and the checks that decide whether one command's output is correct.

Every command goes through the public entry point ``slopecover.cli.main``.
The checks are written against the file formats and the documented stdout
contract, not against the library's own code, so that a library change that
breaks an output is caught here. The checks need numpy, which the library
depends on anyway.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import xml.parsers.expat
from pathlib import Path

import numpy as np

DEFAULT_SEED = 42

# Recorded from the seed code (the commit this benchmark was written against)
# at DEFAULT_SEED. A change that alters these bytes must say so.
GOLDEN_PAPER_CSV_SHA256 = "354d26c5edcadcf3688f86bb8fc4f3146ede45469b2ab2b8e8a9e7352306e017"
GOLDEN_PLAN_ROUTE_SHA256 = "dbaa2c2068d2240bebe3dca70d37ac8fb0640663f2a5a3b5fa17088800556790"
GOLDEN_PLAN_STDOUT = {"tree_weight": 549882.156386, "path_cost": 1271185.993029}
GOLDEN_REL_TOL = 1e-9


class CheckError(Exception):
    """One command's output failed a check."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_obstacles(terrain: Path) -> np.ndarray:
    """Fine obstacle mask of a terrain file: header ``N M spacing``, N height
    rows, then optionally ``MASK`` and N rows of ``.``/``#``."""
    data = terrain.read_bytes()
    rows, cols = (int(v) for v in data.split(b"\n", 1)[0].split()[:2])
    at = data.find(b"\nMASK\n")
    if at < 0:
        return np.zeros((rows, cols), dtype=bool)
    mask = np.frombuffer(data[at + 6 :], dtype=np.uint8)[: rows * (cols + 1)]
    return mask.reshape(rows, cols + 1)[:, :cols] == ord("#")


def _blocked_mega(obstacle: np.ndarray) -> np.ndarray:
    rows, cols = obstacle.shape
    return obstacle.reshape(rows // 2, 2, cols // 2, 2).any(axis=(1, 3))


def _read_route(path: Path) -> np.ndarray:
    """Cells of a route file (header ``PATH L closed``, then ``row col`` lines)
    as an (L, 2) int array; raises CheckError on any malformed line."""
    text = path.read_text(encoding="ascii")
    header, _, body = text.partition("\n")
    parts = header.split()
    if len(parts) != 3 or parts[0] != "PATH" or parts[2] != "closed":
        raise CheckError(f"route header {header!r} is not 'PATH L closed'")
    if not re.fullmatch(r"(?:\d+ \d+\n)+", body):
        raise CheckError("route body is not one 'row col' line per cell")
    cells = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2)
    if len(cells) != int(parts[1]):
        raise CheckError(f"route header says {parts[1]} cells, body has {len(cells)}")
    return cells


def _check_route(cells: np.ndarray, obstacle: np.ndarray) -> None:
    """A closed 4-adjacent cycle visiting every fine cell of every free mega
    cell exactly once and nothing else."""
    rows, cols = obstacle.shape
    blocked = _blocked_mega(obstacle)
    expected = 4 * int((~blocked).sum())
    if len(cells) != expected:
        raise CheckError(f"route has {len(cells)} cells, expected 4 x free mega = {expected}")
    r, c = cells[:, 0], cells[:, 1]
    if not ((0 <= r) & (r < rows) & (0 <= c) & (c < cols)).all():
        raise CheckError("route leaves the grid")
    if obstacle[r, c].any() or blocked[r // 2, c // 2].any():
        raise CheckError("route enters a blocked mega cell")
    if np.bincount(r * cols + c, minlength=rows * cols).max() > 1:
        raise CheckError("route visits a cell twice")
    step = np.abs(cells - np.roll(cells, -1, axis=0)).sum(axis=1)
    if not (step == 1).all():
        raise CheckError(f"route has {int((step != 1).sum())} non-adjacent steps")


def _parse_stdout(stdout: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckError(f"stdout line {line!r} is not key=value")
        try:
            values[key] = float(value)
        except ValueError:
            raise CheckError(f"stdout value {line!r} is not a number") from None
        if not math.isfinite(values[key]):
            raise CheckError(f"stdout value {line!r} is not finite")
    return values


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


class Workload:
    """One workload at one seed, with its files in ``work``.

    ``setup_argvs`` are the CLI commands that write the inputs; ``argv`` is
    the timed command; ``warmup_argv`` runs once, untimed, before it.
    ``output`` is the file the command writes and ``check`` inspects.
    """

    name = ""
    cells = 0  # fine cells handled by one command
    output_name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.output = work / self.output_name

    def setup_argvs(self) -> list[list[str]]:
        return []

    def argv(self) -> list[str]:
        raise NotImplementedError

    def warmup_argv(self) -> list[str]:
        return self.argv()

    def load(self) -> None:
        """Read what the checks need from the set-up files."""

    def check(self, argv: list[str], stdout: str) -> None:
        raise NotImplementedError


class PaperBench(Workload):
    """The paper's experiment: `bench` with its defaults, 15 x 250^2."""

    name = "paper-bench"
    terrains, side = 15, 250
    cells = terrains * side * side
    output_name = "bench.csv"
    specs = ("pythagoras", "penalty")
    header = "terrain,seed,avg_slope,spec,classical_weight,mst_weight,gap,gap_ratio"

    def argv(self) -> list[str]:
        return ["bench", "--seed", str(self.seed), "-o", str(self.output)]

    def warmup_argv(self) -> list[str]:
        # Each terrain repeats the same per-terrain work, so 3 of the 15 warm
        # the interpreter and allocator at a fifth of the cost.
        return self.argv() + ["--terrains", "3"]

    def check(self, argv: list[str], stdout: str) -> None:
        terrains = int(argv[argv.index("--terrains") + 1]) if "--terrains" in argv else self.terrains
        if self.seed == DEFAULT_SEED and terrains == self.terrains:
            digest = _sha256(self.output)
            if digest != GOLDEN_PAPER_CSV_SHA256:
                raise CheckError(f"CSV sha256 {digest} differs from the recorded one")
        self._check_structure(self.output.read_text(encoding="utf-8"), terrains)

    def _check_structure(self, text: str, terrains: int) -> None:
        lines = text.split("\n")
        if lines[0] != self.header or lines[-1] != "":
            raise CheckError("CSV header or final newline is wrong")
        rows, trailer = lines[1:-1][: -len(self.specs)], lines[1:-1][-len(self.specs) :]
        if len(rows) != terrains * len(self.specs):
            raise CheckError(f"CSV has {len(rows)} rows, expected {terrains * len(self.specs)}")
        seeds = np.random.SeedSequence(self.seed).generate_state(terrains, dtype=np.uint64)
        seen: set[tuple[str, int]] = set()
        slope_of: dict[int, str] = {}
        by_spec: dict[str, list[tuple[float, float]]] = {spec: [] for spec in self.specs}
        order = []
        for line in rows:
            fields = line.split(",")
            if len(fields) != 8 or fields[3] not in self.specs:
                raise CheckError(f"malformed CSV row {line!r}")
            index, seed, spec = int(fields[0]), int(fields[1]), fields[3]
            slope, cw, mw, gap, ratio = (float(fields[k]) for k in (2, 4, 5, 6, 7))
            if not 0 <= index < terrains or seed != int(seeds[index]) or (spec, index) in seen:
                raise CheckError(f"CSV row {line!r} has a wrong or repeated terrain/seed")
            seen.add((spec, index))
            if slope_of.setdefault(index, fields[2]) != fields[2]:
                raise CheckError(f"terrain {index} has two different avg_slope values")
            if not all(math.isfinite(v) for v in (slope, cw, mw, gap, ratio)):
                raise CheckError(f"CSV row {line!r} has a non-finite value")
            if not 0 < mw <= cw:
                raise CheckError(f"CSV row {line!r}: mst_weight > classical_weight")
            # every value is printed to 6 decimals, so each relation holds to a
            # few units of 1e-6
            if abs(gap - (cw - mw)) > 2e-6 or abs(ratio - cw / mw) > 1e-6:
                raise CheckError(f"CSV row {line!r}: gap or gap_ratio inconsistent")
            order.append((self.specs.index(spec), slope, index))
            by_spec[spec].append((slope, gap))
        if order != sorted(order):
            raise CheckError("CSV rows are not sorted by (spec, avg_slope, terrain)")
        for spec, line in zip(self.specs, trailer):
            prefix = f"# correlation,{spec},"
            if not line.startswith(prefix):
                raise CheckError(f"expected a correlation line for {spec}, got {line!r}")
            slopes, gaps = (np.array(v) for v in zip(*by_spec[spec]))
            if abs(float(line[len(prefix) :]) - _spearman(slopes, gaps)) > 2e-6:
                raise CheckError(f"correlation for {spec} does not match the rows")


def _ranks(values: np.ndarray) -> np.ndarray:
    """Ranks from 1, ties averaged."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation; 0 when either side is constant."""
    rx, ry = _ranks(x), _ranks(y)
    if rx.std() == 0.0 or ry.std() == 0.0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


class Plan1000(Workload):
    """One `plan` of a 1000^2 terrain: parse, graph, MST, walk, cost, write."""

    name = "plan-1000"
    side, obstacles, roughness = 1000, 60, 0.3
    cells = side * side
    output_name = "route.txt"

    @property
    def terrain(self) -> Path:
        return self.work / "terrain.txt"

    @property
    def warmup_terrain(self) -> Path:
        return self.work / "warmup-terrain.txt"

    def setup_argvs(self) -> list[list[str]]:
        return [
            _gen_terrain(self.side, self.seed, self.obstacles, self.roughness, self.terrain),
            # a 250^2 terrain, so the warm-up costs a sixteenth of a command
            _gen_terrain(self.side // 4, self.seed, self.obstacles // 4, self.roughness,
                         self.warmup_terrain),
        ]

    def _plan(self, terrain: Path) -> list[str]:
        return ["plan", "--terrain", str(terrain), "--weight", "penalty",
                "--method", "mst", "-o", str(self.output)]

    def argv(self) -> list[str]:
        return self._plan(self.terrain)

    def warmup_argv(self) -> list[str]:
        return self._plan(self.warmup_terrain)

    def load(self) -> None:
        self.obstacles_of = {t: _read_obstacles(t) for t in (self.terrain, self.warmup_terrain)}

    def check(self, argv: list[str], stdout: str) -> None:
        terrain = Path(argv[argv.index("--terrain") + 1])
        obstacle = self.obstacles_of[terrain]
        blocked = _blocked_mega(obstacle)
        free_mega = int((~blocked).sum())
        sacrificed = int((np.repeat(np.repeat(blocked, 2, axis=0), 2, axis=1) & ~obstacle).sum())
        values = _parse_stdout(stdout)
        keys = ["avg_slope", "tree_weight", "path_length", "path_cost", "sacrificed_cells"]
        if list(values) != keys:
            raise CheckError(f"stdout keys {list(values)} differ from {keys}")
        if values["path_length"] != 4 * free_mega:
            raise CheckError(f"path_length {values['path_length']} != 4 x {free_mega}")
        if values["sacrificed_cells"] != sacrificed:
            raise CheckError(f"sacrificed_cells {values['sacrificed_cells']} != {sacrificed}")
        if not _close(values["avg_slope"], self.roughness, 1e-3):
            raise CheckError(f"avg_slope {values['avg_slope']} is not the generated {self.roughness}")
        if self.seed == DEFAULT_SEED and terrain == self.terrain:
            digest = _sha256(self.output)
            if digest != GOLDEN_PLAN_ROUTE_SHA256:
                raise CheckError(f"route sha256 {digest} differs from the recorded one")
            for key, expected in GOLDEN_PLAN_STDOUT.items():
                if not _close(values[key], expected, GOLDEN_REL_TOL):
                    raise CheckError(f"{key}={values[key]} differs from the recorded {expected}")
        _check_route(_read_route(self.output), obstacle)


class Render500(Workload):
    """One `render` of a 500^2 terrain and its classical route, no tree."""

    name = "render-500"
    side, obstacles, roughness = 500, 40, 0.2
    cells = side * side
    output_name = "figure.svg"
    cell_px = 10.0  # the CLI default

    @property
    def terrain(self) -> Path:
        return self.work / "terrain.txt"

    @property
    def route(self) -> Path:
        return self.work / "route.txt"

    def setup_argvs(self) -> list[list[str]]:
        return [
            _gen_terrain(self.side, self.seed, self.obstacles, self.roughness, self.terrain),
            ["plan", "--terrain", str(self.terrain), "--method", "classical",
             "-o", str(self.route)],
        ]

    def argv(self) -> list[str]:
        return ["render", "--terrain", str(self.terrain), "--path", str(self.route),
                "-o", str(self.output)]

    def load(self) -> None:
        cells = _read_route(self.route)
        _check_route(cells, _read_obstacles(self.terrain))
        centres = (np.vstack([cells, cells[:1]])[:, ::-1] + 0.5) * self.cell_px
        self.points = centres  # (x, y) per polyline point, route closed

    def check(self, argv: list[str], stdout: str) -> None:
        found: dict[str, list[dict[str, str]]] = {}

        def start(tag: str, attrs: dict[str, str]) -> None:
            if tag in ("svg", "polyline"):
                found.setdefault(tag, []).append(attrs)

        parser = xml.parsers.expat.ParserCreate()
        parser.StartElementHandler = start
        try:
            # one call: expat rescans a token that spans chunks, and the
            # polyline's points attribute is megabytes long
            parser.Parse(self.output.read_bytes(), True)
        except xml.parsers.expat.ExpatError as exc:
            raise CheckError(f"SVG is not well-formed XML: {exc}") from None
        svg, polylines = found.get("svg", []), found.get("polyline", [])
        if len(svg) != 1 or len(polylines) != 1:
            raise CheckError(f"SVG has {len(svg)} svg and {len(polylines)} polyline elements")
        size = self.side * self.cell_px
        if float(svg[0].get("width", "nan")) != size or float(svg[0].get("height", "nan")) != size:
            raise CheckError("SVG width/height do not match the terrain")
        text = polylines[0].get("points", "").strip()
        if not re.fullmatch(r"[-+0-9.eE]+,[-+0-9.eE]+(?:\s+[-+0-9.eE]+,[-+0-9.eE]+)*", text):
            raise CheckError("polyline points are not 'x,y' pairs")
        points = np.loadtxt(io.StringIO(re.sub(r"\s+", "\n", text)), delimiter=",", ndmin=2)
        if points.shape != self.points.shape:
            raise CheckError(f"polyline has {len(points)} points, expected {len(self.points)}")
        if not (np.abs(points - self.points) < 0.01 * self.cell_px).all():
            raise CheckError("polyline points do not follow the route")


def _gen_terrain(side: int, seed: int, obstacles: int, roughness: float, out: Path) -> list[str]:
    return ["gen-terrain", "--rows", str(side), "--cols", str(side), "--seed", str(seed),
            "--obstacles", str(obstacles), "--roughness", str(roughness), "-o", str(out)]


WORKLOADS = {w.name: w for w in (PaperBench, Plan1000, Render500)}
