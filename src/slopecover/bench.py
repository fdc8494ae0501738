"""Benchmark harness: seeded random terrains, MST vs weight-blind baseline trees."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from slopecover.graph import average_slope, build_graph
from slopecover.spanning import classical_spanning_tree, minimum_spanning_tree, tree_weight
from slopecover.terrain import TerrainGenerationError, TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec

CSV_HEADER = "terrain,seed,avg_slope,spec,classical_weight,mst_weight,gap,gap_ratio"

_DEFAULT_SPECS = (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY)


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run: per-terrain seeds and roughness, shared grid shape."""

    rows: int
    cols: int
    seeds: tuple[int, ...]
    roughness_schedule: tuple[float, ...]
    max_obstacles: int = 30
    weight_specs: tuple[WeightSpec, ...] = _DEFAULT_SPECS
    spacing: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(
            self, "roughness_schedule", tuple(float(r) for r in self.roughness_schedule)
        )
        object.__setattr__(self, "weight_specs", tuple(self.weight_specs))
        if not self.seeds:
            raise ValueError("benchmark needs at least one terrain")
        if len(self.seeds) != len(self.roughness_schedule):
            raise ValueError(
                f"{len(self.seeds)} seeds but {len(self.roughness_schedule)} roughness values"
            )
        if not self.weight_specs:
            raise ValueError("benchmark needs at least one weight spec")
        for i in range(len(self.seeds)):  # TerrainGenSpec checks each terrain's parameters
            self.terrain_spec(i)

    def terrain_spec(self, i: int) -> TerrainGenSpec:
        """Generator parameters of terrain i."""
        return TerrainGenSpec(
            rows=self.rows,
            cols=self.cols,
            seed=self.seeds[i],
            max_obstacles=self.max_obstacles,
            roughness=self.roughness_schedule[i],
            spacing=self.spacing,
        )

    @property
    def terrain_count(self) -> int:
        return len(self.seeds)

    @classmethod
    def from_master_seed(
        cls,
        master_seed: int,
        terrain_count: int = 15,
        rows: int = 250,
        cols: int = 250,
        max_obstacles: int = 30,
        roughness_min: float = 0.05,
        roughness_max: float = 0.5,
        weight_specs: Sequence[WeightSpec] = _DEFAULT_SPECS,
        spacing: float = 1.0,
    ) -> "BenchConfig":
        """Derive one seed per terrain from a master seed plus an evenly
        spaced roughness schedule."""
        if terrain_count < 1:
            raise ValueError(f"terrain count must be at least 1, got {terrain_count}")
        seeds = np.random.SeedSequence(master_seed).generate_state(terrain_count, dtype=np.uint64)
        schedule = np.linspace(roughness_min, roughness_max, terrain_count)
        return cls(
            rows=rows,
            cols=cols,
            seeds=tuple(int(s) for s in seeds),
            roughness_schedule=tuple(float(r) for r in schedule),
            max_obstacles=max_obstacles,
            weight_specs=tuple(weight_specs),
            spacing=spacing,
        )


@dataclass(frozen=True)
class BenchRecord:
    """Result of one (terrain, weight spec) pair."""

    terrain_index: int
    seed: int
    avg_slope: float
    spec: WeightSpec
    classical_weight: float
    mst_weight: float
    gap: float
    gap_ratio: float


@dataclass(frozen=True)
class SpecTrend:
    """Per-spec summary: how the baseline-vs-MST gap relates to terrain slope."""

    spec: WeightSpec
    spearman_slope_gap: float
    mean_gap: float
    mean_gap_ratio: float
    count: int


def run_benchmark(cfg: BenchConfig) -> list[BenchRecord]:
    """Generate every terrain, build its graph and baseline tree once, and
    compare the baseline with the MST under every weight spec.

    Records come back sorted by (spec order, avg_slope, terrain index) and
    are fully deterministic for a fixed config. Generation failures are
    re-raised with the terrain index attached; the generator only returns
    terrains whose free cells form one region.
    """
    records: list[BenchRecord] = []
    for i, seed in enumerate(cfg.seeds):
        try:
            grid = generate_terrain(cfg.terrain_spec(i))
        except TerrainGenerationError as exc:
            raise TerrainGenerationError(f"terrain {i}: {exc}") from exc
        mega = aggregate(grid)
        slope = average_slope(mega)
        graph = build_graph(mega)
        baseline = classical_spanning_tree(graph)  # weight-blind: one tree serves every spec
        for spec in cfg.weight_specs:
            mst_weight = tree_weight(minimum_spanning_tree(graph, spec), spec)
            classical_weight = tree_weight(baseline, spec)
            records.append(
                BenchRecord(
                    terrain_index=i,
                    seed=int(seed),
                    avg_slope=slope,
                    spec=spec,
                    classical_weight=classical_weight,
                    mst_weight=mst_weight,
                    gap=classical_weight - mst_weight,
                    gap_ratio=classical_weight / mst_weight if mst_weight > 0 else 1.0,
                )
            )
    spec_order = {spec: k for k, spec in enumerate(cfg.weight_specs)}
    records.sort(key=lambda r: (spec_order[r.spec], r.avg_slope, r.terrain_index))
    return records


def trend_statistics(records: Iterable[BenchRecord]) -> tuple[SpecTrend, ...]:
    """Spearman rank correlation between avg_slope and gap per spec, plus means.

    Requires at least 3 records per spec. A constant gap (or slope) yields
    correlation 0 rather than an undefined value.
    """
    by_spec: dict[WeightSpec, list[BenchRecord]] = {}
    for record in records:
        by_spec.setdefault(record.spec, []).append(record)
    if not by_spec:
        raise ValueError("no records")
    trends = []
    for spec, group in by_spec.items():
        if len(group) < 3:
            raise ValueError(
                f"need at least 3 records per spec for a rank correlation, "
                f"got {len(group)} for {spec.token}"
            )
        slopes = np.array([r.avg_slope for r in group])
        gaps = np.array([r.gap for r in group])
        ratios = np.array([r.gap_ratio for r in group])
        trends.append(
            SpecTrend(
                spec=spec,
                spearman_slope_gap=_spearman(slopes, gaps),
                mean_gap=float(gaps.mean()),
                mean_gap_ratio=float(ratios.mean()),
                count=len(group),
            )
        )
    return tuple(trends)


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties averaged."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # rank of the last member of each tie group
    return (last - 0.5 * (counts - 1))[group]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    rx = _rankdata(x)
    ry = _rankdata(y)
    if rx.std() == 0.0 or ry.std() == 0.0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def format_csv(records: Sequence[BenchRecord], trends: Sequence[SpecTrend] = ()) -> str:
    """Deterministic CSV: 6-decimal floats, one `# correlation,<spec>,<value>`
    comment line per spec appended after the data rows."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.terrain_index},{r.seed},{r.avg_slope:.6f},{r.spec.token},"
            f"{r.classical_weight:.6f},{r.mst_weight:.6f},{r.gap:.6f},{r.gap_ratio:.6f}"
        )
    for trend in trends:
        lines.append(f"# correlation,{trend.spec.token},{trend.spearman_slope_gap:.6f}")
    return "\n".join(lines) + "\n"


def write_csv(records: Sequence[BenchRecord], trends: Sequence[SpecTrend], path: str | Path) -> None:
    Path(path).write_text(format_csv(records, trends), encoding="utf-8", newline="\n")
