"""Benchmark harness: seeded random terrains, MST vs weight-blind baseline trees."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from slopecover.graph import (average_slope, build_graph, classical_spanning_tree,
                              minimum_spanning_tree, tree_weight)
from slopecover.terrain import TerrainGenerationError, TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec

CSV_HEADER = "terrain,seed,avg_slope,spec,classical_weight,mst_weight,gap,gap_ratio"
MIN_TREND_RECORDS = 3  # fewest records per spec a rank correlation is computed from
_NUMBERS = {k: (Integral, int, "an integer") for k in ("terrains", "rows", "cols", "obstacles", "seed")}
_NUMBERS |= {k: (Real, float, "a real number") for k in ("roughness_min", "roughness_max", "spacing")}


@dataclass(frozen=True)
class BenchConfig:
    """One `bench` run, a field per `bench` flag, defaulting to the paper's
    experiment. `terrain_specs()` derives each terrain's seed from the
    master `seed` and spaces the roughness evenly from `roughness_min` to
    `roughness_max`; rows, cols, obstacles and spacing are shared."""

    terrains: int = 15
    rows: int = 250
    cols: int = 250
    obstacles: int = 30
    seed: int = 0
    weights: tuple[WeightSpec, ...] = (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY)
    roughness_min: float = 0.05
    roughness_max: float = 0.5
    spacing: float = 1.0

    def __post_init__(self) -> None:
        for key, (kind, convert, noun) in _NUMBERS.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{key} must be {noun}, got {value!r}")
            try:
                object.__setattr__(self, key, convert(value))
            except OverflowError:  # an integer or fraction beyond the float range
                raise ValueError(f"{key} must be within the float range, got {value!r}") from None
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.terrains < 1:
            raise ValueError(f"terrain count must be at least 1, got {self.terrains}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.weights:
            raise ValueError("benchmark needs at least one weight spec")
        for k, spec in enumerate(self.weights):
            if not isinstance(spec, WeightSpec):
                raise TypeError(f"weights must hold WeightSpec members, got {spec!r}")
            if spec in self.weights[:k]:
                raise ValueError(f"weight spec {spec.token} is repeated")
        self.terrain_specs()  # TerrainGenSpec checks each terrain's parameters

    def terrain_specs(self) -> tuple[TerrainGenSpec, ...]:
        """Generator parameters of every terrain, in order."""
        seeds = np.random.SeedSequence(self.seed).generate_state(self.terrains, dtype=np.uint64)
        roughness = np.linspace(self.roughness_min, self.roughness_max, self.terrains)
        return tuple(
            TerrainGenSpec(rows=self.rows, cols=self.cols, seed=int(seed), max_obstacles=self.obstacles,
                           roughness=float(r), spacing=self.spacing)
            for seed, r in zip(seeds, roughness)
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
    """Generate every terrain of `cfg.terrain_specs()` and compare its
    baseline tree with the MST under every spec in `cfg.weights`.

    Records come back sorted by (order in `cfg.weights`, avg_slope, terrain
    index) and are fully deterministic for a fixed config. Generation
    failures are re-raised with the terrain index attached; the generator
    only returns terrains whose free cells form one region.
    """
    records: list[BenchRecord] = []
    for i, terrain in enumerate(cfg.terrain_specs()):
        records += _terrain_records(i, terrain, cfg.weights)
    spec_order = {spec: k for k, spec in enumerate(cfg.weights)}
    records.sort(key=lambda r: (spec_order[r.spec], r.avg_slope, r.terrain_index))
    return records


def _terrain_records(i: int, terrain: TerrainGenSpec, specs: Sequence[WeightSpec]) -> list[BenchRecord]:
    """One terrain's records. Its graph and weight-blind baseline serve every
    spec, and each spec gets its own MST. All specs are priced in one call, so
    the distances are computed once. Nothing of this terrain outlives the call."""
    try:
        grid = generate_terrain(terrain)
    except TerrainGenerationError as exc:
        raise TerrainGenerationError(f"terrain {i}: {exc}") from exc
    mega = aggregate(grid)
    slope = average_slope(mega)
    graph = build_graph(mega)
    baseline = classical_spanning_tree(graph)
    records = []
    for spec, weights in zip(specs, graph.spec_weights(specs)):
        mst = minimum_spanning_tree(graph, weights)
        mst_weight = tree_weight(mst, weights)
        classical_weight = tree_weight(baseline, weights)
        records.append(
            BenchRecord(
                terrain_index=i,
                seed=terrain.seed,
                avg_slope=slope,
                spec=spec,
                classical_weight=classical_weight,
                mst_weight=mst_weight,
                gap=classical_weight - mst_weight,
                gap_ratio=classical_weight / mst_weight if mst_weight > 0 else 1.0,
            )
        )
    return records


def trend_statistics(records: Iterable[BenchRecord]) -> tuple[SpecTrend, ...]:
    """Spearman rank correlation between avg_slope and gap per spec, plus means:
    the trends a benchmark CSV reports. No trends, (), when there are no records or
    some spec has fewer than MIN_TREND_RECORDS. A constant gap (or slope)
    yields correlation 0 rather than an undefined value.
    """
    by_spec: dict[WeightSpec, list[BenchRecord]] = {}
    for record in records:
        by_spec.setdefault(record.spec, []).append(record)
    if not by_spec or min(map(len, by_spec.values())) < MIN_TREND_RECORDS:
        return ()
    trends = []
    for spec, group in by_spec.items():
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


def format_csv(records: Sequence[BenchRecord]) -> str:
    """Deterministic CSV: 6-decimal floats, then one `# correlation,<spec>,<value>`
    comment line per spec of trend_statistics(records) after the data rows."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.terrain_index},{r.seed},{r.avg_slope:.6f},{r.spec.token},"
            f"{r.classical_weight:.6f},{r.mst_weight:.6f},{r.gap:.6f},{r.gap_ratio:.6f}"
        )
    for trend in trend_statistics(records):
        lines.append(f"# correlation,{trend.spec.token},{trend.spearman_slope_gap:.6f}")
    return "\n".join(lines) + "\n"


def write_csv(records: Sequence[BenchRecord], path: str | Path) -> None:
    Path(path).write_text(format_csv(records), encoding="utf-8", newline="\n")
