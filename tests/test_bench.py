from __future__ import annotations

import pytest

from slopecover import bench as bench_mod
from slopecover.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    format_csv,
    run_benchmark,
    trend_statistics,
)
from slopecover.weights import WeightSpec

SMALL = dict(terrain_count=4, rows=16, cols=16, max_obstacles=2)


def small_config(master_seed=5, **overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return BenchConfig.from_master_seed(master_seed, **kwargs)


class TestConfig:
    def test_from_master_seed_shapes(self):
        cfg = BenchConfig.from_master_seed(42)
        assert cfg.terrain_count == 15
        assert len(cfg.seeds) == len(cfg.roughness_schedule) == 15
        assert cfg.roughness_schedule[0] == pytest.approx(0.05)
        assert cfg.roughness_schedule[-1] == pytest.approx(0.5)
        assert cfg.weight_specs == (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY)

    def test_from_master_seed_deterministic(self):
        assert BenchConfig.from_master_seed(7).seeds == BenchConfig.from_master_seed(7).seeds

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            BenchConfig(rows=16, cols=16, seeds=(1, 2), roughness_schedule=(0.1,))

    def test_zero_terrains_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            BenchConfig.from_master_seed(1, terrain_count=0)

    def test_odd_rows_rejected(self):
        with pytest.raises(ValueError, match="even"):
            BenchConfig(rows=15, cols=16, seeds=(1,), roughness_schedule=(0.1,))

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError, match="weight spec"):
            BenchConfig(rows=16, cols=16, seeds=(1,), roughness_schedule=(0.1,), weight_specs=())


class TestRun:
    def test_graph_and_baseline_built_once_per_terrain(self, monkeypatch):
        calls = {"build_graph": 0, "classical_spanning_tree": 0}
        for name in calls:
            def counting(*args, _build=getattr(bench_mod, name), _name=name):
                calls[_name] += 1
                return _build(*args)

            monkeypatch.setattr(bench_mod, name, counting)
        cfg = small_config(terrain_count=3, weight_specs=tuple(WeightSpec))
        assert len(run_benchmark(cfg)) == 3 * len(WeightSpec)
        assert calls == {"build_graph": 3, "classical_spanning_tree": 3}

    def test_record_count_and_order(self):
        cfg = small_config()
        records = run_benchmark(cfg)
        assert len(records) == cfg.terrain_count * len(cfg.weight_specs)
        spec_order = {spec: i for i, spec in enumerate(cfg.weight_specs)}
        keys = [(spec_order[r.spec], r.avg_slope, r.terrain_index) for r in records]
        assert keys == sorted(keys)

    def test_mst_never_heavier(self):
        for record in run_benchmark(small_config()):
            assert record.mst_weight <= record.classical_weight + 1e-9 * max(
                1.0, record.classical_weight
            )
            assert record.gap >= -1e-9

    def test_spec_pairs_share_avg_slope(self):
        records = run_benchmark(small_config())
        by_terrain: dict[int, set[float]] = {}
        for record in records:
            by_terrain.setdefault(record.terrain_index, set()).add(record.avg_slope)
        assert all(len(slopes) == 1 for slopes in by_terrain.values())

    def test_flat_schedule_gives_zero_gaps(self):
        cfg = BenchConfig.from_master_seed(
            3, terrain_count=3, rows=16, cols=16, max_obstacles=2, roughness_min=0.0, roughness_max=0.0
        )
        for record in run_benchmark(cfg):
            assert record.gap == pytest.approx(0.0, abs=1e-9)
            assert record.avg_slope == 0.0

    def test_deterministic_records(self):
        a = run_benchmark(small_config())
        b = run_benchmark(small_config())
        assert a == b

    def test_seeds_recorded(self):
        cfg = small_config()
        seeds = {record.seed for record in run_benchmark(cfg)}
        assert seeds == set(cfg.seeds)


class TestTrends:
    @staticmethod
    def make_records(gaps, slopes=None, spec=WeightSpec.PYTHAGORAS):
        slopes = slopes or [0.1 * (i + 1) for i in range(len(gaps))]
        return [
            BenchRecord(
                terrain_index=i,
                seed=i,
                avg_slope=slopes[i],
                spec=spec,
                classical_weight=100.0 + gap,
                mst_weight=100.0,
                gap=gap,
                gap_ratio=(100.0 + gap) / 100.0,
            )
            for i, gap in enumerate(gaps)
        ]

    def test_constant_gap_gives_zero_correlation(self):
        (trend,) = trend_statistics(self.make_records([5.0, 5.0, 5.0, 5.0]))
        assert trend.spearman_slope_gap == 0.0

    def test_increasing_gap_gives_one(self):
        (trend,) = trend_statistics(self.make_records([1.0, 2.0, 4.0, 9.0]))
        assert trend.spearman_slope_gap == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_gap_gives_minus_one(self):
        (trend,) = trend_statistics(self.make_records([9.0, 4.0, 2.0, 1.0]))
        assert trend.spearman_slope_gap == pytest.approx(-1.0, abs=1e-12)

    def test_means_reported(self):
        (trend,) = trend_statistics(self.make_records([1.0, 2.0, 3.0]))
        assert trend.mean_gap == pytest.approx(2.0)
        assert trend.mean_gap_ratio == pytest.approx(1.02)
        assert trend.count == 3

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            trend_statistics(self.make_records([1.0, 2.0]))
        with pytest.raises(ValueError, match="no records"):
            trend_statistics([])


class TestCsv:
    def test_header_and_shape(self):
        records = run_benchmark(small_config())
        trends = trend_statistics(records)
        lines = format_csv(records, trends).splitlines()
        assert lines[0] == CSV_HEADER
        data = [line for line in lines[1:] if not line.startswith("#")]
        comments = [line for line in lines[1:] if line.startswith("#")]
        assert len(data) == len(records)
        assert len(comments) == 2
        for line in comments:
            assert line.startswith("# correlation,")

    def test_six_decimal_floats(self):
        records = run_benchmark(small_config())
        first = format_csv(records).splitlines()[1].split(",")
        # avg_slope, classical, mst, gap, ratio all carry 6 decimals
        for token in (first[2], first[4], first[5], first[6], first[7]):
            assert len(token.split(".")[1]) == 6

    def test_byte_identical_across_runs(self):
        a = format_csv(run_benchmark(small_config()), trend_statistics(run_benchmark(small_config())))
        b = format_csv(run_benchmark(small_config()), trend_statistics(run_benchmark(small_config())))
        assert a == b
