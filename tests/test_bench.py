from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from oracles import stable_weight_kruskal
from slopecover import bench as bench_mod
from slopecover import graph as graph_mod
from slopecover.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRecord,
    format_csv,
    reported_trends,
    run_benchmark,
    trend_statistics,
)
from slopecover.graph import SpanningTree, build_graph, tree_weight
from slopecover.terrain import aggregate, generate_terrain
from slopecover.weights import WeightSpec

SMALL = dict(terrains=4, rows=16, cols=16, obstacles=2, seed=5)


def small_config(**overrides):
    return BenchConfig(**{**SMALL, **overrides})


class TestConfig:
    def test_defaults_are_the_paper_run(self):
        assert BenchConfig() == BenchConfig(
            terrains=15,
            rows=250,
            cols=250,
            obstacles=30,
            seed=0,
            weights=(WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY),
            roughness_min=0.05,
            roughness_max=0.5,
            spacing=1.0,
        )

    def test_terrain_specs_derive_from_the_seed(self):
        specs = BenchConfig(seed=42).terrain_specs()
        seeds = np.random.SeedSequence(42).generate_state(15, dtype=np.uint64)
        assert [spec.seed for spec in specs] == [int(s) for s in seeds]
        assert [spec.roughness for spec in specs] == np.linspace(0.05, 0.5, 15).tolist()
        assert {(s.rows, s.cols, s.max_obstacles, s.spacing) for s in specs} == {(250, 250, 30, 1.0)}

    def test_terrain_specs_deterministic(self):
        assert BenchConfig(seed=7).terrain_specs() == BenchConfig(seed=7).terrain_specs()

    def test_zero_terrains_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            BenchConfig(terrains=0)

    def test_odd_rows_rejected(self):
        with pytest.raises(ValueError, match="even"):
            small_config(rows=15)

    def test_every_terrain_spec_checked(self):
        # terrain 0 is valid; a later terrain's roughness is not
        with pytest.raises(ValueError, match=r"roughness must lie in \[0, 1\], got 1.5"):
            small_config(terrains=2, roughness_min=0.5, roughness_max=1.5)
        with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
            small_config(seed=-2)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError, match="weight spec"):
            small_config(weights=())


    @pytest.mark.parametrize("key", ["terrains", "rows", "cols", "obstacles", "seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, False, "4", None])
    def test_integer_keys_reject_other_types(self, key, value):
        with pytest.raises(TypeError, match=f"^{key} must be an integer, got {value!r}$"):
            small_config(**{key: value})

    @pytest.mark.parametrize("key", ["roughness_min", "roughness_max", "spacing"])
    @pytest.mark.parametrize("value", [True, False, "0.1", "2", None, 1j])
    def test_real_keys_reject_other_types(self, key, value):
        with pytest.raises(TypeError, match=f"^{key} must be a real number, got {value!r}$"):
            small_config(**{key: value})

    def test_real_keys_accept_integers_and_numpy_floats(self):
        cfg = small_config(roughness_min=np.float32(0.25), roughness_max=1, spacing=np.int64(2))
        assert (cfg.roughness_min, cfg.roughness_max, cfg.spacing) == (0.25, 1.0, 2.0)
        assert all(type(value) is float for value in (cfg.roughness_min, cfg.roughness_max, cfg.spacing))

    @pytest.mark.parametrize("key", ["roughness_min", "roughness_max", "spacing"])
    @pytest.mark.parametrize("value", [10**400, -10**400, Fraction(10**400, 3)])
    def test_real_keys_beyond_the_float_range_are_named(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be within the float range, got "):
            small_config(**{key: value})

    @pytest.mark.parametrize("weights, bad", [(("pythagoras",), "'pythagoras'"),
                                              ((WeightSpec.UNIT, 1), "1"), ((None,), "None")])
    def test_weights_reject_other_types(self, weights, bad):
        with pytest.raises(TypeError, match=f"^weights must hold WeightSpec members, got {bad}$"):
            small_config(weights=weights)

    def test_integer_keys_accept_numpy_integers(self):
        cfg = small_config(terrains=np.int64(4), seed=np.uint32(5))
        assert cfg == small_config()
        assert type(cfg.terrains) is int and type(cfg.seed) is int


class TestRun:
    def test_graph_and_baseline_built_once_per_terrain(self, monkeypatch):
        # CoverageGraph counts every graph made anywhere, the generator's included
        sites = {"build_graph": bench_mod, "classical_spanning_tree": bench_mod,
                 "CoverageGraph": graph_mod}
        calls = dict.fromkeys(sites, 0)
        for name, module in sites.items():
            def counting(*args, _build=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _build(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        cfg = small_config(terrains=3, weights=tuple(WeightSpec))
        assert len(run_benchmark(cfg)) == 3 * len(WeightSpec)
        assert calls == {"build_graph": 3, "classical_spanning_tree": 3, "CoverageGraph": 3}

    def test_each_spec_gets_its_own_kruskal_tree(self):
        """Specs share a tree only when their Kruskal orders are equal: unit
        weights (index order) must not lend theirs to the slope-aware specs."""
        cfg = small_config(terrains=3, weights=(WeightSpec.UNIT, WeightSpec.PYTHAGORAS,
                                                WeightSpec.SLOPE_PENALTY))
        records = {(r.terrain_index, r.spec): r for r in run_benchmark(cfg)}
        for i, terrain in enumerate(cfg.terrain_specs()):
            graph = build_graph(aggregate(generate_terrain(terrain)))
            for spec in cfg.weights:
                tree = SpanningTree(graph=graph, edges=stable_weight_kruskal(graph, spec))
                assert records[i, spec].mst_weight == tree_weight(tree, graph.weights(spec))

    def test_record_count_and_order(self):
        cfg = small_config()
        records = run_benchmark(cfg)
        assert len(records) == cfg.terrains * len(cfg.weights)
        spec_order = {spec: i for i, spec in enumerate(cfg.weights)}
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
        cfg = small_config(terrains=3, seed=3, roughness_min=0.0, roughness_max=0.0)
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
        assert seeds == {spec.seed for spec in cfg.terrain_specs()}


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


    def test_reported_trends_need_three_records_per_spec(self):
        assert reported_trends([]) == ()
        assert reported_trends(self.make_records([1.0, 2.0])) == ()
        records = self.make_records([1.0, 2.0, 4.0])
        assert reported_trends(records) == trend_statistics(records)
        short = records + self.make_records([1.0, 2.0], spec=WeightSpec.SLOPE_PENALTY)
        assert reported_trends(short) == ()


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
