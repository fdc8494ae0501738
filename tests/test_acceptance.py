"""Acceptance suite: one test per criterion, each reported as a PASS/FAIL
line in the terminal summary (see conftest.py). Tolerances are fixed here,
not tuned elsewhere."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from oracles import brute_force_min_spanning_weight, coverage_violations, random_connected_mega, random_weight_spec
from slopecover.bench import BenchConfig, run_benchmark, trend_statistics
from slopecover.cli import main
from slopecover.coverage import circumnavigate
from slopecover.graph import build_graph
from slopecover.spanning import classical_spanning_tree, minimum_spanning_tree, tree_weight
from slopecover.terrain import TerrainGenSpec, aggregate, generate_terrain
from slopecover.weights import WeightSpec, edge_weights

SPLIT_8X8 = (
    "\n".join(["8 8 1.0"] + ["0 0 0 0 0 0 0 0"] * 8)
    + "\nMASK\n"
    + "\n".join(["....##.."] * 8)
    + "\n"
)


@pytest.mark.acceptance(1, "weight functions: exact values, flat inputs return d")
def test_criterion_1_weight_functions():
    def price(spec, h1, h2, d):  # edge_weights on one pair of heights
        return float(edge_weights(spec, np.array([h1], np.float64), np.array([h2], np.float64), d)[0])

    pythagoras, penalty = WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY
    assert abs(price(pythagoras, 3, 0, 4) - 5.0) <= 1e-12
    assert abs(price(penalty, 3, 0, 4) - 8.75) <= 1e-12
    for h, d in ((0.0, 1.0), (-3.5, 0.25), (12.0, 7.5), (1e4, 3.0)):
        assert abs(price(pythagoras, h, h, d) - d) <= 1e-12
        assert abs(price(penalty, h, h, d) - d) <= 1e-12


@pytest.mark.acceptance(2, "MST equals brute-force enumeration on 200 small grids")
def test_criterion_2_mst_oracle():
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        mega = random_connected_mega(rng, max_nodes=8)
        spec = random_weight_spec(rng)
        graph = build_graph(mega)
        expected = brute_force_min_spanning_weight(graph, spec)
        weights = graph.weights(spec)
        actual = tree_weight(minimum_spanning_tree(graph, weights), weights)
        assert actual == pytest.approx(expected, rel=1e-9)


@pytest.mark.acceptance(3, "coverage cycles valid on 50 random terrains")
def test_criterion_3_coverage_invariants():
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = TerrainGenSpec(
            rows=2 * int(rng.integers(4, 21)),  # 8 to 40
            cols=2 * int(rng.integers(4, 21)),
            seed=int(rng.integers(2**32)),
            max_obstacles=int(rng.integers(0, 7)),
            roughness=float(rng.uniform(0.0, 0.5)),
        )
        grid = generate_terrain(spec)
        mega = aggregate(grid)
        graph = build_graph(mega)
        tree = minimum_spanning_tree(graph, graph.weights(WeightSpec.PYTHAGORAS))
        path = circumnavigate(tree)
        assert path.closed
        assert len(path.cells) == 4 * int((~mega.blocked).sum())
        assert coverage_violations(path, grid) == []


@pytest.mark.acceptance(4, "flat terrain: classical and MST tree weights tie")
def test_criterion_4_flat_equivalence():
    for seed in range(10):
        rows = 12 + 2 * (seed % 4)
        grid = generate_terrain(
            TerrainGenSpec(rows=rows, cols=rows, seed=seed, max_obstacles=seed % 3, roughness=0.0)
        )
        mega = aggregate(grid)
        for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
            graph = build_graph(mega)
            weights = graph.weights(spec)
            mst_w = tree_weight(minimum_spanning_tree(graph, weights), weights)
            classical_w = tree_weight(classical_spanning_tree(graph), weights)
            assert mst_w == pytest.approx(classical_w, rel=1e-9)


@pytest.mark.acceptance(5, "full-scale benchmark reproduces the qualitative trends")
def test_criterion_5_full_scale_benchmark():
    cfg = BenchConfig(seed=42)  # 15 terrains, 250x250, <=30 obstacles, slopes 0.05-0.5
    records = run_benchmark(cfg)
    assert len(records) == 30
    # (a) the MST tree is never heavier than the baseline tree
    for r in records:
        assert r.mst_weight <= r.classical_weight + 1e-9 * abs(r.classical_weight)
    trends = {t.spec: t for t in trend_statistics(records)}
    # (b) the gap grows with average slope under both weight functions
    assert trends[WeightSpec.PYTHAGORAS].spearman_slope_gap > 0.0
    assert trends[WeightSpec.SLOPE_PENALTY].spearman_slope_gap > 0.0
    # (c) the slope penalty makes the advantage more pronounced
    assert (
        trends[WeightSpec.SLOPE_PENALTY].mean_gap_ratio
        > trends[WeightSpec.PYTHAGORAS].mean_gap_ratio
    )


@pytest.mark.acceptance(6, "bench and gen-terrain are byte-deterministic")
def test_criterion_6_determinism(tmp_path, capsys):
    bench_args = ["bench", "--terrains", "5", "--rows", "40", "--cols", "40",
                  "--obstacles", "4", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(bench_args + ["-o", str(a)]) == 0
    assert main(bench_args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    gen_args = ["gen-terrain", "--rows", "250", "--cols", "250", "--seed", "1",
                "--obstacles", "30", "--roughness", "0.3"]
    ta, tb = tmp_path / "ta.txt", tmp_path / "tb.txt"
    assert main(gen_args + ["-o", str(ta)]) == 0
    assert main(gen_args + ["-o", str(tb)]) == 0
    assert ta.read_bytes() == tb.read_bytes()
    capsys.readouterr()


@pytest.mark.acceptance(7, "CLI exit codes and render output contract")
def test_criterion_7_cli_contract(tmp_path, capsys):
    # exit 2: invalid flags
    assert main(["gen-terrain", "--rows", "3", "--cols", "4", "-o", str(tmp_path / "t.txt")]) == 2
    assert main(["bench", "--terrains", "0"]) == 2
    # exit 3: I/O failures
    assert main(["plan", "--terrain", str(tmp_path / "missing.txt"),
                 "-o", str(tmp_path / "p.txt")]) == 3
    assert main(["gen-terrain", "--rows", "4", "--cols", "4",
                 "-o", str(tmp_path / "no-dir" / "t.txt")]) == 3
    # exit 4: generation failure (the single mega cell is always blocked)
    assert main(["gen-terrain", "--rows", "2", "--cols", "2", "--obstacles", "1",
                 "-o", str(tmp_path / "t.txt")]) == 4
    # exit 5: disconnected terrain, component count reported
    split = tmp_path / "split.txt"
    split.write_text(SPLIT_8X8)
    assert main(["plan", "--terrain", str(split), "-o", str(tmp_path / "p.txt")]) == 5
    assert "2 disconnected" in capsys.readouterr().err
    # exit 6: path/terrain mismatch
    terrain = tmp_path / "t.txt"
    route = tmp_path / "r.txt"
    image = tmp_path / "r.svg"
    assert main(["gen-terrain", "--rows", "10", "--cols", "10", "--seed", "4",
                 "--obstacles", "1", "--roughness", "0.2", "-o", str(terrain)]) == 0
    assert main(["plan", "--terrain", str(terrain), "-o", str(route)]) == 0
    other = tmp_path / "other.txt"
    assert main(["gen-terrain", "--rows", "6", "--cols", "6", "-o", str(other)]) == 0
    assert main(["render", "--terrain", str(other), "--path", str(route),
                 "-o", str(image)]) == 6
    # render contract: well-formed XML, one polyline, point count = length + 1
    assert main(["render", "--terrain", str(terrain), "--path", str(route),
                 "-o", str(image)]) == 0
    root = ET.fromstring(image.read_text())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1
    path_length = int(route.read_text().split()[1])
    assert len(polylines[0].attrib["points"].split()) == path_length + 1
    capsys.readouterr()
