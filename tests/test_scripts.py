"""Smoke tests: the experiment scripts run end to end on small inputs."""

from __future__ import annotations

import importlib.util
import json
import os
import runpy
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from slopecover.cli import main
from slopecover.coverage import load_path_file, validate_path
from slopecover.terrain import load_height_grid

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, args: list[str], monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_render_demo_writes_valid_routes_and_figures(tmp_path, monkeypatch, capsys):
    run_script("render_demo.py", ["--out-dir", str(tmp_path)], monkeypatch)
    grid = load_height_grid(tmp_path / "terrain.txt")
    assert (grid.rows, grid.cols) == (24, 24)
    for method in ("mst", "classical"):
        route = load_path_file(tmp_path / f"route_{method}.txt")
        validate_path(route, grid)
        svg = ET.parse(tmp_path / f"route_{method}.svg").getroot()
        assert len(svg.findall("{http://www.w3.org/2000/svg}polyline")) == 1
        assert svg.findall("{http://www.w3.org/2000/svg}line")  # the tree overlay
    out = capsys.readouterr().out
    assert "mst" in out and "classical" in out


def test_run_full_benchmark_matches_cli_bench(tmp_path, monkeypatch, capsys):
    size = ["--terrains", "3", "--rows", "32", "--cols", "32"]
    out = tmp_path / "bench.csv"
    run_script("run_full_benchmark.py", [*size, "--out", str(out)], monkeypatch)
    assert "wrote 6 records" in capsys.readouterr().out
    # the script's defaults are the paper's: master seed 42, 30 obstacles
    cli_out = tmp_path / "cli.csv"
    assert main(["bench", "--seed", "42", "--obstacles", "30", *size, "-o", str(cli_out)]) == 0
    assert out.read_bytes() == cli_out.read_bytes()


def test_run_full_benchmark_below_three_terrains_omits_correlations(tmp_path, monkeypatch, capsys):
    size = ["--terrains", "2", "--rows", "16", "--cols", "16", "--obstacles", "2"]
    out = tmp_path / "bench.csv"
    run_script("run_full_benchmark.py", [*size, "--out", str(out)], monkeypatch)
    printed = capsys.readouterr().out
    assert "wrote 4 records" in printed and "spearman" not in printed
    cli_out = tmp_path / "cli.csv"
    assert main(["bench", "--seed", "42", *size, "-o", str(cli_out)]) == 0
    assert out.read_bytes() == cli_out.read_bytes()
    assert "# correlation" not in out.read_text()


def test_bench_snapshot_writes_medians_and_source_size(tmp_path, monkeypatch, capsys):
    """The snapshot script on a stubbed benchmark runner, so nothing is timed."""
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPTS / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    (tmp_path / "src" / "slopecover").mkdir(parents=True)
    (tmp_path / "src" / "slopecover" / "__init__.py").write_text('"""x"""\n__all__ = ["a", "b"]\n')
    monkeypatch.chdir(tmp_path)
    calls = []

    def fake_run(workload):
        calls.append(workload)
        wall = [3.0, 1.0, 2.0][calls.count(workload) - 1]
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}

    assert module.main(["x"], run=fake_run) == 0
    assert "wrote BENCH_x.json" in capsys.readouterr().out
    assert calls == list(module.WORKLOADS) * 3  # workloads take turns
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert (record["label"], record["runs"], record["src_lines"], record["all_size"]) == ("x", 3, 2, 2)
    assert record["nproc"] == os.cpu_count()
    for workload in module.WORKLOADS:
        wall = record["workloads"][workload]["wall_s"]
        assert (wall["median"], wall["unit"], wall["runs"]) == (2.0, "s", [3.0, 1.0, 2.0])
        assert record["workloads"][workload]["peak_rss_mb"]["median"] == 50.0
    failing = {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}
    with pytest.raises(RuntimeError, match="paper-bench: 1 of 4 commands failed"):
        module.main(["y"], run=lambda workload: failing)
    assert not (tmp_path / "BENCH_y.json").exists()
