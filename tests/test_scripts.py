"""Smoke tests: the experiment scripts run end to end on small inputs."""

from __future__ import annotations

import runpy
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

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
