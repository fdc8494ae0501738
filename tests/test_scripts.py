"""Smoke tests: the experiment scripts run end to end on small inputs."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import runpy
import shutil
import statistics
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
    # the elapsed time in whole milliseconds, so a gain of a tenth of a second shows
    assert re.fullmatch(rf"wrote 6 records to {re.escape(str(out))} in \d+ ms",
                        capsys.readouterr().out.splitlines()[0])
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


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_checkout(root: Path, exported: list[str]) -> Path:
    """The files bench_snapshot reads: perfbench/run.py and the package's __all__."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "src" / "slopecover").mkdir(parents=True)
    (root / "src" / "slopecover" / "__init__.py").write_text(f'"""x"""\n__all__ = {exported!r}\n')
    return root


def test_bench_snapshot_writes_medians_and_source_size(tmp_path, monkeypatch, capsys):
    """The snapshot script on a stubbed benchmark runner, so nothing is timed."""
    module = load_script("bench_snapshot")
    fake_checkout(tmp_path, ["a", "b"])
    monkeypatch.chdir(tmp_path)
    calls = []

    def fake_run(workload, root):
        assert root == tmp_path
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
        module.main(["y"], run=lambda workload, root: failing)
    assert not (tmp_path / "BENCH_y.json").exists()


def test_bench_snapshot_against_alternates_the_two_checkouts(tmp_path, monkeypatch, capsys):
    """--against runs each workload in both checkouts in every round, this one
    first in even rounds, ten rounds, and writes one file per checkout here,
    the other named by its short SHA. Then it prints, per workload and
    end-to-end metric, both medians, the median of the per-pair differences
    (this checkout minus the other), the pairs won and lost and the other
    checkout's interquartile range."""
    module = load_script("bench_snapshot")
    here = fake_checkout(tmp_path / "here", ["a", "b"])
    there = fake_checkout(tmp_path / "there", ["a", "b", "c"])
    (tmp_path / "bare").mkdir()
    short_shas = {"there": "0a1b2c3", "bare": "9f8e7d6"}  # "here" is not a git checkout
    monkeypatch.setattr(module, "git", lambda root, *args: short_shas.get(root.name)
                        if args == ("rev-parse", "--short", "HEAD") else None)
    monkeypatch.chdir(here)
    end_to_end = [{"name": "wall_s", "better": "lower"}, {"name": "cells_per_s", "better": "higher"},
                  {"name": "peak_rss_mb", "better": "lower"}]
    (here / "BENCHMARK.json").write_text(json.dumps({"end_to_end": end_to_end}))
    calls = []

    def fake_run(workload, root):
        calls.append((workload, root.name))
        wall = 1.0 if root == here else 2.0
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {"wall_s": {"value": wall + len(calls) / 1000, "unit": "s"},
                            "cells_per_s": {"value": wall, "unit": "cells/s"},
                            "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}

    assert module.main(["new", "--against", "../there"], run=fake_run) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[:2] == ["wrote BENCH_new.json", "wrote BENCH_0a1b2c3.json"]
    expected = []
    for k in range(10):
        for workload in module.WORKLOADS:
            sides = ["here", "there"] if k % 2 == 0 else ["there", "here"]
            expected += [(workload, side) for side in sides]
    assert calls == expected
    new = json.loads((here / "BENCH_new.json").read_text())
    old = json.loads((here / "BENCH_0a1b2c3.json").read_text())
    assert not (there / "BENCH_0a1b2c3.json").exists()
    assert (new["label"], new["runs"], new["all_size"]) == ("new", 10, 2)
    assert (old["label"], old["runs"], old["all_size"]) == ("0a1b2c3", 10, 3)
    for workload in module.WORKLOADS:
        assert [int(v) for v in new["workloads"][workload]["wall_s"]["runs"]] == [1] * 10
        assert [int(v) for v in old["workloads"][workload]["wall_s"]["runs"]] == [2] * 10
        here_wall, there_wall = new["workloads"][workload]["wall_s"], old["workloads"][workload]["wall_s"]
        q1, _, q3 = statistics.quantiles(there_wall["runs"], n=4, method="inclusive")
        # this checkout runs first in even rounds, so its run is 0.001 earlier there and later in odd ones
        differences = [a - b for a, b in zip(here_wall["runs"], there_wall["runs"])]
        assert sorted({round(d, 9) for d in differences}) == [-1.001, -0.999]
        assert (f"{workload} wall_s (lower is better): new {here_wall['median']:.4g}, 0a1b2c3 "
                f"{there_wall['median']:.4g}, median pair difference {statistics.median(differences):+.4g}; "
                f"new won 10 and lost 0 of 10 pairs; 0a1b2c3 IQR {q3 - q1:.4g}") in out
        assert (f"{workload} cells_per_s (higher is better): new 1, 0a1b2c3 2, median pair difference -1; "
                "new won 0 and lost 10 of 10 pairs; 0a1b2c3 IQR 0") in out
        assert (f"{workload} peak_rss_mb (lower is better): new 50, 0a1b2c3 50, median pair difference +0; "
                "new won 0 and lost 0 of 10 pairs; 0a1b2c3 IQR 0") in out  # ties count for neither side
    with pytest.raises(SystemExit):
        module.main(["new", "--against", "../bare"], run=fake_run)  # no perfbench there
    assert "is not the root of a checkout" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        module.main(["new", "--against", "."], run=fake_run)
    assert "is not a git checkout" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        module.main(["0a1b2c3", "--against", "../there"], run=fake_run)
    assert "both checkouts would write BENCH_0a1b2c3.json" in capsys.readouterr().err
    # the median of the pair differences is not the difference of the medians (5 - 2)
    runs = {"a": [1.0, 5.0, 9.0], "b": [2.0, 6.0, 1.0]}
    snapshots = [{"label": label, "workloads": {name: {"wall_s": {"median": statistics.median(values),
                                                                  "runs": values}}
                                               for name in module.WORKLOADS}}
                 for label, values in runs.items()]
    assert module.verdict_lines(*snapshots, {"wall_s": "lower"})[0] == (
        "paper-bench wall_s (lower is better): a 5, b 2, median pair difference -1; "
        "a won 2 and lost 1 of 3 pairs; b IQR 2.5")


def test_bench_snapshot_runs_only_the_named_workloads(tmp_path, monkeypatch, capsys):
    """--workload, repeated, runs the workloads named, in the usual turn order,
    for both checkouts; the files and the printed pairs hold only them."""
    module = load_script("bench_snapshot")
    here = fake_checkout(tmp_path / "here", ["a"])
    there = fake_checkout(tmp_path / "there", ["a"])
    monkeypatch.setattr(module, "git", lambda root, *args: "0a1b2c3" if root == there else None)
    monkeypatch.chdir(here)
    (here / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    calls = []

    def fake_run(workload, root):
        calls.append(workload)
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0 if root == here else 2.0, "unit": "s"}}}

    named = ["--workload", "render-500", "--workload", "plan-1000"]
    assert module.main(["new", "--against", "../there", *named], run=fake_run) == 0
    assert calls == ["plan-1000", "plan-1000", "render-500", "render-500"] * 10
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[2:]] == ["plan-1000", "render-500"]
    for name in ("BENCH_new.json", "BENCH_0a1b2c3.json"):
        assert list(json.loads((here / name).read_text())["workloads"]) == ["plan-1000", "render-500"]
    calls.clear()
    assert module.main(["one", "--workload", "paper-bench"], run=fake_run) == 0
    assert calls == ["paper-bench"] * 3
    with pytest.raises(SystemExit):
        module.main(["x", "--workload", "plan-2000"], run=fake_run)
    assert "invalid choice: 'plan-2000'" in capsys.readouterr().err


def test_plan_peaks_reports_each_run_against_a_checkout(tmp_path, monkeypatch, capsys):
    """Both methods in this checkout and in a copy of its src/, one run each at 16^2."""
    root = SCRIPTS.parent
    monkeypatch.chdir(root)
    monkeypatch.syspath_prepend(str(SCRIPTS))  # plan_peaks imports bench_snapshot
    module = load_script("plan_peaks")
    monkeypatch.setattr(module, "RUNS", 1)
    with pytest.raises(SystemExit):
        module.main(["16", "--against", str(root)])
    assert "DIR is this checkout" in capsys.readouterr().err
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    assert module.main(["16", "--against", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    other = module.git(tmp_path, "rev-parse", "--short", "HEAD") or str(tmp_path)
    assert [line.rsplit(": ", 1)[0] for line in lines] == [  # this checkout first in round 0
        f"16^2 {method} {label}" for method in ("mst", "classical") for label in ("here", other)]
    for line in lines:
        assert re.fullmatch(r".*: \d+\.\d MiB, \d+\.\d\d s, route same, stdout same", line)
