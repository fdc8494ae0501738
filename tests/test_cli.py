from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import slopecover.bench
import slopecover.cli
from slopecover.bench import BenchConfig, run_benchmark
from slopecover.cli import build_parser, main
from slopecover.graph import build_graph
from slopecover.spanning import classical_spanning_tree
from slopecover.terrain import aggregate, load_height_grid
from test_golden import TERRAIN_ARGS

FLAT_8X8 = "\n".join(["8 8 1.0"] + ["0 0 0 0 0 0 0 0"] * 8) + "\n"

# a full obstacle wall through fine columns 4-5 blocks mega column 2,
# splitting the free mega cells into two regions
SPLIT_8X8 = (
    "\n".join(["8 8 1.0"] + ["0 0 0 0 0 0 0 0"] * 8)
    + "\nMASK\n"
    + "\n".join(["....##.."] * 8)
    + "\n"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def metrics_from(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.strip().splitlines())


class TestGenTerrain:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        code, _, err = run(
            [
                "gen-terrain", "--rows", "16", "--cols", "12", "--seed", "1",
                "--obstacles", "2", "--roughness", "0.3", "-o", str(out),
            ],
            capsys,
        )
        assert code == 0 and err == ""
        grid = load_height_grid(out)
        assert grid.rows == 16 and grid.cols == 12

    def test_deterministic_files(self, tmp_path, capsys):
        argv = ["gen-terrain", "--rows", "10", "--cols", "10", "--seed", "9",
                "--obstacles", "1", "--roughness", "0.2"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(argv + ["-o", str(a)], capsys)[0] == 0
        assert run(argv + ["-o", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_odd_rows_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["gen-terrain", "--rows", "3", "--cols", "4", "-o", str(tmp_path / "t.txt")], capsys
        )
        assert code == 2
        assert "even" in err

    # 1e308 is finite, but aggregation doubles it past the largest float; 5e307
    # doubles to a finite value, but roughness 0.5 then scales heights past it
    @pytest.mark.parametrize(
        "spacing, roughness",
        [("inf", "0"), ("nan", "0"), ("0", "0"), ("-1", "0"), ("1e308", "0"), ("5e307", "0.5")],
        ids=["inf", "nan", "0", "-1", "1e308", "5e307-roughness-0.5"],
    )
    def test_invalid_spacing_exit_2(self, tmp_path, capsys, spacing, roughness):
        out = tmp_path / "t.txt"
        code, _, err = run(
            ["gen-terrain", "--rows", "4", "--cols", "4", "--spacing", spacing,
             "--roughness", roughness, "-o", str(out)],
            capsys,
        )
        assert code == 2
        assert "invalid flags" in err and "spacing" in err
        if roughness != "0":
            assert "roughness" in err
        assert not out.exists()

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "t.txt"
        code, _, err = run(["gen-terrain", "--rows", "4", "--cols", "4", "-o", str(out)], capsys)
        assert code == 3

    def test_generation_failure_exit_4(self, tmp_path, capsys):
        code, _, err = run(
            ["gen-terrain", "--rows", "2", "--cols", "2", "--obstacles", "1",
             "-o", str(tmp_path / "t.txt")],
            capsys,
        )
        assert code == 4
        assert "connected" in err


class TestPlan:
    def plan(self, terrain, out, capsys, method="mst", weight="pythagoras"):
        return run(
            ["plan", "--terrain", str(terrain), "--weight", weight, "--method", method,
             "-o", str(out)],
            capsys,
        )

    def test_metrics_and_path_file(self, tmp_path, capsys):
        terrain = tmp_path / "flat.txt"
        terrain.write_text(FLAT_8X8)
        out = tmp_path / "route.txt"
        code, stdout, _ = self.plan(terrain, out, capsys)
        assert code == 0
        metrics = metrics_from(stdout)
        assert set(metrics) == {
            "avg_slope", "tree_weight", "path_length", "path_cost", "sacrificed_cells",
        }
        # 8x8 flat grid: 16 free mega cells
        assert metrics["path_length"] == "64"
        assert metrics["avg_slope"] == "0.000000"
        assert out.exists()
        assert out.read_text().splitlines()[0] == "PATH 64 closed"

    def test_flat_methods_tie(self, tmp_path, capsys):
        terrain = tmp_path / "flat.txt"
        terrain.write_text(FLAT_8X8)
        _, out_mst, _ = self.plan(terrain, tmp_path / "a.txt", capsys, method="mst")
        _, out_classical, _ = self.plan(terrain, tmp_path / "b.txt", capsys, method="classical")
        assert metrics_from(out_mst)["tree_weight"] == metrics_from(out_classical)["tree_weight"]

    def test_sloped_mst_no_heavier_than_classical(self, tmp_path, capsys):
        terrain = tmp_path / "hilly.txt"
        code, _, _ = run(
            ["gen-terrain", "--rows", "20", "--cols", "20", "--seed", "6",
             "--obstacles", "3", "--roughness", "0.4", "-o", str(terrain)],
            capsys,
        )
        assert code == 0
        _, out_mst, _ = self.plan(terrain, tmp_path / "a.txt", capsys, method="mst")
        _, out_classical, _ = self.plan(terrain, tmp_path / "b.txt", capsys, method="classical")
        mst_w = float(metrics_from(out_mst)["tree_weight"])
        classical_w = float(metrics_from(out_classical)["tree_weight"])
        assert mst_w <= classical_w + 1e-9

    def test_missing_terrain_exit_3(self, tmp_path, capsys):
        code, _, _ = self.plan(tmp_path / "nope.txt", tmp_path / "o.txt", capsys)
        assert code == 3

    @pytest.mark.parametrize("spacing", ["inf", "nan", "0"])
    def test_non_finite_or_zero_spacing_exit_3(self, tmp_path, capsys, spacing):
        terrain = tmp_path / "t.txt"
        terrain.write_text(f"2 2 {spacing}\n0 0\n0 0\n")
        code, out, err = self.plan(terrain, tmp_path / "o.txt", capsys)
        assert code == 3
        assert out == ""
        assert "spacing" in err

    def test_non_finite_path_cost_exit_3(self, tmp_path, capsys):
        # mega means stay finite, but one fine step spans 2e308
        terrain = tmp_path / "t.txt"
        terrain.write_text("2 4 1\n1e308 -1e308 0 0\n1e308 -1e308 0 0\n")
        output = tmp_path / "o.txt"
        code, out, err = self.plan(terrain, output, capsys, weight="penalty")
        assert code == 3
        assert out == ""
        assert "path_cost is not finite" in err
        assert not output.exists()

    def test_disconnected_terrain_exit_5(self, tmp_path, capsys):
        terrain = tmp_path / "split.txt"
        terrain.write_text(SPLIT_8X8)
        code, _, err = self.plan(terrain, tmp_path / "o.txt", capsys)
        assert code == 5
        assert "2 disconnected" in err

    def test_disconnected_terrain_classical_exit_5(self, tmp_path, capsys):
        # the depth-first baseline finds the split itself, with the MST's message
        terrain = tmp_path / "split.txt"
        terrain.write_text(SPLIT_8X8)
        output = tmp_path / "o.txt"
        code, out, err = self.plan(terrain, output, capsys, method="classical")
        assert code == 5
        assert out == ""
        assert err == "error: free mega cells form 2 disconnected regions (need exactly 1)\n"
        assert not output.exists()

    def test_all_blocked_terrain_exit_5(self, tmp_path, capsys):
        terrain = tmp_path / "blocked.txt"
        terrain.write_text("2 2 1.0\n0 0\n0 0\nMASK\n##\n##\n")
        output = tmp_path / "o.txt"
        code, out, err = self.plan(terrain, output, capsys)
        assert code == 5
        assert out == ""
        assert "no free cells" in err
        assert not output.exists()

    def test_all_blocked_terrain_classical_exit_5(self, tmp_path, capsys):
        terrain = tmp_path / "blocked.txt"
        terrain.write_text("2 2 1.0\n0 0\n0 0\nMASK\n##\n##\n")
        output = tmp_path / "o.txt"
        code, out, err = self.plan(terrain, output, capsys, method="classical")
        assert code == 5
        assert out == ""
        assert err == "error: mega grid has no free cells (need exactly 1 free region)\n"
        assert not output.exists()


@pytest.mark.parametrize("command", [["plan"], ["render", "--path", "missing.txt"]])
def test_oversized_header_exit_3_without_allocating(tmp_path, capsys, command):
    # the header asks for 2 x 10^12 heights (16 TB) in a file of 4
    terrain = tmp_path / "t.txt"
    terrain.write_text("2 1000000000000 1.0\n1 2\n3 4\n")
    tracemalloc.start()
    try:
        code, out, err = run([*command, "--terrain", str(terrain), "-o", str(tmp_path / "o")], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == "error: height row 0: expected 1000000000000 values, got 2\n"
    assert peak < 2**20


def test_region_count_runs_only_in_the_generator(tmp_path, capsys, monkeypatch):
    # on a connected terrain the spanning tree itself proves one region, so no
    # module but the generator's may count regions on the plan or bench path
    terrain = tmp_path / "t.txt"
    assert run(["gen-terrain", "--rows", "16", "--cols", "16", "--seed", "3",
                "--obstacles", "2", "--roughness", "0.3", "-o", str(terrain)], capsys)[0] == 0

    def forbidden(mask):
        raise AssertionError("component_count called outside the generator")

    for name, module in list(sys.modules.items()):
        if name.startswith("slopecover.") and name != "slopecover.terrain":
            if hasattr(module, "component_count"):
                monkeypatch.setattr(module, "component_count", forbidden)
    for method in ("mst", "classical"):
        code, _, err = run(["plan", "--terrain", str(terrain), "--method", method,
                            "-o", str(tmp_path / f"{method}.txt")], capsys)
        assert (code, err) == (0, ""), method
        assert (tmp_path / f"{method}.txt").exists()
    cfg = BenchConfig(terrains=2, rows=16, cols=16, obstacles=2, seed=5)
    assert len(run_benchmark(cfg)) == 4


class TestBench:
    ARGS = ["bench", "--terrains", "3", "--rows", "12", "--cols", "12",
            "--obstacles", "1", "--seed", "5"]

    def test_row_count_to_stdout(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("terrain,seed,avg_slope,spec,")
        data = [line for line in lines[1:] if not line.startswith("#")]
        comments = [line for line in lines[1:] if line.startswith("#")]
        assert len(data) == 6  # 3 terrains x 2 specs
        assert len(comments) == 2

    def test_zero_terrains_exit_2(self, capsys):
        code, _, err = run(["bench", "--terrains", "0"], capsys)
        assert code == 2
        assert "at least 1" in err

    def test_roughness_beyond_one_exit_2_before_generating(self, tmp_path, capsys, monkeypatch):
        # the schedule is 0.05, 1.025, 2: terrain 0 is valid, terrain 1 is the first that is not
        monkeypatch.setattr("slopecover.bench.generate_terrain", lambda spec: pytest.fail(
            "a terrain was generated before the whole schedule was checked"))
        output = tmp_path / "b.csv"
        code, out, err = run(["bench", "--terrains", "3", "--rows", "16", "--cols", "16",
                              "--obstacles", "1", "--roughness-max", "2", "-o", str(output)],
                             capsys)
        assert (code, out) == (2, "")
        assert err == ("error: invalid benchmark config: "
                       "roughness must lie in [0, 1], got 1.025\n")
        assert not output.exists()

    def test_byte_identical_csv_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(self.ARGS + ["-o", str(a)], capsys)[0] == 0
        assert run(self.ARGS + ["-o", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# benchmark settings\n"
            "terrains = 3\n"
            "rows = 12\n"
            "cols = 12\n"
            "obstacles = 1\n"
            "seed = 5\n"
        )
        code_file, out_file, _ = run(["bench", "--config", str(cfg)], capsys)
        assert code_file == 0
        code_flag, out_flag, _ = run(self.ARGS, capsys)
        assert out_file == out_flag
        # flags win over the config file
        code_override, out_override, _ = run(
            ["bench", "--config", str(cfg), "--terrains", "4"], capsys
        )
        assert code_override == 0
        data = [l for l in out_override.strip().splitlines()[1:] if not l.startswith("#")]
        assert len(data) == 8

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ("rows = abc\n", [], "rows: invalid literal for int() with base 10: 'abc'"),
            ("terrains = 1.5\n", [], "terrains: invalid literal for int() with base 10: '1.5'"),
            ("spacing = x\n", [], "spacing: could not convert string to float: 'x'"),
            ("weights = unit, foo\n", [],
             "weights: unknown weight spec 'foo' (expected one of: unit, pythagoras, penalty)"),
            ("", ["--seed", "-1"], "seed must be non-negative, got -1"),
            ("seed = -1\n", [], "seed must be non-negative, got -1"),
        ],
        ids=["rows-abc", "terrains-1.5", "spacing-x", "weights-foo", "flag-seed-1", "file-seed-1"],
    )
    def test_bad_value_names_its_key_exit_2(self, tmp_path, capsys, config, flags, message):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(config)
        code, out, err = run(["bench", "--config", str(cfg), *flags], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: invalid benchmark config: {message}\n"

    def test_repeated_weight_spec_exit_2(self, tmp_path, capsys):
        output = tmp_path / "b.csv"
        code, out, err = run(self.ARGS + ["--weights", "penalty,unit,penalty", "-o", str(output)],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid benchmark config: weight spec penalty is repeated\n"
        assert not output.exists()

    def test_flags_are_the_config_fields_with_their_defaults(self):
        (bench,) = [action.choices["bench"] for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
        flags = {action.dest: action.help for action in bench._actions
                 if action.dest not in ("help", "config", "output")}
        fields = dataclasses.fields(BenchConfig)
        assert list(flags) == [field.name for field in fields]
        for field in fields:
            default = field.default
            if field.name == "weights":
                default = ",".join(spec.token for spec in default)
            assert flags[field.name].endswith(f"(default {default})"), field.name

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        code, _, err = run(["bench", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown key" in err

    def test_missing_config_file_exit_3(self, tmp_path, capsys):
        code, _, _ = run(["bench", "--config", str(tmp_path / "none.cfg")], capsys)
        assert code == 3

    def test_single_mega_cell_terrain_is_flat(self, capsys):
        # on 4x4 terrains 0 and 2 the obstacles leave one free mega cell: no
        # adjacent pair, so no edge and an average slope of 0 by definition
        code, out, err = run(["bench", "--terrains", "3", "--rows", "4", "--cols", "4",
                              "--obstacles", "3", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
        single = [row for row in rows if row[5] == "0.000000"]  # mst_weight: no edge
        assert sorted(row[0] for row in single) == ["0", "0", "2", "2"]
        assert all(row[2] == "0.000000" for row in single)

    def test_custom_weights(self, capsys):
        code, out, _ = run(self.ARGS + ["--weights", "unit"], capsys)
        assert code == 0
        data = [l for l in out.strip().splitlines()[1:] if not l.startswith("#")]
        assert len(data) == 3
        assert all(",unit," in line for line in data)


class TestRender:
    def pipeline(self, tmp_path, capsys, extra=()):
        terrain = tmp_path / "t.txt"
        route = tmp_path / "r.txt"
        image = tmp_path / "out.svg"
        assert run(
            ["gen-terrain", "--rows", "8", "--cols", "8", "--seed", "2",
             "--obstacles", "1", "--roughness", "0.3", "-o", str(terrain)],
            capsys,
        )[0] == 0
        assert run(
            ["plan", "--terrain", str(terrain), "-o", str(route)], capsys
        )[0] == 0
        code, _, err = run(
            ["render", "--terrain", str(terrain), "--path", str(route), "-o", str(image)]
            + list(extra),
            capsys,
        )
        return code, err, terrain, route, image

    def test_well_formed_svg_with_one_polyline(self, tmp_path, capsys):
        code, _, _, route, image = self.pipeline(tmp_path, capsys)
        assert code == 0
        root = ET.fromstring(image.read_text())
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        path_length = int(route.read_text().split()[1])
        assert len(polylines[0].attrib["points"].split()) == path_length + 1

    def test_show_tree_overlays_lines(self, tmp_path, capsys):
        code, _, _, _, image = self.pipeline(tmp_path, capsys, extra=["--show-tree"])
        assert code == 0
        root = ET.fromstring(image.read_text())
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        assert lines  # one per tree edge

    # 1e308 is finite, but 8 cells of it overflow the image size
    @pytest.mark.parametrize("cell_px", ["0", "-2", "nan", "inf", "1e308"])
    def test_invalid_cell_px_exit_2(self, tmp_path, capsys, cell_px):
        code, err, _, _, image = self.pipeline(tmp_path, capsys, extra=["--cell-px", cell_px])
        assert code == 2
        assert "cell-px" in err
        assert not image.exists()

    def test_mismatched_path_exit_6(self, tmp_path, capsys):
        terrain = tmp_path / "flat.txt"
        terrain.write_text(FLAT_8X8)
        bad_route = tmp_path / "bad.txt"
        bad_route.write_text("PATH 2 closed\n0 0\n0 1\n")
        code, _, err = run(
            ["render", "--terrain", str(terrain), "--path", str(bad_route),
             "-o", str(tmp_path / "x.svg")],
            capsys,
        )
        assert code == 6

    def test_missing_path_file_exit_3(self, tmp_path, capsys):
        terrain = tmp_path / "flat.txt"
        terrain.write_text(FLAT_8X8)
        code, _, _ = run(
            ["render", "--terrain", str(terrain), "--path", str(tmp_path / "none.txt"),
             "-o", str(tmp_path / "x.svg")],
            capsys,
        )
        assert code == 3

    def test_show_tree_draws_the_classical_route_tree(self, tmp_path, capsys):
        """The overlay is the tree the route was planned from, whatever tree
        an MST of the terrain would be."""
        terrain, route, image = tmp_path / "t.txt", tmp_path / "r.txt", tmp_path / "out.svg"
        assert run(TERRAIN_ARGS + ["-o", str(terrain)], capsys)[0] == 0
        assert run(["plan", "--terrain", str(terrain), "--method", "classical",
                    "-o", str(route)], capsys)[0] == 0
        assert run(["render", "--terrain", str(terrain), "--path", str(route), "--show-tree",
                    "-o", str(image)], capsys) == (0, "", "")
        graph = build_graph(aggregate(load_height_grid(terrain)))
        tree = classical_spanning_tree(graph)
        expected = graph.nodes[graph.edges[tree.edges]].tolist()  # [[ra, ca], [rb, cb]] per edge
        # at 10 px per fine cell the centre of mega row or column v is at 20 v + 10
        drawn = [
            [[(int(el.attrib[y]) - 10) // 20, (int(el.attrib[x]) - 10) // 20]
             for x, y in (("x1", "y1"), ("x2", "y2"))]
            for el in ET.fromstring(image.read_text()).iter() if el.tag.endswith("}line")
        ]
        assert drawn == expected
        assert len(drawn) == len(graph.nodes) - 1

    @pytest.mark.parametrize("flag", [["--weight", "penalty"], ["--method", "mst"]])
    def test_tree_flags_are_plan_only_exit_2(self, tmp_path, capsys, flag):
        terrain = tmp_path / "flat.txt"
        terrain.write_text(FLAT_8X8)
        with pytest.raises(SystemExit) as exc:
            main(["render", "--terrain", str(terrain), "--path", str(tmp_path / "r.txt"), *flag,
                  "-o", str(tmp_path / "x.svg")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_height_span_overflow_exit_3(self, tmp_path, capsys):
        terrain, route = tmp_path / "t.txt", tmp_path / "r.txt"
        terrain.write_text("2 2 1.0\n1e308 -1e308\n0 5\n")
        route.write_text("PATH 4 closed\n0 0\n0 1\n1 1\n1 0\n")
        image = tmp_path / "x.svg"
        code, out, err = run(["render", "--terrain", str(terrain), "--path", str(route),
                              "-o", str(image)], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: cannot shade the terrain: height span inf between min height "
                       "-1e+308 and max height 1e+308 is not finite\n")
        assert not image.exists()


def load_tracing(monkeypatch):
    """perfbench's tracer, loaded from its file; nothing is written there."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_per_layer_trace_sees_every_stage(tmp_path, capsys, monkeypatch):
    """Every traced function is found where the CLI looks it up, plan's tree
    builder is called through the cli module, and render builds no graph or tree."""
    cli = slopecover.cli
    tracer = load_tracing(monkeypatch).Tracer([cli, cli.bench_mod, cli.svg_mod, slopecover.bench])
    assert tracer.absent == []
    terrain, route = tmp_path / "t.txt", tmp_path / "r.txt"
    assert run(["gen-terrain", "--rows", "16", "--cols", "16", "--seed", "3",
                "--obstacles", "2", "--roughness", "0.3", "-o", str(terrain)], capsys)[0] == 0
    with tracer.command(0):
        assert run(["plan", "--terrain", str(terrain), "--method", "mst",
                    "-o", str(route)], capsys)[0] == 0
    with tracer.command(1):
        assert run(["render", "--terrain", str(terrain), "--path", str(route), "--show-tree",
                    "-o", str(tmp_path / "out.svg")], capsys)[0] == 0
    plan, render = tracer.metrics(0), tracer.metrics(1)
    assert plan["spanning.minimum_spanning_tree.calls"] == 1
    assert plan["spanning.classical_spanning_tree.calls"] == 0
    assert plan["graph.build_graph.calls"] == 1
    assert render["svg.render_svg.calls"] == 1
    for stage in ("terrain.aggregate", "graph.build_graph", "spanning.minimum_spanning_tree",
                  "spanning.classical_spanning_tree"):
        assert render[f"{stage}.calls"] == 0, stage


def test_bench_trace_builds_one_mst_per_terrain_and_spec(tmp_path, capsys, monkeypatch):
    """A 3-terrain bench with its 2 default specs builds one MST per terrain
    and spec, 6, and prices 2 trees under each of 2 specs per terrain."""
    cli = slopecover.cli
    tracer = load_tracing(monkeypatch).Tracer([cli, cli.bench_mod, cli.svg_mod, slopecover.bench])
    with tracer.command(0):
        assert run(["bench", "--terrains", "3", "--rows", "24", "--cols", "24", "--obstacles", "2",
                    "--seed", "5", "-o", str(tmp_path / "b.csv")], capsys)[0] == 0
    bench = tracer.metrics(0)
    assert bench["terrain.generate_terrain.calls"] == 3
    assert bench["spanning.minimum_spanning_tree.calls"] == 6
    assert bench["spanning.classical_spanning_tree.calls"] == 3
    assert bench["spanning.tree_weight.calls"] == 12
