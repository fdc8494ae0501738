"""Golden outputs recorded from the tuple-based implementation that preceded
the array graph. Any change to these bytes, including a last-bit change in an
edge weight that moves a tie, must be deliberate and recorded in CHANGES.md."""

from __future__ import annotations

import hashlib

import pytest

from slopecover.cli import main

BENCH_ARGS = ["bench", "--seed", "42", "--terrains", "3", "--rows", "64", "--cols", "64"]
BENCH_SHA256 = "618c74b06c9fc91d01307a414814dd597b77b32abf5e029b86f0e1ea2ca2ae8c"

TERRAIN_ARGS = ["gen-terrain", "--rows", "24", "--cols", "24", "--seed", "5",
                "--obstacles", "3", "--roughness", "0.4"]
TERRAIN_SHA256 = "0b7b50ae28dbc32a40cf3ba086d153f8260b9e8961bcf9f89febbc8333ade43a"

# seed 13 redraws its 30 obstacle patches 3 times before one free region is
# left, so this digest pins the generator's region-count decision
REDRAW_ARGS = ["gen-terrain", "--rows", "32", "--cols", "32", "--seed", "13",
               "--obstacles", "30", "--roughness", "0.3"]
REDRAW_SHA256 = "662f1edd5318480eb5b16544a2f708c5329743678590f810058b51a5f96589d6"

MST_ROUTE = "ecd0bbf680591be049724d122791a0b452596d659cd3b57896336e10399133ab"
MST_UNIT_ROUTE = "7a78c6377a39aca5c853425305ff6370ac39b6a70caa5bdb2eb044fed00a435c"
CLASSICAL_ROUTE = "5570f0cc8ced7c8b108198d4274cc2cb40376afee00d86c3aa861e12b7881c12"

# (method, weight) -> (route SHA-256, tree_weight, path_cost); every plan of
# this terrain also prints avg_slope=0.400000, path_length=548 and
# sacrificed_cells=21
PLANS = {
    ("mst", "unit"): (MST_UNIT_ROUTE, "136.000000", "548.000000"),
    ("mst", "pythagoras"): (MST_ROUTE, "281.219023", "630.032297"),
    ("mst", "penalty"): (MST_ROUTE, "343.421904", "965.360855"),
    ("classical", "unit"): (CLASSICAL_ROUTE, "136.000000", "548.000000"),
    ("classical", "pythagoras"): (CLASSICAL_ROUTE, "304.486712", "667.022333"),
    ("classical", "penalty"): (CLASSICAL_ROUTE, "446.180697", "1122.619631"),
}

# SVG digests of `render` over the golden terrain's MST route, recorded from
# the per-cell f-string renderer that preceded the array one; 123456 px makes
# `:g` print exponents and 0.37 px gives inexact coordinates
SVG_RENDERS = {
    "default": ([], "092106fcdf184ed1ec1635f7a78c1f6b3dec2f5a1fdc4d35e6088adbd1c18770"),
    "show-tree": (["--show-tree"], "96cea5ae5e35d14583e81bccddf9fa3f7033403caf72ec81d76f7c834949deeb"),
    "cell-px-exponent": (["--show-tree", "--cell-px", "123456"], "1d56345938d0bbc62511ce9cff6875e979f42df5e2d2a62b70b93100aa41dd22"),
    "cell-px-fraction": (["--cell-px", "0.37"], "f1999c7202da979c602b74ff7da7fac0ff3572f34a1b57cc801b1d4a3824d103"),
}

# a flat terrain (every height 0, so the height span is 0) with obstacles
FLAT_ARGS = ["gen-terrain", "--rows", "12", "--cols", "12", "--seed", "3",
             "--obstacles", "2", "--roughness", "0"]
FLAT_SVG_SHA256 = "e3470deaf4a51b679371e30c2627c9839a31c0cdf6a1c0704f671a2da75e508a"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_bench_csv_digest(capsys):
    assert main(BENCH_ARGS) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == BENCH_SHA256


@pytest.fixture(scope="module")
def terrain(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "terrain.txt"
    assert main(TERRAIN_ARGS + ["-o", str(path)]) == 0
    return path


def test_terrain_digest(terrain):
    assert sha256(terrain.read_bytes()) == TERRAIN_SHA256


def test_redrawn_terrain_digest(tmp_path):
    path = tmp_path / "redrawn.txt"
    assert main(REDRAW_ARGS + ["-o", str(path)]) == 0
    assert sha256(path.read_bytes()) == REDRAW_SHA256


@pytest.mark.parametrize("method, weight", sorted(PLANS))
def test_plan_route_and_stdout(terrain, tmp_path, capsys, method, weight):
    route = tmp_path / "route.txt"
    argv = ["plan", "--terrain", str(terrain), "--method", method, "--weight", weight,
            "-o", str(route)]
    assert main(argv) == 0
    route_sha, tree_weight, path_cost = PLANS[method, weight]
    assert capsys.readouterr().out == (
        "avg_slope=0.400000\n"
        f"tree_weight={tree_weight}\n"
        "path_length=548\n"
        f"path_cost={path_cost}\n"
        "sacrificed_cells=21\n"
    )
    assert sha256(route.read_bytes()) == route_sha


@pytest.fixture(scope="module")
def mst_route(terrain, tmp_path_factory):
    route = tmp_path_factory.mktemp("golden") / "route.txt"
    assert main(["plan", "--terrain", str(terrain), "-o", str(route)]) == 0
    return route


@pytest.mark.parametrize("name", sorted(SVG_RENDERS))
def test_render_svg_digest(terrain, mst_route, tmp_path, capsys, name):
    flags, digest = SVG_RENDERS[name]
    figure = tmp_path / "figure.svg"
    assert main(["render", "--terrain", str(terrain), "--path", str(mst_route), *flags,
                 "-o", str(figure)]) == 0
    assert sha256(figure.read_bytes()) == digest


def test_flat_terrain_svg_digest(tmp_path, capsys):
    flat, route, figure = tmp_path / "flat.txt", tmp_path / "route.txt", tmp_path / "flat.svg"
    assert main(FLAT_ARGS + ["-o", str(flat)]) == 0
    assert main(["plan", "--terrain", str(flat), "-o", str(route)]) == 0
    assert main(["render", "--terrain", str(flat), "--path", str(route), "--show-tree",
                 "-o", str(figure)]) == 0
    assert sha256(figure.read_bytes()) == FLAT_SVG_SHA256
