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
