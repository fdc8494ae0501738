from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import scalar_weight
from slopecover.weights import WeightSpec, edge_weights, spec_weights, total_weight

finite_heights = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
distances = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)

UNIT, PYTHAGORAS, PENALTY = WeightSpec.UNIT, WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY


def price(spec: WeightSpec, h1: float, h2: float, d: float) -> float:
    """edge_weights on one pair of heights."""
    return float(edge_weights(spec, np.array([h1], np.float64), np.array([h2], np.float64), d)[0])


def test_unit_ignores_inputs():
    assert price(UNIT, 0, 0, 2) == 1.0
    assert price(UNIT, 5, -3, 1) == 1.0
    assert price(UNIT, 123.4, 123.4, 0.5) == 1.0


def test_pythagoras_three_four_five():
    assert price(PYTHAGORAS, 3, 0, 4) == pytest.approx(5.0, abs=1e-12)
    assert price(PYTHAGORAS, 0, 3, 4) == pytest.approx(5.0, abs=1e-12)


def test_pythagoras_flat_returns_distance():
    for h in (0.0, -12.5, 3.25):
        for d in (0.5, 1.0, 7.0):
            assert price(PYTHAGORAS, h, h, d) == d


def test_penalty_values():
    assert price(PENALTY, 3, 0, 4) == pytest.approx(8.75, abs=1e-12)
    assert price(PENALTY, 4, 0, 3) == pytest.approx(35.0 / 3.0, rel=1e-12)


def test_penalty_flat_returns_distance():
    for h in (0.0, -2.0, 9.75):
        assert price(PENALTY, h, h, 4.0) == 4.0


def test_dispatch():
    assert price(UNIT, 9, 1, 2) == 1.0
    assert price(PYTHAGORAS, 3, 0, 4) == pytest.approx(5.0, abs=1e-12)
    assert price(PENALTY, 3, 0, 4) == pytest.approx(8.75, abs=1e-12)


def test_tokens_round_trip():
    assert [spec.value for spec in WeightSpec] == ["unit", "pythagoras", "penalty"]
    for spec in WeightSpec:
        assert WeightSpec(spec.value) is spec
    with pytest.raises(ValueError, match=r"^unknown weight spec 'windward' \(expected one of: "
                                         r"unit, pythagoras, penalty\)$"):
        WeightSpec("windward")


@pytest.mark.parametrize("spec", list(WeightSpec))
def test_nonpositive_distance_rejected(spec):
    with pytest.raises(ValueError, match="positive"):
        price(spec, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        price(spec, 1.0, 2.0, -4.0)


@pytest.mark.parametrize("spec", list(WeightSpec))
@given(h1=finite_heights, h2=finite_heights, d=distances)
def test_symmetry(spec, h1, h2, d):
    assert price(spec, h1, h2, d) == price(spec, h2, h1, d)


@given(h1=finite_heights, h2=finite_heights, d=distances)
def test_dominance(h1, h2, d):
    pyth = price(PYTHAGORAS, h1, h2, d)
    pen = price(PENALTY, h1, h2, d)
    assert pyth >= d
    assert pen >= pyth
    if h1 == h2:
        assert pyth == d
        assert pen == d


def test_strictly_increasing_in_height_gap():
    d = 2.0
    gaps = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 50.0])
    pyth = edge_weights(PYTHAGORAS, np.zeros(len(gaps)), gaps, d).tolist()
    pen = edge_weights(PENALTY, np.zeros(len(gaps)), gaps, d).tolist()
    assert pyth == sorted(pyth) and len(set(pyth)) == len(pyth)
    assert pen == sorted(pen) and len(set(pen)) == len(pen)


@given(
    h1=finite_heights,
    h2=finite_heights,
    d=distances,
    k=st.floats(min_value=1e-3, max_value=1e3),
)
def test_pythagoras_positive_homogeneity(h1, h2, k, d):
    scaled = price(PYTHAGORAS, k * h1, k * h2, k * d)
    reference = k * price(PYTHAGORAS, h1, h2, d)
    # tolerance scaled to the inputs: forming k*h1 - k*h2 loses relative precision
    assert abs(scaled - reference) <= 1e-9 * k * (abs(h1) + abs(h2) + d + 1.0)


def _np_hypot_disagreements() -> tuple[np.ndarray, np.ndarray]:
    """Seeded height pairs on which np.hypot(2, h1 - h2) and math.hypot differ."""
    h1, h2 = np.random.default_rng(2024).normal(0.0, 5.0, (2, 20000))
    scalar = np.array([math.hypot(2.0, x) for x in (h1 - h2).tolist()])
    differs = np.hypot(2.0, h1 - h2) != scalar
    return h1[differs], h2[differs]


_DISAGREE_H1, _DISAGREE_H2 = _np_hypot_disagreements()


@pytest.mark.parametrize("spec", list(WeightSpec))
@given(pairs=st.lists(st.tuples(finite_heights, finite_heights), max_size=40), d=distances)
def test_array_weights_equal_scalar_weights_bit_for_bit(spec, pairs, d):
    drawn = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    # drawn pairs at d, plus seeded pairs on which a plain np.hypot would be 1 ulp off
    cases = [(drawn[:, 0], drawn[:, 1], d), (_DISAGREE_H1, _DISAGREE_H2, 2.0)]
    assert len(_DISAGREE_H1) > 0, "the data must include inputs where np.hypot != math.hypot"
    for h1, h2, dist in cases:
        expected = np.array(
            [scalar_weight(spec, a, b, dist) for a, b in zip(h1.tolist(), h2.tolist())],
            dtype=np.float64,
        )
        got = edge_weights(spec, h1, h2, dist)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


SMALLEST_NORMAL = 2.0**-1022
BIGGEST = 1.7976931348623157e308
# values at the ends of the float range, at the smallest normal float and on
# either side of it; differences of the large ones overflow to inf
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, SMALLEST_NORMAL, -SMALLEST_NORMAL,
            math.nextafter(SMALLEST_NORMAL, 0.0), math.nextafter(SMALLEST_NORMAL, 1.0),
            1e308, -1e308, BIGGEST, -BIGGEST, math.nextafter(BIGGEST, 0.0)]
any_heights = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EXTREMES))
any_distances = st.one_of(st.floats(min_value=5e-324, max_value=BIGGEST),
                          st.sampled_from([d for d in EXTREMES if d > 0]))


def assert_equal_to_scalar_weights(spec: WeightSpec, h1: np.ndarray, h2: np.ndarray, d: float) -> None:
    expected = np.array([scalar_weight(spec, a, b, d) for a, b in zip(h1.tolist(), h2.tolist())],
                        dtype=np.float64)
    got = edge_weights(spec, h1, h2, d)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", list(WeightSpec))
@given(pairs=st.lists(st.tuples(any_heights, any_heights), max_size=40), d=any_distances)
def test_array_weights_equal_scalar_weights_at_the_ends_of_the_float_range(spec, pairs, d):
    """Heights and distances from 5e-324 to the largest float, signed zeros,
    the smallest normal float (below it edge_weights defers to math.hypot) and differences
    that overflow to inf."""
    drawn = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    assert_equal_to_scalar_weights(spec, drawn[:, 0], drawn[:, 1], d)
    assert_equal_to_scalar_weights(spec, drawn[:, 0], np.zeros(len(drawn)), d)  # diff = h1 exactly


@pytest.mark.parametrize("d", [5e-324, 1e-310, SMALLEST_NORMAL, 1e-200, 1.0, 3.0, 1e300, BIGGEST])
def test_array_weights_equal_scalar_weights_over_several_blocks(d):
    """Float64 values of every exponent, over more than two pricing blocks."""
    bits = np.random.default_rng(7).integers(0, 2**64, 80_000, dtype=np.uint64, endpoint=False)
    heights = bits.view(np.float64).copy()
    heights[~np.isfinite(heights)] = 0.0
    heights[::97] = np.resize(EXTREMES, len(heights[::97]))
    h1, h2 = heights[:40_000], heights[40_000:]
    for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
        assert_equal_to_scalar_weights(spec, h1, h2, d)
        assert_equal_to_scalar_weights(spec, h1 * 1e-300, h2 * 1e-300, d)  # small and subnormal


def binade_edge(d: float) -> list[float]:
    """Differences at the edge of d's binade [2**(e-1), 2**e): 2**e and the
    float below it (the largest float when 2**e overflows), with both signs."""
    e = math.frexp(d)[1]
    top = math.ldexp(1.0, e) if e < 1024 else math.inf
    return [top, -top, math.nextafter(top, 0.0), -math.nextafter(top, 0.0)]


@pytest.mark.parametrize("d", [5e-324, 1e-310, math.nextafter(SMALLEST_NORMAL, 0.0), SMALLEST_NORMAL,
                               1e-300, 0.75, 1.0, 2.0, 3.0, 1e300, 2.0**1023, BIGGEST])
def test_array_weights_at_the_edge_of_the_distances_binade(d):
    """Differences on both sides of 2**e(d), where the one scale 2**-e stops
    applying, and 0, -0, subnormals, ±inf and nan, interleaved in one array
    and each alone. d covers subnormal distances, the smallest normal float,
    e = 1024 (2**1023 and the largest float) and ordinary distances."""
    e = math.frexp(d)[1]
    values = binade_edge(d) + binade_edge(d / 2) + [
        0.0, -0.0, 5e-324, -1e-310, math.ldexp(1.0, e - 60), math.inf, -math.inf, math.nan]
    values += [v * k for v in binade_edge(d) for k in (0.5, 0.999, 1.001) if math.isfinite(v * k)]
    diffs = np.array(values)
    for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
        expected = np.array([scalar_weight(spec, x, 0.0, d) for x in values])
        for rows in [slice(None)] + [slice(i, i + 1) for i in range(len(values))]:
            got = edge_weights(spec, diffs[rows], np.zeros(len(diffs[rows])), d)
            nan = np.isnan(expected[rows])  # math.hypot's nan and numpy's may differ in sign
            assert np.isnan(got).tolist() == nan.tolist()
            assert got[~nan].tobytes() == expected[rows][~nan].tobytes()


@given(pairs=st.lists(st.tuples(any_heights, any_heights), max_size=40), d=any_distances,
       specs=st.permutations(list(WeightSpec)).flatmap(lambda s: st.sampled_from([s, s[:2], s[1:], s[:1]])))
def test_specs_priced_together_equal_each_priced_alone(pairs, d, specs):
    """One distance pass for several specs: the same bits as edge_weights per
    spec and as the scalar formula, in any order of the specs."""
    drawn = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    h1, h2 = drawn[:, 0], drawn[:, 1]
    together = spec_weights(specs, h1, h2, d)
    assert len(together) == len(specs)
    for spec, got in zip(specs, together):
        assert got.dtype == np.float64
        assert got.tobytes() == edge_weights(spec, h1, h2, d).tobytes()
        assert_equal_to_scalar_weights(spec, h1, h2, d)


def test_specs_priced_together_over_several_blocks():
    """Over more than two pricing blocks, with the pairs on which np.hypot is 1 ulp off."""
    h1, h2 = np.random.default_rng(11).normal(0.0, 5.0, (2, 10_000))
    h1, h2 = np.concatenate([h1, _DISAGREE_H1]), np.concatenate([h2, _DISAGREE_H2])
    for spec, got in zip([PYTHAGORAS, PENALTY], spec_weights([PYTHAGORAS, PENALTY], h1, h2, 2.0)):
        expected = [scalar_weight(spec, a, b, 2.0) for a, b in zip(h1.tolist(), h2.tolist())]
        assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("spec", list(WeightSpec))
def test_array_weights_reject_nonpositive_distance(spec):
    with pytest.raises(ValueError, match="positive"):
        edge_weights(spec, np.zeros(3), np.ones(3), 0.0)


def test_array_weights_reject_a_spec_given_as_text():
    with pytest.raises(TypeError, match=r"^not a WeightSpec: 'pythagoras'$"):
        edge_weights("pythagoras", np.zeros(3), np.ones(3), 1.0)


def test_array_weights_overflow_to_inf_like_scalar():
    h1, h2 = np.array([1e308]), np.array([-1e308])
    for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
        assert edge_weights(spec, h1, h2, 1.0).tolist() == [scalar_weight(spec, 1e308, -1e308, 1.0)]
        assert edge_weights(spec, h1, h2, 1.0)[0] == math.inf


def test_total_weight_adds_left_to_right():
    weights = np.array([1.0] + [1e-16] * 100)
    expected = 0.0
    for w in weights.tolist():
        expected += w
    assert total_weight(weights, "x") == expected == 1.0
    assert float(np.sum(weights)) != expected  # pairwise summation would change the bytes
    assert total_weight(np.array([]), "x") == 0.0


def test_total_weight_rejects_non_finite_total():
    with pytest.raises(ValueError, match="path_cost is not finite"):
        total_weight(np.array([1.0, math.inf]), "path_cost")
    with pytest.raises(ValueError, match="tree_weight is not finite"):
        total_weight(np.array([1e308, 1e308]), "tree_weight")
