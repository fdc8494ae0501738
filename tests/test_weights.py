from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slopecover.weights import (
    WeightSpec,
    edge_weight,
    edge_weights,
    total_weight,
    weight_penalty,
    weight_pythagoras,
    weight_unit,
)

finite_heights = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
distances = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def test_unit_ignores_inputs():
    assert weight_unit(0, 0, 2) == 1.0
    assert weight_unit(5, -3, 1) == 1.0
    assert weight_unit(123.4, 123.4, 0.5) == 1.0


def test_pythagoras_three_four_five():
    assert weight_pythagoras(3, 0, 4) == pytest.approx(5.0, abs=1e-12)
    assert weight_pythagoras(0, 3, 4) == pytest.approx(5.0, abs=1e-12)


def test_pythagoras_flat_returns_distance():
    for h in (0.0, -12.5, 3.25):
        for d in (0.5, 1.0, 7.0):
            assert weight_pythagoras(h, h, d) == d


def test_penalty_values():
    assert weight_penalty(3, 0, 4) == pytest.approx(8.75, abs=1e-12)
    assert weight_penalty(4, 0, 3) == pytest.approx(35.0 / 3.0, rel=1e-12)


def test_penalty_flat_returns_distance():
    for h in (0.0, -2.0, 9.75):
        assert weight_penalty(h, h, 4.0) == 4.0


def test_dispatch():
    assert edge_weight(WeightSpec.UNIT, 9, 1, 2) == 1.0
    assert edge_weight(WeightSpec.PYTHAGORAS, 3, 0, 4) == pytest.approx(5.0, abs=1e-12)
    assert edge_weight(WeightSpec.SLOPE_PENALTY, 3, 0, 4) == pytest.approx(8.75, abs=1e-12)


def test_tokens_round_trip():
    assert [spec.token for spec in WeightSpec] == ["unit", "pythagoras", "penalty"]
    for spec in WeightSpec:
        assert WeightSpec.from_token(spec.token) is spec
    with pytest.raises(ValueError, match="unknown weight spec"):
        WeightSpec.from_token("windward")


@pytest.mark.parametrize("spec", list(WeightSpec))
def test_nonpositive_distance_rejected(spec):
    with pytest.raises(ValueError, match="positive"):
        edge_weight(spec, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        edge_weight(spec, 1.0, 2.0, -4.0)


@pytest.mark.parametrize("spec", list(WeightSpec))
@given(h1=finite_heights, h2=finite_heights, d=distances)
def test_symmetry(spec, h1, h2, d):
    assert edge_weight(spec, h1, h2, d) == edge_weight(spec, h2, h1, d)


@given(h1=finite_heights, h2=finite_heights, d=distances)
def test_dominance(h1, h2, d):
    pyth = weight_pythagoras(h1, h2, d)
    pen = weight_penalty(h1, h2, d)
    assert pyth >= d
    assert pen >= pyth
    if h1 == h2:
        assert pyth == d
        assert pen == d


def test_strictly_increasing_in_height_gap():
    d = 2.0
    gaps = [0.0, 0.5, 1.0, 2.0, 5.0, 50.0]
    pyth = [weight_pythagoras(0.0, gap, d) for gap in gaps]
    pen = [weight_penalty(0.0, gap, d) for gap in gaps]
    assert pyth == sorted(pyth) and len(set(pyth)) == len(pyth)
    assert pen == sorted(pen) and len(set(pen)) == len(pen)


@given(
    h1=finite_heights,
    h2=finite_heights,
    d=distances,
    k=st.floats(min_value=1e-3, max_value=1e3),
)
def test_pythagoras_positive_homogeneity(h1, h2, k, d):
    scaled = weight_pythagoras(k * h1, k * h2, k * d)
    reference = k * weight_pythagoras(h1, h2, d)
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
            [edge_weight(spec, a, b, dist) for a, b in zip(h1.tolist(), h2.tolist())],
            dtype=np.float64,
        )
        got = edge_weights(spec, h1, h2, dist)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", list(WeightSpec))
def test_array_weights_reject_nonpositive_distance(spec):
    with pytest.raises(ValueError, match="positive"):
        edge_weights(spec, np.zeros(3), np.ones(3), 0.0)


def test_array_weights_overflow_to_inf_like_scalar():
    h1, h2 = np.array([1e308]), np.array([-1e308])
    for spec in (WeightSpec.PYTHAGORAS, WeightSpec.SLOPE_PENALTY):
        assert edge_weights(spec, h1, h2, 1.0).tolist() == [edge_weight(spec, 1e308, -1e308, 1.0)]
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
