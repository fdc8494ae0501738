"""Edge-weight functions mapping two cell heights and a horizontal distance to a cost."""

from __future__ import annotations

import enum
import itertools
import math

import numpy as np


class WeightSpec(enum.Enum):
    """Selects how an edge between two adjacent cells is priced.

    A closed enumeration (not a plugin point) so that benchmark configs and
    CSV output serialize exactly.
    """

    UNIT = "unit"
    PYTHAGORAS = "pythagoras"
    SLOPE_PENALTY = "penalty"

    @classmethod
    def from_token(cls, token: str) -> "WeightSpec":
        for member in cls:
            if member.value == token:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown weight spec {token!r} (expected one of: {valid})")

    @property
    def token(self) -> str:
        return self.value


def _check_distance(d: float) -> None:
    if not d > 0:
        raise ValueError(f"horizontal distance must be positive, got {d}")


def weight_unit(h1: float, h2: float, d: float) -> float:
    """Flat-terrain baseline cost: every edge counts 1 regardless of heights."""
    _check_distance(d)
    return 1.0


def weight_pythagoras(h1: float, h2: float, d: float) -> float:
    """Straight-line distance between the cell centres, sqrt(d^2 + (h1-h2)^2)."""
    _check_distance(d)
    return math.hypot(d, h1 - h2)


def weight_penalty(h1: float, h2: float, d: float) -> float:
    """Straight-line distance amplified by (1 + |h1-h2|/d) to punish steep edges."""
    _check_distance(d)
    return math.hypot(d, h1 - h2) * (1.0 + abs(h1 - h2) / d)


def edge_weight(spec: WeightSpec, h1: float, h2: float, d: float) -> float:
    """Dispatch to the weight function selected by spec; symmetric in (h1, h2)."""
    if spec is WeightSpec.UNIT:
        return weight_unit(h1, h2, d)
    if spec is WeightSpec.PYTHAGORAS:
        return weight_pythagoras(h1, h2, d)
    if spec is WeightSpec.SLOPE_PENALTY:
        return weight_penalty(h1, h2, d)
    raise TypeError(f"not a WeightSpec: {spec!r}")


def edge_weights(spec: WeightSpec, h1: np.ndarray, h2: np.ndarray, d: float) -> np.ndarray:
    """edge_weight of each pair (h1[i], h2[i]) as one float64 array, bit for bit.

    The subtraction, |diff| / d, the penalty factor and the product are the
    same IEEE operations in numpy as on Python floats. hypot is not: np.hypot
    differs from math.hypot in the last bit on some inputs, so it runs through
    math.hypot. Differences that overflow give inf, as on Python floats.
    """
    _check_distance(d)
    with np.errstate(over="ignore"):
        diff = np.subtract(h1, h2, dtype=np.float64)
        if spec is WeightSpec.UNIT:
            return np.ones(len(diff))
        hyp = np.fromiter(map(math.hypot, itertools.repeat(float(d)), diff.tolist()), np.float64)
        if spec is WeightSpec.PYTHAGORAS:
            return hyp
        if spec is WeightSpec.SLOPE_PENALTY:
            return hyp * (1.0 + np.abs(diff) / d)
    raise TypeError(f"not a WeightSpec: {spec!r}")


def total_weight(weights: np.ndarray, name: str) -> float:
    """Sum of weights added strictly left to right, as a Python loop adds them
    (np.sum adds pairwise and can differ in the last bits).

    Raises ValueError, naming the metric, when the total is not finite.
    """
    with np.errstate(over="ignore"):  # an overflow is reported below
        total = float(np.add.accumulate(weights)[-1]) if len(weights) else 0.0
    if not math.isfinite(total):
        raise ValueError(f"{name} is not finite ({total}): the height differences are too large")
    return total
