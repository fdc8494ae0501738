"""Edge pricing: two cell heights and a horizontal distance to a cost."""

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


def edge_weights(spec: WeightSpec, h1: np.ndarray, h2: np.ndarray, d: float) -> np.ndarray:
    """The cost under spec of each pair (h1[i], h2[i]) at horizontal distance d,
    as one float64 array; symmetric in (h1, h2).

    - UNIT: 1, the flat-terrain baseline;
    - PYTHAGORAS: the straight-line distance sqrt(d^2 + (h1-h2)^2);
    - SLOPE_PENALTY: that distance times (1 + |h1-h2|/d), to punish steep edges.

    Each value is bit for bit what the formula gives on Python floats: the
    subtraction, |diff| / d, the penalty factor and the product are the same
    IEEE operations in numpy, and the distance runs through math.hypot, since
    np.hypot differs from it in the last bit on some inputs. Differences that
    overflow give inf.
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
        raise ValueError(f"{name} is not finite ({total}): a weight or the sum overflows, "
                         "from height differences or from the spacing")
    return total
