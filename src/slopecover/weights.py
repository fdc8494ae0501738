"""Edge pricing: two cell heights and a horizontal distance to a cost."""

from __future__ import annotations

import enum
import math
from typing import NoReturn, Sequence

import numpy as np


class WeightSpec(enum.Enum):
    """Selects how an edge between two adjacent cells is priced.

    A closed enumeration (not a plugin point) so that benchmark configs and
    CSV output serialize exactly: WeightSpec(text) parses, spec.value writes.
    """

    UNIT = "unit"
    PYTHAGORAS = "pythagoras"
    SLOPE_PENALTY = "penalty"

    @classmethod
    def _missing_(cls, value: object) -> NoReturn:
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown weight spec {value!r} (expected one of: {valid})")


def edge_weights(spec: WeightSpec, h1: np.ndarray, h2: np.ndarray, d: float) -> np.ndarray:
    """The cost under spec of each pair (h1[i], h2[i]) at horizontal distance d,
    as one float64 array; symmetric in (h1, h2).

    - UNIT: 1, the flat-terrain baseline;
    - PYTHAGORAS: the straight-line distance sqrt(d^2 + (h1-h2)^2);
    - SLOPE_PENALTY: that distance times (1 + |h1-h2|/d), to punish steep edges.

    Each value is bit for bit what the formula gives on Python floats, with
    math.hypot for the distance (tests/oracles.scalar_weight): the
    subtraction, |diff| / d, the penalty factor and the product are the same
    IEEE operations in numpy, and _hypot repeats math.hypot's steps on arrays,
    since np.hypot differs from it in the last bit on some inputs. Differences
    that overflow give inf.
    """
    return spec_weights((spec,), h1, h2, d)[0]


def spec_weights(specs: Sequence[WeightSpec], h1: np.ndarray, h2: np.ndarray, d: float) -> list[np.ndarray]:
    """edge_weights(spec, h1, h2, d) of each spec, from one _hypot for all of them."""
    if not d > 0:
        raise ValueError(f"horizontal distance must be positive, got {d}")
    weights, hyp = [], None
    with np.errstate(over="ignore"):
        diff = np.subtract(h1, h2, dtype=np.float64)
        for spec in specs:
            if spec is WeightSpec.UNIT:
                weights.append(np.ones(len(diff)))
            elif spec is WeightSpec.PYTHAGORAS or spec is WeightSpec.SLOPE_PENALTY:
                hyp = _hypot(float(d), diff) if hyp is None else hyp
                weights.append(hyp if spec is WeightSpec.PYTHAGORAS else hyp * (1.0 + np.abs(diff) / d))
            else:
                raise TypeError(f"not a WeightSpec: {spec!r}")
    return weights


_BLOCK = 1 << 12  # elements priced at a time; about 15 temporaries of this length live at once
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a 53-bit significand
_SMALLEST_NORMAL = 2.0 ** -1022


def _hypot(d: float, diff: np.ndarray) -> np.ndarray:
    """math.hypot(d, x) of every x in diff, bit for bit.

    CPython 3.11's vector_norm on the two values (d, |x|) scales both by the
    power of two that brings the larger into [0.5, 1). For a normal d in
    [2**(e-1), 2**e), every |x| < 2**e leaves d's exponent e the larger one,
    so those rows share the scale 2**-e and d's terms are scalars. The other
    rows (|x| at or above 2**e, where the limit is inf when e is 1024, nan
    and inf), and every row when d is subnormal or inf, go through
    math.hypot itself.
    """
    out = np.empty(len(diff))
    if _SMALLEST_NORMAL <= d < math.inf:
        e = math.frexp(d)[1]
        limit, scale = (math.ldexp(1.0, e) if e < 1024 else math.inf), math.ldexp(1.0, -e)
        with np.errstate(over="ignore", invalid="ignore"):  # rows past the limit are priced below
            for start in range(0, len(diff), _BLOCK):
                _scaled_norm(d, np.abs(diff[start:start + _BLOCK]), scale, out[start:start + _BLOCK])
        rest = np.flatnonzero(~((-limit < diff) & (diff < limit)))  # ~(|x| < limit), without an abs copy
    else:
        rest = np.arange(len(diff))
    out[rest] = [math.hypot(d, x) for x in diff.take(rest).tolist()]
    return out


def _scaled_norm(d: float, x: np.ndarray, scale: float, out: np.ndarray) -> None:
    """vector_norm's steps on (d, x) at scale, into out: add the exact squares
    (Dekker products) of the scaled values to csum = 1 with fast two-sums
    whose low parts go to frac1 and frac2, take the square root, apply one
    differential correction and undo the scale."""
    # frac1 and frac2 start from d's terms, not 0.0 + them: a zero's sign cannot
    # reach the result, since csum - 1 >= 0.25 and h > 0
    square, frac1 = _exact_square(d * scale)
    csum, frac2 = _fast_two_sum(1.0, square)
    square, square_low = _exact_square(x * scale)
    csum, sum_low = _fast_two_sum(csum, square)
    frac1 = frac1 + square_low
    frac2 = frac2 + sum_low
    h = np.sqrt(csum - 1.0 + (frac1 + frac2))
    square, square_low = _exact_square(h)  # dl_mul(-h, h) is its negation
    csum, sum_low = _fast_two_sum(csum, -square)
    frac1, frac2 = frac1 - square_low, frac2 + sum_low
    h += (csum - 1.0 + (frac1 + frac2)) / (2.0 * h)
    np.divide(h, scale, out=out)


def _exact_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * x as an unevaluated sum hi + lo (Dekker's mul12 on x split into
    halves of at most 26 significant bits)."""
    t = x * _SPLIT
    hi = t - (t - x)
    lo = x - hi
    p = hi * hi
    q = hi * lo
    q += q  # hi * lo + lo * hi: doubling is exact
    z = p + q
    return z, p - z + q + lo * lo


def _fast_two_sum(a: np.ndarray | float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b and its rounding error, exact when |a| >= |b|."""
    s = a + b
    return s, a - s + b


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
