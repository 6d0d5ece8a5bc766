"""Closed-form numeric layer driving the randomized weighting rule.

Vertex variables live on [1.1, 2.9] with density proportional to 1/x; the
rule weighting an inner edge 3 combines a deterministic threshold (when the
larger endpoint value is at least 1.9) with a coin comparison against
r(x) * r(y) / dbar (when it is below). The piecewise function r and the
constant dbar are calibrated so that the marginal probability of weight 3
given one endpoint value a is exactly (a - 1) / 2.
"""

from __future__ import annotations

import math

import numpy as np

X_LO = 1.1
X_HI = 2.9
X_MID = 1.9
LOG_RATIO = math.log(X_HI / X_LO)


def breakpoints() -> tuple[float, float]:
    """The two knots (a1, a2) of r: hi / ratio**0.95 and hi / ratio**0.45."""
    ratio = X_HI / X_LO
    return X_HI / ratio**0.95, X_HI / ratio**0.45


A1, A2 = breakpoints()


def x_from_uniform(t):
    """Inverse CDF: lo * (hi/lo)**t. t may be a scalar or an array."""
    return X_LO * (X_HI / X_LO) ** np.asarray(t, dtype=np.float64)


def _r_unchecked(x: np.ndarray) -> np.ndarray:
    """Vectorized r on [1.1, 1.9]; caller guarantees the domain."""
    x = np.asarray(x, dtype=np.float64)
    out = (x - 1.0) / 2.0
    mid = (x >= A1) & (x <= A2)
    xm = x[mid]
    out[mid] -= np.log(X_HI / (1.0 + 2.0 * np.log(X_HI / xm) / LOG_RATIO)) / LOG_RATIO
    out[x > A2] -= math.log(X_HI / X_MID) / LOG_RATIO
    return out


def r_value(x: float) -> float:
    """The three-branch piecewise function on [1.1, 1.9]."""
    if not X_LO <= x <= X_MID:
        raise ValueError(f"x={x} outside [{X_LO}, {X_MID}]")
    return float(_r_unchecked(np.asarray([x]))[0])


def dbar_closed_form() -> float:
    """Closed form of the integral of r * g over [1.1, 1.9]."""
    q = math.log(X_HI / X_MID) / LOG_RATIO
    return (q + 0.5) ** 2 - 0.1 / LOG_RATIO - 0.75


DBAR = dbar_closed_form()


def weight3_threshold(x_big) -> np.ndarray:
    """Deterministic cutoff for the smaller endpoint: hi / ratio**((x-1)/2)."""
    x_big = np.asarray(x_big, dtype=np.float64)
    return X_HI * np.exp(-LOG_RATIO * (x_big - 1.0) / 2.0)


def edge_weight3_mask(x_a, x_b, x_e) -> np.ndarray:
    """Vectorized weighting rule; True where the edge receives weight 3.

    Endpoint roles are by value (the rule is symmetric), so id tie-breaks
    do not change the outcome.
    """
    x_a = np.asarray(x_a, dtype=np.float64)
    x_b = np.asarray(x_b, dtype=np.float64)
    x_e = np.asarray(x_e, dtype=np.float64)
    small = np.minimum(x_a, x_b)
    big = np.maximum(x_a, x_b)
    out = np.zeros(small.shape, dtype=bool)
    hi = big >= X_MID
    out[hi] = small[hi] >= weight3_threshold(big[hi])
    lo = ~hi
    prob = _r_unchecked(small[lo]) * _r_unchecked(big[lo]) / DBAR
    out[lo] = x_e[lo] <= prob
    return out


def constants_report(r_grid: int = 9) -> dict:
    """Summary of the derived constants plus a small r table."""
    xs = np.linspace(X_LO, X_MID, r_grid)
    return {
        "beta_lo": X_LO,
        "beta_hi": X_HI,
        "beta_mid": X_MID,
        "log_ratio": LOG_RATIO,
        "a1": A1,
        "a2": A2,
        "dbar_closed_form": DBAR,
        "r_table": [{"x": float(x), "r": r_value(float(x))} for x in xs],
    }
