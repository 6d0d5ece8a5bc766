"""Shared fixtures, tiny-graph profiles and reference oracles for the tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from trisum import analytic
from trisum.errors import WeightingCoverageError
from trisum.graph import Graph
from trisum.partition import Partition, j_interval_bounds
from trisum.profiles import ProfileConstants
from trisum.weighting import EdgeWeighting
from trisum.wstage import (
    IntervalData,
    XAssignment,
    _interval_lengths,
    _place_intervals,
    near_location_center,
)


@pytest.fixture
def k2() -> Graph:
    return Graph.build(2, [(0, 1)])


@pytest.fixture
def p3() -> Graph:
    return Graph.build(3, [(0, 1), (1, 2)])


@pytest.fixture
def k3() -> Graph:
    return Graph.build(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def c4() -> Graph:
    return Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def loose_profile(**overrides) -> ProfileConstants:
    """A profile whose tolerances are wide enough for toy graphs."""
    params = dict(
        p_u=0.5, eps_u=0.4, p_fw=0.5, eps_fw=0.4,
        m_levels=2, eps_fu=0.45, frac_nu=1.0,
        eps_loc=0.4, eps_len=0.5, frac_i=0.95,
        modulus_m=10, min_delta_ratio=0.0,
    )
    params.update(overrides)
    return ProfileConstants(**params)


def small_run_profile(**overrides) -> ProfileConstants:
    """Calibrated for random graphs with degrees around 60-120."""
    params = dict(
        p_u=0.3, eps_u=0.15, p_fw=0.5, eps_fw=0.3,
        m_levels=4, eps_fu=0.45, frac_nu=1.0,
        eps_loc=0.26, eps_len=0.5, frac_i=0.95,
        modulus_m=10, min_delta_ratio=0.0,
    )
    params.update(overrides)
    return ProfileConstants(**params)


# Reference oracles shared by several test modules.


def j_interval(u: int, part: Partition, profile: ProfileConstants) -> tuple[float, float]:
    """(lo, hi) of one core vertex's J interval, from scalar counts."""
    return j_interval_bounds(
        float(part.graph.degrees[u]),
        float(part.d_fprime[u]),
        float(part.d_fw[u]),
        float(part.d_u[u]),
        int(part.levels[u]),
        profile,
    )


def compute_intervals(
    part: Partition, x: XAssignment, profile: ProfileConstants
) -> IntervalData:
    """Dyadic interval length, grid interval and near location per W vertex,
    composed as resample_w_stage composes them for each round."""
    return _place_intervals(
        part, _interval_lengths(part, profile), near_location_center(part, x)
    )


def conditional_sum_profile(
    part: Partition, x: XAssignment, s1: np.ndarray, bin_width: float = 0.1,
) -> list[dict]:
    """Binned means of the initial sums against their design centers.

    For each X bin, reports the empirical mean of s1 over periphery
    vertices in the bin and the mean of d_U + d_FU + x_mid * d_W.
    """
    w_ids = part.w_ids
    edges = np.arange(analytic.X_LO, analytic.X_HI + bin_width / 2, bin_width)
    rows = []
    xs = x.x_vertex[w_ids]
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = w_ids[(xs >= lo) & (xs < hi)]
        if not sel.size:
            continue
        mid = (lo + hi) / 2.0
        center = part.d_u[sel] + part.d_fu[sel] + mid * part.d_w[sel]
        rows.append({
            "x_lo": float(lo),
            "x_hi": float(hi),
            "count": int(sel.size),
            "mean_s1": float(s1[sel].mean()),
            "mean_center": float(center.mean()),
        })
    return rows


def simulate_weight3_frequency(alpha: float, trials: int, rng: np.random.Generator) -> float:
    """Monte Carlo frequency of weight 3 at a pinned endpoint value."""
    x_u = analytic.x_from_uniform(rng.random(trials))
    x_e = rng.random(trials)
    mask = analytic.edge_weight3_mask(np.full(trials, alpha), x_u, x_e)
    return float(mask.mean())


def weight3_probability(alpha: float) -> float:
    """Probability that an inner edge gets weight 3 given one endpoint value.

    Evaluates the rule's marginal case by case (threshold mass of the
    density above/below the knots plus the r contribution). Every branch
    collapses to (alpha - 1) / 2.
    """
    lo, mid, hi, log_ratio = analytic.X_LO, analytic.X_MID, analytic.X_HI, analytic.LOG_RATIO
    if not lo <= alpha <= hi:
        raise ValueError(f"alpha={alpha} outside [{lo}, {hi}]")
    if alpha >= mid:
        t = analytic.weight3_threshold(alpha)
        return (math.log(hi) - math.log(t)) / log_ratio
    r_a = analytic.r_value(alpha)
    if alpha > analytic.A2:
        return math.log(hi / mid) / log_ratio + r_a
    if alpha >= analytic.A1:
        upper = 1.0 + 2.0 * math.log(hi / alpha) / log_ratio
        return math.log(hi / upper) / log_ratio + r_a
    return r_a


def blow_up_is_locally_irregular(g: Graph, weighting: EdgeWeighting) -> bool:
    """Check local irregularity of the multigraph with w(e) copies of each edge.

    Built by explicit edge replication so it is an independent route to the
    same answer as an empty conflict list.
    """
    w = weighting.weights
    if w.shape[0] != g.edge_count:
        raise WeightingCoverageError("weighting does not cover the edge set")
    reps = w.astype(np.int64)
    ends = np.concatenate([np.repeat(g.edges[:, 0], reps), np.repeat(g.edges[:, 1], reps)])
    multi_deg = np.bincount(ends, minlength=g.vertex_count)
    return bool((multi_deg[g.edges[:, 0]] != multi_deg[g.edges[:, 1]]).all())
