"""Shared fixtures, tiny-graph profiles and reference oracles for the tests."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from trisum import analytic
from trisum.errors import WeightingCoverageError
from trisum.graph import Graph, _edge_list_text, gen_gnp, group_by
from trisum.partition import (
    Partition,
    _comparable_pairs,
    _count_incident,
    _count_neighbors_in,
    _degree_comparable_pairs,
    j_interval_bounds,
    sample_partition,
)
from trisum.profiles import DESK, ProfileConstants
from trisum.weighting import EdgeWeighting, _weighting_text
from trisum.wstage import (
    IntervalData,
    XAssignment,
    _interval_lengths,
    _place_intervals,
    choose_sum_additions,
    near_location_center,
    resample_w_stage,
)


# Every line break of str.splitlines(), "\r\n" included.
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]


def traced_peak(fn):
    """fn() and the peak bytes tracemalloc saw above the start of the call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def desk_reference_stages():
    """The reference G(1500, 0.5), gen-seed 42, with its CSR built, a DESK
    partition (run seed 5), and that run's w-stage weighting and sum
    additions: (partition, omega1, additions)."""
    g = gen_gnp(1500, 0.5, 42)
    g._csr
    part = sample_partition(g, DESK, 5)
    state = resample_w_stage(part, DESK, 5)
    additions = choose_sum_additions(part, state.s1, state.intervals, DESK)
    return part, state.omega1, additions


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


# Test-only text helpers: the text that write_edge_list and write_weighting
# write.


def format_edge_list(g: Graph) -> str:
    return "".join(_edge_list_text(g))


def format_weighting(g: Graph, weighting: EdgeWeighting) -> str:
    """One "u v w" line per edge, in edge-id order."""
    return "".join(_weighting_text(g, weighting))


def partition_of(
    g: Graph, profile: ProfileConstants, in_u: np.ndarray, levels: np.ndarray,
    fw_mask: np.ndarray, fu_mask: np.ndarray,
) -> Partition:
    """The partition of any choices, whether or not the sampler would accept
    them, with every derived field counted by the sampler's own helpers:
    the tests' one way to build a Partition by hand."""
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    f_mask = in_u[e0] ^ in_u[e1]
    fprime_mask = f_mask & ~fw_mask
    d_u = _count_neighbors_in(g, in_u)
    d_fw = _count_incident(g, fw_mask)
    d_fprime = _count_incident(g, fprime_mask)
    hosts, members = _comparable_pairs(
        _degree_comparable_pairs(g, in_u), g.degrees, levels, d_fprime, d_fw, d_u, profile,
    )
    return Partition(
        graph=g, in_u=in_u, levels=levels, fw_mask=fw_mask, fu_mask=fu_mask,
        f_mask=f_mask, fprime_mask=fprime_mask,
        eu_mask=in_u[e0] & in_u[e1], eprime_mask=~in_u[e0] & ~in_u[e1],
        u_ids=np.flatnonzero(in_u), w_ids=np.flatnonzero(~in_u),
        d_u=d_u, d_w=g.degrees - d_u, d_fw=d_fw, d_fprime=d_fprime,
        d_fu=_count_incident(g, fu_mask), nu_leq=group_by(hosts, members, g.vertex_count),
    )


# Reference oracles shared by several test modules.


def composite_simpson(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with an even number of panels (rounded up)."""
    panels = max(2, panels + (panels % 2))
    xs = np.linspace(a, b, panels + 1)
    ys = np.asarray([f(x) for x in xs], dtype=np.float64)
    h = (b - a) / panels
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


def dbar_quadrature(subintervals: int) -> float:
    """Quadrature of r * g over [1.1, 1.9], split at the knots where r is
    not smooth: the numeric check of `analytic.DBAR`, the closed form."""
    pieces = [(analytic.X_LO, analytic.A1), (analytic.A1, analytic.A2),
              (analytic.A2, analytic.X_MID)]
    span = analytic.X_MID - analytic.X_LO
    total = 0.0
    for a, b in pieces:
        panels = max(2, int(round(subintervals * (b - a) / span)))
        total += composite_simpson(
            lambda x: analytic.r_value(x) / (analytic.LOG_RATIO * x), a, b, panels)
    return total


def incident_edges(g: Graph, v: int) -> np.ndarray:
    """The ids of v's edges, in the order of `g.neighbors(v)`."""
    indptr, _, eids = g._csr
    return eids[indptr[v]:indptr[v + 1]]


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
