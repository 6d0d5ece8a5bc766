"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import (
    blow_up_is_locally_irregular,
    compute_intervals,
    conditional_sum_profile,
    simulate_weight3_frequency,
    weight3_probability,
)
from trisum import analytic
from trisum.graph import Graph, gen_gnp, gen_random_regular
from trisum.oracle import min_k_weighting, sweep_small_graphs
from trisum.partition import audit_partition, sample_partition
from trisum.pipeline import run
from trisum.profiles import DESK
from trisum.ustage import build_estar, estar_bounds_hold
from trisum.weighting import (
    EdgeWeighting,
    conflicts,
    weighted_degrees,
)
from trisum.wstage import resample_w_stage


@pytest.fixture(scope="module")
def gnp_instance():
    return gen_gnp(1500, 0.5, seed=42)


@pytest.fixture(scope="module")
def regular_instance():
    return gen_random_regular(2000, 400, seed=7)


def test_criterion_1_analytic_constants():
    t0 = time.perf_counter()
    from mpmath import mp, mpf

    mp.dps = 50
    lo, hi, mid = mpf("1.1"), mpf("2.9"), mpf("1.9")
    ratio = hi / lo
    ref_a1 = float(hi / ratio ** mpf("0.95"))
    ref_a2 = float(hi / ratio ** mpf("0.45"))

    dbar = analytic.dbar_closed_form()
    assert 0.023 < dbar < 0.024
    quad = analytic.dbar_quadrature(10_000)
    assert abs(dbar - quad) < 1e-9
    assert abs(analytic.A1 - ref_a1) < 1e-9
    assert abs(analytic.A2 - ref_a2) < 1e-9

    # continuity: the spliced branches agree exactly at the knots
    a1, a2 = analytic.A1, analytic.A2
    first_at_a1 = (a1 - 1) / 2
    mid_at_a1 = analytic.r_value(a1)
    assert abs(mid_at_a1 - first_at_a1) < 1e-12
    mid_at_a2 = analytic.r_value(a2)
    top_at_a2 = (a2 - 1) / 2 - math.log(2.9 / 1.9) / analytic.LOG_RATIO
    assert abs(mid_at_a2 - top_at_a2) < 1e-12

    grid = np.linspace(1.1, 1.9, 100_000)
    vals = analytic._r_unchecked(grid)
    assert vals.min() > 0
    assert vals.max() < 0.08

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 (analytic constants): PASS — dbar={dbar:.9f}, "
        f"|closed-quad|={abs(dbar - quad):.2e}, a1={analytic.A1:.6f}, "
        f"a2={analytic.A2:.6f}, r in (0, 0.08) on 1e5 grid, {elapsed:.2f}s"
    )


def test_criterion_2_probability_identity():
    t0 = time.perf_counter()
    grid = np.linspace(1.1, 2.9, 1000)
    worst = max(
        abs(weight3_probability(float(a)) - (a - 1) / 2) for a in grid
    )
    assert worst < 1e-10

    n = 1_000_000
    mc_report = []
    for i, alpha in enumerate([1.2, 1.5, analytic.A2, 2.0, 2.5]):
        rng = np.random.default_rng(1000 + i)
        freq = simulate_weight3_frequency(alpha, n, rng)
        p = (alpha - 1) / 2
        bound = 3 * math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < bound, f"alpha={alpha}: {freq} vs {p}"
        mc_report.append(f"{alpha:.3f}:{(freq - p) / bound:+.2f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 (probability identity): PASS — grid worst "
        f"{worst:.2e}, MC deviations/3sigma {{{', '.join(mc_report)}}}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_3_oracle_sweep():
    t0 = time.perf_counter()
    report = sweep_small_graphs(6, 3, keep_rows=False)
    assert report.counterexamples == []

    k2 = Graph.build(2, [(0, 1)])
    assert min_k_weighting(k2, 5).min_k is None
    k3 = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    assert min_k_weighting(k3, 3).min_k == 3
    p3 = Graph.build(3, [(0, 1), (1, 2)])
    assert min_k_weighting(p3, 3).min_k == 1
    c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert min_k_weighting(c4, 3).min_k == 2

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 3 (oracle sweep): PASS — {report.total_checked} "
        f"connected graphs on <=6 vertices, zero counterexamples; "
        f"K2=none, K3=3, P3=1, C4=2; {elapsed:.1f}s"
    )


def test_criterion_4_verifier_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 24))
        g = gen_gnp(n, float(rng.uniform(0.1, 0.9)), seed=int(rng.integers(1 << 30)))
        if g.edge_count == 0:
            continue
        w = EdgeWeighting(
            weights=rng.integers(1, 4, size=g.edge_count), max_weight=3
        )
        equal_free = conflicts(g, w).size == 0
        assert blow_up_is_locally_irregular(g, w) == equal_free
        naive = [0] * g.vertex_count
        for e, (u, v) in enumerate(g.edges):
            naive[u] += int(w.weights[e])
            naive[v] += int(w.weights[e])
        assert weighted_degrees(g, w).tolist() == naive
        checked += 1
    print(
        f"\nACCEPTANCE 4 (verifier equivalence): PASS — {checked} random "
        f"(G, w) pairs, blow-up check equals empty-conflict check, sums "
        f"match naive recomputation exactly; {time.perf_counter() - t0:.1f}s"
    )


def test_criterion_5_structural_invariants(gnp_instance):
    t0 = time.perf_counter()
    g = gnp_instance
    nested_pairs = 0
    for seed in range(10):
        part = sample_partition(g, DESK, seed=seed)
        audit = audit_partition(part, DESK)
        assert audit.ok, f"seed {seed}: {audit.summary()}"

        owner = build_estar(part)
        assert estar_bounds_hold(part, owner), f"seed {seed}: E* bounds"

        state = resample_w_stage(part, DESK, seed=seed)
        data = compute_intervals(part, state.x, DESK)
        ep = part.eprime_mask
        e = g.edges[ep]
        a, b = e[:, 0], e[:, 1]
        # orient each pair so d_W(a) <= d_W(b); dyadic intervals must nest
        swap = part.d_w[a] > part.d_w[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        overlap = (data.i0[a] < data.i1[b]) & (data.i0[b] < data.i1[a])
        nested = (data.i0[b] <= data.i0[a]) & (data.i1[a] <= data.i1[b])
        assert (~overlap | nested).all(), f"seed {seed}: interval nesting"
        nested_pairs += int(overlap.sum())
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 5 (structural invariants): PASS — 10 seeds on "
        f"G(1500, 0.5): all five constraint families audited, ownership "
        f"bounds hold, nesting verified on {nested_pairs} overlapping "
        f"interval pairs; {elapsed:.1f}s"
    )


def test_criterion_6_end_to_end_soundness(gnp_instance, regular_instance):
    t0 = time.perf_counter()
    outcomes = {}
    successes = 0
    runs = 0
    stages = {}
    for name, g in (("gnp", gnp_instance), ("regular", regular_instance)):
        for seed in range(10):
            outcome = run(g, DESK, seed=seed)
            runs += 1
            outcomes[(name, seed)] = outcome
            if outcome.status == "success":
                successes += 1
                w = outcome.weighting
                assert w is not None
                assert w.weights.min() >= 1 and w.weights.max() <= 3
                assert conflicts(g, w).size == 0
                verify = outcome.stats["verify"]
                assert verify["ok"]
            else:
                assert outcome.stage in (
                    "precheck", "partition", "wstage", "ustage", "verify"
                )
                assert outcome.reason
                assert outcome.weighting is None
                stages[outcome.stage] = stages.get(outcome.stage, 0) + 1

    # determinism: repeating a seed reproduces the outcome exactly
    for name, g in (("gnp", gnp_instance), ("regular", regular_instance)):
        for seed in (0, 3):
            again = run(g, DESK, seed=seed)
            assert again.fingerprint() == outcomes[(name, seed)].fingerprint()

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    rate = successes / runs
    print(
        f"\nACCEPTANCE 6 (end-to-end soundness): PASS — {runs} runs, "
        f"success rate {rate:.0%} (reported, not gated; failures by stage: "
        f"{stages}), every success verified, every failure structured, "
        f"repeated seeds identical; {elapsed:.0f}s"
    )


def test_criterion_7_conditional_expectation_shape(regular_instance):
    t0 = time.perf_counter()
    g = regular_instance
    part = sample_partition(g, DESK, seed=0)
    state = resample_w_stage(part, DESK, seed=0)

    rows = [
        r for r in conditional_sum_profile(part, state.x, state.s1, bin_width=0.1)
        if r["count"] >= 10
    ]
    assert len(rows) >= 12
    means = [r["mean_s1"] for r in rows]
    assert all(a < b for a, b in zip(means, means[1:])), "not monotone"
    worst_rel = max(
        abs(r["mean_s1"] - r["mean_center"]) / r["mean_center"] for r in rows
    )
    assert worst_rel < 0.10
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 7 (conditional expectation shape): PASS — "
        f"{len(rows)} bins on the 400-regular instance, binned means "
        f"monotone, worst relative error {worst_rel:.3%}; {elapsed:.1f}s"
    )
