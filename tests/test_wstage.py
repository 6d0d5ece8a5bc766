import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    compute_intervals,
    conditional_sum_profile,
    loose_profile,
    small_run_profile,
)
from trisum import analytic, wstage
from trisum.errors import DegenerateLength, InsufficientFW, NoValidAddition, RetryExhausted
from trisum.graph import Graph, gen_gnp, gen_random_regular
from trisum.partition import Partition, initial_outer_weights, sample_partition
from trisum.profiles import ProfileConstants
from trisum.rng import TAG_W_EDGE, TAG_W_VERTEX, stream
from trisum.weighting import weighted_degrees
from trisum.wstage import (
    IntervalData,
    WStageState,
    XAssignment,
    apply_additions,
    choose_sum_additions,
    near_location_center,
    resample_w_stage,
)


def closed_form_initial_sums(part: Partition, omega1: np.ndarray) -> np.ndarray:
    """d_U + d_FU + d_W + 2 * (weight-3 inner edges) per vertex.

    The initial sums of periphery vertices in closed form; resample_w_stage
    counts them directly, so this is the independent route to the same
    numbers on W.
    """
    g = part.graph
    heavy = part.eprime_mask & (omega1 == 3)
    d3 = np.zeros(g.vertex_count, dtype=np.int64)
    d3 += np.bincount(g.edges[heavy, 0], minlength=g.vertex_count)
    d3 += np.bincount(g.edges[heavy, 1], minlength=g.vertex_count)
    return part.d_u + part.d_fu + part.d_w + 2 * d3


# Whole-graph forms of the initial weighting and the occupancy count, as
# resample_w_stage once computed them in every round: reference oracles.


def complete_initial_weighting(part: Partition, x: XAssignment) -> np.ndarray:
    """Initial weighting of the whole graph: the outer table, and on inner
    edges 3 where the random rule says so and 1 elsewhere."""
    w = initial_outer_weights(part)
    ep = part.eprime_mask
    if ep.any():
        e = part.graph.edges[ep]
        mask3 = analytic.edge_weight3_mask(
            x.x_vertex[e[:, 0]], x.x_vertex[e[:, 1]], x.x_edge[ep]
        )
        w[ep] = np.where(mask3, 3, 1)
    return w


def occupancy_counts(part: Partition, intervals: IntervalData) -> np.ndarray:
    """For each W vertex v: how many not-larger W neighbours have s0 in I(v)."""
    g = part.graph
    n = g.vertex_count
    counts = np.zeros(n, dtype=np.int64)
    ep = part.eprime_mask
    if not ep.any():
        return counts
    a = g.edges[ep, 0]
    b = g.edges[ep, 1]
    d_w = part.d_w
    s0, i0, i1 = intervals.s0, intervals.i0, intervals.i1
    a_in_b = (d_w[a] <= d_w[b]) & (s0[a] >= i0[b]) & (s0[a] < i1[b])
    b_in_a = (d_w[b] <= d_w[a]) & (s0[b] >= i0[a]) & (s0[b] < i1[a])
    counts += np.bincount(b[a_in_b], minlength=n)
    counts += np.bincount(a[b_in_a], minlength=n)
    return counts


# Scalar, one-vertex reference oracles for the vectorized w-stage checks.


def check_near_location(
    v: int, s1: np.ndarray, x: XAssignment, part: Partition,
    profile: ProfileConstants,
) -> bool:
    if part.in_u[v]:
        raise ValueError(f"vertex {v} is not in the periphery")
    center = part.d_u[v] + part.d_fu[v] + x.x_vertex[v] * part.d_w[v]
    return bool(abs(s1[v] - center) <= profile.eps_loc * part.d_w[v])


def compute_interval_entry(
    v: int, x: XAssignment, part: Partition, profile: ProfileConstants
) -> tuple[int, int, float]:
    """(length, i0, s0) for one vertex; errors if the length degenerates."""
    if part.in_u[v]:
        raise ValueError(f"vertex {v} is not in the periphery")
    d_w = int(part.d_w[v])
    scale = profile.eps_len * d_w
    if scale < 1.0:
        raise DegenerateLength([v])
    length = int(2 ** int(np.floor(np.log2(scale))))
    s0 = float(part.d_u[v] + part.d_fu[v] + x.x_vertex[v] * d_w + 3 * length)
    i0 = int(np.floor(s0 / length)) * length
    return length, i0, s0


def check_occupancy(
    v: int, intervals: IntervalData, part: Partition, profile: ProfileConstants
) -> bool:
    if part.in_u[v]:
        raise ValueError(f"vertex {v} is not in the periphery")
    g = part.graph
    nbrs = g.neighbors(v)
    nbrs = nbrs[~part.in_u[nbrs]]
    nbrs = nbrs[part.d_w[nbrs] <= part.d_w[v]]
    inside = (
        (intervals.s0[nbrs] >= intervals.i0[v])
        & (intervals.s0[nbrs] < intervals.i1[v])
    )
    return bool(inside.sum() <= profile.frac_i * intervals.length[v])


# The w-stage round loop as it was, recomputing the inner weights, the
# interval lengths and the near-location center in every round: the
# reference for resample_w_stage.


def reference_weigh_inner_edges(part: Partition, x: XAssignment) -> np.ndarray:
    """Weights in {1, 3} on inner edges (0 elsewhere) from the random rule."""
    g = part.graph
    w = np.zeros(g.edge_count, dtype=np.int64)
    ep = part.eprime_mask
    if ep.any():
        e0 = g.edges[ep, 0]
        e1 = g.edges[ep, 1]
        mask3 = analytic.edge_weight3_mask(
            x.x_vertex[e0], x.x_vertex[e1], x.x_edge[ep]
        )
        w[ep] = np.where(mask3, 3, 1)
    return w


def reference_compute_intervals(
    part: Partition, x: XAssignment, profile: ProfileConstants
) -> IntervalData:
    g = part.graph
    n = g.vertex_count
    w_mask = ~part.in_u
    d_w = part.d_w
    scale = profile.eps_len * d_w
    bad = w_mask & (scale < 1.0)
    if bad.any():
        raise DegenerateLength(np.flatnonzero(bad).tolist())
    length = np.zeros(n, dtype=np.int64)
    ids = np.flatnonzero(w_mask)
    if ids.size:
        length[ids] = 2 ** np.floor(np.log2(scale[ids])).astype(np.int64)
    s0 = np.full(n, np.nan)
    s0[ids] = (
        part.d_u[ids] + part.d_fu[ids]
        + x.x_vertex[ids] * d_w[ids] + 3.0 * length[ids]
    )
    i0 = np.zeros(n, dtype=np.int64)
    i0[ids] = np.floor(s0[ids] / length[ids]).astype(np.int64) * length[ids]
    return IntervalData(length=length, i0=i0, s0=s0)


def reference_near_location_ok_mask(
    part: Partition, x: XAssignment, s1: np.ndarray, profile: ProfileConstants
) -> np.ndarray:
    ok = np.ones(part.graph.vertex_count, dtype=bool)
    w_ids = part.w_ids
    center = (part.d_u + part.d_fu + x.x_vertex * part.d_w)[w_ids]
    tol = profile.eps_loc * part.d_w[w_ids]
    ok[w_ids] = np.abs(s1[w_ids] - center) <= tol
    return ok


def reference_resample_w_stage(
    part: Partition, profile: ProfileConstants, seed: int, rerun: int = 0,
) -> WStageState:
    round_limit, stall_limit = wstage.ROUND_LIMIT, wstage.STALL_LIMIT
    g = part.graph
    n, m = g.vertex_count, g.edge_count
    w_mask = ~part.in_u
    ep = part.eprime_mask
    e0, e1 = (g.edges[:, 0], g.edges[:, 1]) if m else (np.empty(0, int), np.empty(0, int))

    x_vertex = np.full(n, np.nan)
    ids = np.flatnonzero(w_mask)
    x_vertex[ids] = analytic.x_from_uniform(
        stream(seed, TAG_W_VERTEX, rerun, 0).random(n)[ids]
    )
    x_edge = np.full(m, np.nan)
    x_edge[ep] = stream(seed, TAG_W_EDGE, rerun, 0).random(m)[ep]
    x = XAssignment(x_vertex=x_vertex, x_edge=x_edge)

    resampled = 0
    best = None
    stalled = 0
    for rnd in range(1, round_limit + 1):
        omega1 = initial_outer_weights(part)
        omega1[ep] = reference_weigh_inner_edges(part, x)[ep]
        s1 = weighted_degrees(g, omega1)
        intervals = reference_compute_intervals(part, x, profile)
        near_ok = reference_near_location_ok_mask(part, x, s1, profile)
        occ = occupancy_counts(part, intervals)
        occ_ok = ~w_mask | (occ <= profile.frac_i * intervals.length)
        viol = w_mask & (~near_ok | ~occ_ok)
        count = int(viol.sum())
        if not count:
            return WStageState(
                x=x, omega1=omega1, s1=s1, intervals=intervals,
                rounds=rnd, resampled=resampled,
            )
        if best is None or count < best:
            best, stalled = count, 0
        else:
            stalled += 1
            if stalled >= stall_limit:
                raise RetryExhausted("w-stage", np.flatnonzero(viol).tolist(), rnd)
        fresh_x = analytic.x_from_uniform(
            stream(seed, TAG_W_VERTEX, rerun, rnd).random(n)
        )
        x.x_vertex[viol] = fresh_x[viol]
        scope_e = ep & (viol[e0] | viol[e1])
        fresh_e = stream(seed, TAG_W_EDGE, rerun, rnd).random(m)
        x.x_edge[scope_e] = fresh_e[scope_e]
        resampled += count
    raise RetryExhausted("w-stage", np.flatnonzero(viol).tolist(), round_limit)


def craft_partition(g: Graph, core_ids, fw_pairs=(), fu_pairs=()) -> Partition:
    in_u = np.zeros(g.vertex_count, dtype=bool)
    in_u[list(core_ids)] = True
    levels = np.where(in_u, 0, -1).astype(np.int64)
    e = g.edges
    f = in_u[e[:, 0]] ^ in_u[e[:, 1]] if g.edge_count else np.zeros(0, bool)
    pair_to_id = {(int(u), int(v)): i for i, (u, v) in enumerate(g.edges)}
    fw = np.zeros(g.edge_count, dtype=bool)
    for p in fw_pairs:
        fw[pair_to_id[tuple(sorted(p))]] = True
    fu = np.zeros(g.edge_count, dtype=bool)
    for p in fu_pairs:
        fu[pair_to_id[tuple(sorted(p))]] = True
    return Partition(graph=g, in_u=in_u, levels=levels, f_mask=f,
                     fw_mask=fw, fu_mask=fu)


def all_periphery_x(g: Graph, part: Partition, values: dict | float) -> XAssignment:
    x_vertex = np.full(g.vertex_count, np.nan)
    for v in np.flatnonzero(~part.in_u):
        x_vertex[v] = values[v] if isinstance(values, dict) else values
    x_edge = np.full(g.edge_count, np.nan)
    x_edge[part.eprime_mask] = 0.5
    return XAssignment(x_vertex=x_vertex, x_edge=x_edge)


class TestWeighInnerEdges:
    def test_all_low_with_losing_coins_gives_ones(self):
        g = gen_gnp(12, 0.8, seed=0)
        part = craft_partition(g, [])
        x = all_periphery_x(g, part, 1.5)
        x.x_edge[part.eprime_mask] = 1.0  # above any sub-unit probability
        w = complete_initial_weighting(part, x)
        assert (w[part.eprime_mask] == 1).all()

    def test_all_high_gives_threes(self):
        g = gen_gnp(12, 0.8, seed=0)
        part = craft_partition(g, [])
        x = all_periphery_x(g, part, 2.5)
        w = complete_initial_weighting(part, x)
        assert (w[part.eprime_mask] == 3).all()

    def test_threshold_pair_at_two(self):
        g = Graph.build(2, [(0, 1)])
        part = craft_partition(g, [])
        x = all_periphery_x(g, part, 2.0)
        assert complete_initial_weighting(part, x)[0] == 3

    def test_initial_sums_formula_cases(self):
        g = gen_gnp(14, 0.7, seed=1)
        part = craft_partition(g, [])
        for val, expect3 in ((1.5, 0), (2.5, 1)):
            x = all_periphery_x(g, part, val)
            x.x_edge[part.eprime_mask] = 1.0
            omega1 = complete_initial_weighting(part, x)
            s1 = weighted_degrees(g, omega1)
            d3 = part.d_w * expect3
            expected = part.d_u + part.d_fu + part.d_w + 2 * d3
            assert np.array_equal(s1, expected)
            assert np.array_equal(s1, closed_form_initial_sums(part, omega1))

    def test_initial_sums_cross_check_random(self):
        g = gen_gnp(80, 0.5, seed=5)
        profile = small_run_profile(eps_u=0.25, eps_fw=0.45, eps_fu=0.49)
        part = sample_partition(g, profile, seed=5)
        rng = np.random.default_rng(0)
        x = XAssignment(
            x_vertex=np.where(part.in_u, np.nan, analytic.x_from_uniform(rng.random(g.vertex_count))),
            x_edge=np.where(part.eprime_mask, rng.random(g.edge_count), np.nan),
        )
        omega1 = complete_initial_weighting(part, x)
        s1 = weighted_degrees(g, omega1)
        assert (s1 >= 0).all()
        w_ids = part.w_ids
        assert w_ids.size and part.u_ids.size
        formula = closed_form_initial_sums(part, omega1)
        assert np.array_equal(s1[w_ids], formula[w_ids])


class TestNearLocation:
    def test_center_and_bounds(self):
        g = gen_gnp(14, 0.7, seed=1)
        part = craft_partition(g, [])
        x = all_periphery_x(g, part, 2.0)
        profile = loose_profile(eps_loc=0.1)
        center = near_location_center(part, x)
        v = 0
        s1 = center.copy().astype(np.int64)
        assert check_near_location(v, s1, x, part, profile)
        beyond = center + profile.eps_loc * part.d_w + 1
        assert not check_near_location(v, beyond.astype(np.int64), x, part, profile)

    def test_d3_form_equivalence(self):
        g = gen_gnp(100, 0.5, seed=7)
        part = craft_partition(g, [])
        rng = np.random.default_rng(2)
        x = XAssignment(
            x_vertex=analytic.x_from_uniform(rng.random(g.vertex_count)),
            x_edge=np.where(part.eprime_mask, rng.random(g.edge_count), np.nan),
        )
        profile = loose_profile(eps_loc=0.05)
        omega1 = complete_initial_weighting(part, x)
        s1 = weighted_degrees(g, omega1)
        heavy = part.eprime_mask & (omega1 == 3)
        d3 = np.zeros(g.vertex_count, dtype=np.int64)
        d3 += np.bincount(g.edges[heavy, 0], minlength=g.vertex_count)
        d3 += np.bincount(g.edges[heavy, 1], minlength=g.vertex_count)
        for v in range(g.vertex_count):
            direct = check_near_location(v, s1, x, part, profile)
            dev = abs(d3[v] - (x.x_vertex[v] - 1) / 2 * part.d_w[v])
            margin = profile.eps_loc / 2 * part.d_w[v]
            if abs(dev - margin) < 1e-6:
                continue  # borderline ties depend on float association
            assert direct == (dev <= margin)


class TestIntervals:
    def test_dyadic_length_example(self):
        g = Graph.build(11, [(i, j) for i in range(11) for j in range(i + 1, 11)])
        part = craft_partition(g, [])
        profile = loose_profile(eps_len=0.5)  # eps_len * d_W = 5 -> l = 4
        x = all_periphery_x(g, part, 2.03)
        data = compute_intervals(part, x, profile)
        assert (data.length[~part.in_u] == 4).all()
        # s0 = 2.03 * 10 + 12 = 32.3 sits in [32, 36)
        assert data.s0[0] == pytest.approx(32.3)
        assert data.i0[0] == 32

    def test_grid_membership(self):
        g = gen_gnp(60, 0.5, seed=3)
        part = craft_partition(g, [])
        profile = loose_profile(eps_len=0.3)
        rng = np.random.default_rng(1)
        x = XAssignment(
            x_vertex=analytic.x_from_uniform(rng.random(g.vertex_count)),
            x_edge=np.where(part.eprime_mask, rng.random(g.edge_count), np.nan),
        )
        data = compute_intervals(part, x, profile)
        ids = np.flatnonzero(~part.in_u)
        assert (data.i0[ids] % data.length[ids] == 0).all()
        assert (data.s0[ids] >= data.i0[ids]).all()
        assert (data.s0[ids] < data.i1[ids]).all()

    def test_dyadic_bounds_property(self):
        rng = np.random.default_rng(4)
        eps_len = 0.37
        for _ in range(1000):
            d_w = int(rng.integers(3, 100_000))
            scale = eps_len * d_w
            length = 2 ** int(np.floor(np.log2(scale)))
            assert 0.5 * scale <= length <= scale

    def test_degenerate_length_error(self):
        g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
        part = craft_partition(g, [])
        profile = loose_profile(eps_len=0.3)  # eps_len * 2 < 1
        x = all_periphery_x(g, part, 2.0)
        with pytest.raises(DegenerateLength):
            compute_intervals(part, x, profile)

    def test_single_entry_matches_bulk(self):
        g = gen_gnp(40, 0.6, seed=9)
        part = craft_partition(g, [])
        profile = loose_profile(eps_len=0.4)
        rng = np.random.default_rng(5)
        x = XAssignment(
            x_vertex=analytic.x_from_uniform(rng.random(g.vertex_count)),
            x_edge=np.where(part.eprime_mask, rng.random(g.edge_count), np.nan),
        )
        data = compute_intervals(part, x, profile)
        for v in range(0, 40, 7):
            length, i0, s0 = compute_interval_entry(v, x, part, profile)
            assert length == data.length[v]
            assert i0 == data.i0[v]
            assert s0 == pytest.approx(data.s0[v])


class TestOccupancy:
    @staticmethod
    def _star_setup(inside_count):
        g = Graph.build(7, [(0, i) for i in range(1, 7)])
        part = craft_partition(g, [])
        length = np.full(7, 4, dtype=np.int64)
        i0 = np.zeros(7, dtype=np.int64)
        s0 = np.full(7, 100.0)
        s0[1:1 + inside_count] = 1.5  # inside [0, 4)
        s0[0] = 2.0
        return g, part, IntervalData(length=length, i0=i0, s0=s0)

    def test_isolated_in_periphery(self):
        g = Graph.build(3, [(1, 2), (0, 1), (0, 2)])
        part = craft_partition(g, [1, 2])  # vertex 0 alone in W
        data = IntervalData(
            length=np.full(3, 4, dtype=np.int64),
            i0=np.zeros(3, dtype=np.int64),
            s0=np.full(3, 1.0),
        )
        assert check_occupancy(0, data, part, loose_profile())

    def test_all_outside(self):
        _, part, data = self._star_setup(0)
        assert check_occupancy(0, data, part, loose_profile())

    def test_threshold_crossing(self):
        profile = loose_profile()  # frac_i = 0.95, bound = 3.8
        _, part, data = self._star_setup(3)
        assert check_occupancy(0, data, part, profile)
        _, part, data = self._star_setup(4)
        assert not check_occupancy(0, data, part, profile)

    def test_counts_match_scalar_check(self):
        g = gen_gnp(50, 0.5, seed=11)
        part = craft_partition(g, [])
        profile = loose_profile(eps_len=0.4)
        rng = np.random.default_rng(6)
        x = XAssignment(
            x_vertex=analytic.x_from_uniform(rng.random(g.vertex_count)),
            x_edge=np.where(part.eprime_mask, rng.random(g.edge_count), np.nan),
        )
        data = compute_intervals(part, x, profile)
        counts = occupancy_counts(part, data)
        for v in range(g.vertex_count):
            ok = counts[v] <= profile.frac_i * data.length[v]
            assert ok == check_occupancy(v, data, part, profile)


def test_full_scale_residue_supply():
    # interval lengths in the guaranteed regime are huge; any window of at
    # least 256 consecutive integers keeps 97% of them off the two reserved
    # residues mod 100, whatever its alignment
    for exp in range(8, 16):
        length = 2 ** exp
        offsets = np.arange(length)
        worst = min(
            int((np.mod(start + offsets, 100) >= 2).sum())
            for start in range(100)
        )
        assert worst >= 0.97 * length


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6), st.integers(0, 6),
    st.floats(0, 10_000), st.floats(0, 10_000),
)
def test_dyadic_nesting_property(exp_u, exp_v, s0_u, s0_v):
    l_u, l_v = 2 ** min(exp_u, exp_v), 2 ** max(exp_u, exp_v)
    i0_u = int(np.floor(s0_u / l_u)) * l_u
    i0_v = int(np.floor(s0_v / l_v)) * l_v
    overlap = i0_u < i0_v + l_v and i0_v < i0_u + l_u
    if overlap:
        assert i0_v <= i0_u and i0_u + l_u <= i0_v + l_v


@pytest.fixture(scope="module")
def instance():
    g = gen_random_regular(600, 80, seed=2)
    profile = small_run_profile()
    part = sample_partition(g, profile, seed=2)
    state = resample_w_stage(part, profile, seed=2)
    return g, profile, part, state


class TestResampleWStage:

    def test_deterministic(self, instance):
        _, profile, part, state = instance
        again = resample_w_stage(part, profile, seed=2)
        assert np.array_equal(
            state.x.x_vertex, again.x.x_vertex, equal_nan=True
        )
        assert np.array_equal(state.s1, again.s1)

    def test_post_state_audited(self, instance):
        _, profile, part, state = instance
        data = compute_intervals(part, state.x, profile)
        for v in part.w_ids:
            v = int(v)
            assert check_near_location(v, state.s1, state.x, part, profile)
            assert check_occupancy(v, data, part, profile)

    def test_binning_tracks_centers(self, instance):
        _, profile, part, state = instance
        rows = conditional_sum_profile(part, state.x, state.s1, bin_width=0.2)
        means = [r["mean_s1"] for r in rows if r["count"] >= 5]
        assert all(a < b for a, b in zip(means, means[1:]))
        for r in rows:
            if r["count"] >= 5:
                tol = (profile.eps_loc + 0.1) * part.d_w[part.w_ids].max()
                assert abs(r["mean_s1"] - r["mean_center"]) <= tol

    def test_initial_sum_bounds_under_tight_relation(self, instance):
        # wherever eps_loc * d_W(v) <= l(v), the accepted state keeps
        # s1(v) at or below the interval start and within 6 lengths of
        # its end, so additions are non-negative and bounded
        _, profile, part, state = instance
        data = state.intervals
        checked = 0
        for v in part.w_ids:
            v = int(v)
            if profile.eps_loc * part.d_w[v] > data.length[v]:
                continue
            checked += 1
            assert state.s1[v] <= data.i0[v]
            assert state.s1[v] >= data.i1[v] - 6 * data.length[v]
        assert checked > 0

    def test_weight_marginal_matches_analytic(self, instance):
        # empirical heavy-edge rate conditioned on a bin of the larger
        # endpoint value tracks the analytic marginal
        g, profile, part, state = instance
        ep = part.eprime_mask
        e = g.edges[ep]
        big = np.maximum(state.x.x_vertex[e[:, 0]], state.x.x_vertex[e[:, 1]])
        heavy = state.omega1[ep] == 3
        sel = (big >= 2.3) & (big < 2.5)
        if sel.sum() >= 300:
            # P(heavy | bigger endpoint in bin) averages the rule marginal
            # conditioned on the max, which exceeds (alpha-1)/2; sanity band
            rate = heavy[sel].mean()
            assert 0.5 < rate <= 1.0


def w_stage_outcome(resample, part: Partition, profile: ProfileConstants,
                    seed: int, rerun: int = 0):
    """What a w-stage run gives: every field of its state, or its error's
    type, message, violators, rounds and vertices."""
    try:
        st = resample(part, profile, seed, rerun=rerun)
    except (RetryExhausted, DegenerateLength) as exc:
        return (type(exc), str(exc), getattr(exc, "violators", None),
                getattr(exc, "rounds", None), getattr(exc, "vertices", None))
    arrays = (st.x.x_vertex, st.x.x_edge, st.omega1, st.s1,
              st.intervals.length, st.intervals.i0, st.intervals.s0)
    return ([(a.dtype, a.tobytes()) for a in arrays], st.rounds, st.resampled)


def bipartite_case():
    mask = np.random.default_rng([5]).random((120, 360)) < 0.7
    left, right = np.nonzero(mask)
    g = Graph(vertex_count=480, edges=np.stack([left, right + 120], axis=1).astype(np.int64))
    profile = small_run_profile()
    return sample_partition(g, profile, seed=1), profile, 1


def exhausted_case():
    # near-location tolerance too tight for local redraws to settle
    profile = small_run_profile(eps_loc=0.12)
    g = gen_random_regular(300, 60, seed=3)
    return sample_partition(g, profile, seed=3), profile, 3


class TestAgainstReference:
    @pytest.mark.parametrize("rerun", [0, 1])
    def test_instance(self, instance, rerun):
        _, profile, part, _ = instance
        got = w_stage_outcome(resample_w_stage, part, profile, 2, rerun)
        assert isinstance(got[0], list) and got[1] >= 1
        assert got == w_stage_outcome(reference_resample_w_stage, part, profile, 2, rerun)

    def test_bipartite(self):
        part, profile, seed = bipartite_case()
        got = w_stage_outcome(resample_w_stage, part, profile, seed)
        assert isinstance(got[0], list)
        assert got == w_stage_outcome(reference_resample_w_stage, part, profile, seed)

    def test_retry_exhausted(self):
        part, profile, seed = exhausted_case()
        got = w_stage_outcome(resample_w_stage, part, profile, seed)
        assert got[0] is RetryExhausted and got[3] < wstage.ROUND_LIMIT
        assert got == w_stage_outcome(reference_resample_w_stage, part, profile, seed)

    def test_round_limit(self, monkeypatch):
        part, profile, seed = exhausted_case()
        monkeypatch.setattr(wstage, "ROUND_LIMIT", 3)
        got = w_stage_outcome(resample_w_stage, part, profile, seed)
        assert got[0] is RetryExhausted and got[3] == 3
        assert got == w_stage_outcome(reference_resample_w_stage, part, profile, seed)

    def test_degenerate_length(self):
        g = gen_gnp(12, 0.3, seed=4)
        part = craft_partition(g, [0, 1, 2])
        profile = loose_profile(eps_len=0.3)
        got = w_stage_outcome(resample_w_stage, part, profile, 0)
        assert got[0] is DegenerateLength and got[4]
        assert got == w_stage_outcome(reference_resample_w_stage, part, profile, 0)


class TestChooseAdditions:
    @staticmethod
    def _pair_graph():
        g = Graph.build(2, [(0, 1)])
        part = craft_partition(g, [])
        return g, part

    def test_plain_pick(self):
        _, part = self._pair_graph()
        profile = loose_profile()
        s1 = np.array([13, 13], dtype=np.int64)
        data = IntervalData(
            length=np.full(2, 4, dtype=np.int64),
            i0=np.full(2, 12, dtype=np.int64),
            s0=np.full(2, 13.5),
        )
        adds = choose_sum_additions(part, s1, data, profile)
        assert adds[0] == 0          # 13 itself is allowed
        assert adds[1] == 1          # 13 is taken by the earlier vertex

    def test_reserved_residues_skipped(self):
        g = Graph.build(2, [(0, 1)])
        part = craft_partition(g, [0])  # only vertex 1 in W
        profile = loose_profile()
        s1 = np.array([0, 20], dtype=np.int64)
        data = IntervalData(
            length=np.full(2, 4, dtype=np.int64),
            i0=np.array([0, 20], dtype=np.int64),
            s0=np.array([0.0, 21.0]),
        )
        adds = choose_sum_additions(part, s1, data, profile)
        assert adds[1] == 2          # 20 and 21 are reserved, 22 is not

    def test_no_valid_addition(self):
        _, part = self._pair_graph()
        profile = loose_profile()
        s1 = np.array([16, 16], dtype=np.int64)  # above both intervals
        data = IntervalData(
            length=np.full(2, 4, dtype=np.int64),
            i0=np.full(2, 12, dtype=np.int64),
            s0=np.full(2, 13.5),
        )
        with pytest.raises(NoValidAddition) as exc:
            choose_sum_additions(part, s1, data, profile)
        assert exc.value.diagnostics["i1"] == 16


class TestApplyAdditions:
    @staticmethod
    def _claw():
        # three core vertices each adjacent to one periphery vertex 3
        g = Graph.build(4, [(0, 3), (1, 3), (2, 3)])
        part = craft_partition(
            g, [0, 1, 2], fw_pairs=[(0, 3), (1, 3), (2, 3)]
        )
        return g, part

    def test_zero_additions_identity(self):
        g, part = self._claw()
        omega1 = np.ones(3, dtype=np.int64)
        adds = np.zeros(4, dtype=np.int64)
        omega2, s2 = apply_additions(part, omega1, adds)
        assert np.array_equal(omega2.weights, omega1)
        assert np.array_equal(s2, weighted_degrees(g, omega1))

    def test_raises_lowest_ids_first(self):
        g, part = self._claw()
        omega1 = np.ones(3, dtype=np.int64)
        a = np.zeros(4, dtype=np.int64)
        a[3] = 2
        omega2, s2 = apply_additions(part, omega1, a)
        assert omega2.weights.tolist() == [2, 2, 1]
        assert s2[3] == 5
        assert s2[0] == 2 and s2[1] == 2 and s2[2] == 1
        # the raise moves each periphery sum by exactly its addition
        s1 = weighted_degrees(g, omega1)
        w_ids = part.w_ids
        assert np.array_equal(s2[w_ids] - s1[w_ids], a[w_ids])

    def test_insufficient_fw(self):
        g, part = self._claw()
        omega1 = np.ones(3, dtype=np.int64)
        a = np.zeros(4, dtype=np.int64)
        a[3] = 4
        with pytest.raises(InsufficientFW):
            apply_additions(part, omega1, a)

    def test_periphery_distinct_after_additions(self):
        # crafted core-heavy split: every boundary edge is adjustable, so
        # the additions have plenty of capacity at this scale
        g = gen_gnp(300, 0.5, seed=21)
        in_u = np.arange(300) < 200
        levels = np.where(in_u, 0, -1).astype(np.int64)
        f = in_u[g.edges[:, 0]] ^ in_u[g.edges[:, 1]]
        part = Partition(
            graph=g, in_u=in_u, levels=levels, f_mask=f,
            fw_mask=f.copy(), fu_mask=np.zeros(g.edge_count, dtype=bool),
        )
        profile = loose_profile(eps_len=0.5, eps_loc=0.35)
        rng = np.random.default_rng(3)
        x = XAssignment(
            x_vertex=np.where(in_u, np.nan, analytic.x_from_uniform(rng.random(300))),
            x_edge=np.where(part.eprime_mask, rng.random(g.edge_count), np.nan),
        )
        omega1 = complete_initial_weighting(part, x)
        s1 = weighted_degrees(g, omega1)
        data = compute_intervals(part, x, profile)
        adds = choose_sum_additions(part, s1, data, profile)
        omega2, s2 = apply_additions(part, omega1, adds)
        w_ids = part.w_ids
        assert adds[w_ids].any()
        assert np.array_equal(s2[w_ids] - s1[w_ids], adds[w_ids])
        ep = part.eprime_mask
        e = g.edges[ep]
        assert (s2[e[:, 0]] != s2[e[:, 1]]).all()
        assert np.isin(s2[w_ids] % profile.modulus_m, [0, 1]).sum() == 0
        # final sums landed inside the target intervals
        assert (s2[w_ids] >= data.i0[w_ids]).all()
        assert (s2[w_ids] < data.i1[w_ids]).all()
