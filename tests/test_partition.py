import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    incident_edges,
    j_interval,
    loose_profile,
    partition_of,
    small_run_profile,
    traced_peak,
)
from trisum.errors import InfeasibleProfile, RetryExhausted
from trisum.graph import Graph, gen_gnp, gen_random_regular, group_by
from trisum.partition import (
    Partition,
    SAMPLE_ATTEMPTS,
    SampleStats,
    _comparable_pairs,
    _count_incident,
    _count_neighbors_in,
    _degree_comparable_pairs,
    _end_stage,
    _sample_once,
    audit_partition,
    initial_outer_weights,
    j_interval_bounds,
    sample_partition,
)
from trisum import partition, pipeline
from trisum.profiles import DESK, FULL_SCALE, ProfileConstants, level_separation
from trisum.rng import (
    TAG_PART_FU,
    TAG_PART_FW,
    TAG_PART_LEVEL,
    TAG_PART_U,
    TAG_RESTART,
    derive_seed,
    stream,
)


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def recount(part: Partition, v: int) -> tuple[int, int, int, int]:
    """d_U, d_FW, d_FU and d_F' of one vertex, from its own CSR rows and
    the choices alone: an incident edge is in F' when its other end is on
    the other side of the split and it is not in F_W."""
    nbrs = part.graph.neighbors(v)
    inc = incident_edges(part.graph, v)
    boundary = part.in_u[nbrs] != part.in_u[v]
    return (int(part.in_u[nbrs].sum()), int(part.fw_mask[inc].sum()),
            int(part.fu_mask[inc].sum()), int((boundary & ~part.fw_mask[inc]).sum()))


def reference_n_u_leq(u: int, part: Partition, profile: ProfileConstants) -> np.ndarray:
    """N^U_<=(u) of one core vertex, from its own CSR row: core neighbours
    of comparable degree whose J interval overlaps u's. The J intervals
    use each vertex's recounts, not the stored `d_*` fields."""
    g = part.graph
    if not part.in_u[u]:
        raise ValueError(f"vertex {u} is not in the core")
    nbrs = g.neighbors(u)
    cand = nbrs[part.in_u[nbrs]]
    deg_u = g.degrees[u]
    keep = (g.degrees[cand] >= 0.5 * deg_u) & (g.degrees[cand] <= deg_u)
    cand = cand[keep]
    ids = np.concatenate([[u], cand])
    d_u, d_fw, _, d_fp = np.array([recount(part, int(v)) for v in ids],
                                  dtype=np.int64).reshape(-1, 4).T
    lo, hi = j_interval_bounds(g.degrees[ids], d_fp, d_fw, d_u, part.levels[ids], profile)
    overlap = (lo[1:] <= hi[0]) & (lo[0] <= hi[1:])
    return cand[overlap]


def reference_audit_partition(part: Partition, profile: ProfileConstants) -> dict:
    """The failures of audit_partition, recounted one edge and one vertex
    at a time."""
    g = part.graph
    in_u = part.in_u
    fail: dict[str, list[int]] = {
        "u_degree": [], "fw_in_w": [], "fw_in_u": [],
        "fu_in_u": [], "fu_in_w": [], "nu_leq": [],
        "structure": [], "derived_counts": [],
        "derived_masks": [], "derived_ids": [], "derived_nu": [],
    }
    if (part.fw_mask & part.fu_mask).any():
        fail["structure"].append(-1)
    if not np.array_equal(part.fw_mask | part.fprime_mask, part.f_mask):
        fail["structure"].append(-2)
    fu_outside_fprime = False
    for e, (a, b) in enumerate(g.edges.tolist()):
        boundary = bool(in_u[a] != in_u[b])
        want = (boundary, boundary and not part.fw_mask[e],
                bool(in_u[a] and in_u[b]), bool(not in_u[a] and not in_u[b]))
        if want != (part.f_mask[e], part.fprime_mask[e], part.eu_mask[e], part.eprime_mask[e]):
            fail["derived_masks"].append(e)
        fu_outside_fprime |= bool(part.fu_mask[e]) and not want[1]
    if fu_outside_fprime:
        fail["structure"].append(-3)
    bad_ids = set()
    for stored, side in ((part.u_ids, True), (part.w_ids, False)):
        listed = [int(v) for v in stored]
        bad_ids |= set(listed) ^ {v for v in range(g.vertex_count) if in_u[v] == side}
        bad_ids |= {v for prev, v in zip(listed, listed[1:]) if v <= prev}
    fail["derived_ids"] = sorted(bad_ids)
    for v in range(g.vertex_count):
        deg = int(g.degrees[v])
        d_u, d_fw, d_fu, d_fp = recount(part, v)
        if (d_u, deg - d_u, d_fw, d_fp, d_fu) != (
                part.d_u[v], part.d_w[v], part.d_fw[v], part.d_fprime[v], part.d_fu[v]):
            fail["derived_counts"].append(v)
        if abs(d_u - profile.p_u * deg) > profile.eps_u * deg:
            fail["u_degree"].append(v)
        members = []
        if in_u[v]:
            d_w = deg - d_u
            if abs(d_fw - profile.p_fw * d_w) > profile.eps_fw * d_w:
                fail["fw_in_u"].append(v)
            lvl = int(part.levels[v])
            if abs(d_fu - (lvl / profile.m_levels) * d_fp) > profile.eps_fu * deg:
                fail["fu_in_u"].append(v)
            members = reference_n_u_leq(v, part, profile).tolist()
            if len(members) > profile.frac_nu * d_u:
                fail["nu_leq"].append(v)
        else:
            if abs(d_fw - profile.p_fw * d_u) > profile.eps_fw * d_u:
                fail["fw_in_w"].append(v)
            mean_frac = (1.0 - 1.0 / profile.m_levels) / 2.0
            if abs(d_fu - mean_frac * d_fp) > profile.eps_fu * d_fp:
                fail["fu_in_w"].append(v)
        if part.nu_leq[v].tolist() != members:
            fail["derived_nu"].append(v)
    return fail


class TestSamplePartition:
    def test_k20_wide_tolerance_succeeds(self):
        g = complete_graph(20)
        profile = loose_profile(eps_u=0.499, eps_fw=0.49)
        part = sample_partition(g, profile, seed=5)
        assert audit_partition(part, profile).ok

    def test_deterministic(self):
        g = gen_gnp(200, 0.5, seed=3)
        profile = small_run_profile()
        a = sample_partition(g, profile, seed=9)
        b = sample_partition(g, profile, seed=9)
        assert np.array_equal(a.in_u, b.in_u)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.fw_mask, b.fw_mask)
        assert np.array_equal(a.fu_mask, b.fu_mask)

    def test_seed_changes_partition(self):
        g = gen_gnp(200, 0.5, seed=3)
        profile = small_run_profile()
        a = sample_partition(g, profile, seed=9)
        b = sample_partition(g, profile, seed=10)
        assert not np.array_equal(a.in_u, b.in_u)

    def test_audit_accepts_samples(self):
        profile = small_run_profile()
        for seed in range(5):
            g = gen_gnp(250, 0.5, seed=seed)
            part = sample_partition(g, profile, seed=seed)
            assert audit_partition(part, profile).ok

    def test_structure_identities(self):
        g = gen_gnp(200, 0.5, seed=1)
        part = sample_partition(g, small_run_profile(), seed=2)
        assert not (part.fw_mask & part.fu_mask).any()
        assert np.array_equal(part.fw_mask | part.fprime_mask, part.f_mask)
        # boundary edges have exactly one core endpoint
        e = g.edges[part.f_mask]
        assert (part.in_u[e[:, 0]] ^ part.in_u[e[:, 1]]).all()

    def test_infeasible_profile_rejected(self):
        g = complete_graph(11)  # delta = 10
        profile = loose_profile(eps_u=0.05)  # floor 1/0.05 = 20 > 10
        with pytest.raises(InfeasibleProfile):
            sample_partition(g, profile, seed=0)

    def test_retry_exhausted_is_structured(self, monkeypatch):
        # complete bipartite K(10, 10): every vertex must see 4..6 core
        # neighbours among its 10, which local resampling cannot stabilize
        # within a two-round budget for most seeds.
        edges = [(i, 10 + j) for i in range(10) for j in range(10)]
        g = Graph.build(20, edges)
        profile = loose_profile(eps_u=0.101)
        monkeypatch.setattr("trisum.partition.STAGE_ROUNDS", 2)
        monkeypatch.setattr("trisum.partition.SAMPLE_ATTEMPTS", 1)
        with pytest.raises(RetryExhausted) as exc:
            sample_partition(g, profile, seed=1)
        assert exc.value.stage.startswith("partition")
        assert exc.value.outcome_stage == "partition"
        assert exc.value.rounds == 2
        assert exc.value.violators
        # the core-membership stage redraws at most every vertex a round
        assert exc.value.stage == "partition:u"
        assert 0 < exc.value.resampled <= 2 * g.vertex_count

    def test_stats_recorded(self):
        g = gen_gnp(200, 0.5, seed=1)
        stats = SampleStats()
        sample_partition(g, small_run_profile(), seed=2, stats=stats)
        assert set(stats.rounds) == {"u", "fw", "fu"}

    def test_second_sample_counts_the_failed_samples_redraws(self, monkeypatch):
        # K(10, 10) with a two-round budget: for seed 1, sample 0 fails in
        # the core-membership stage and sample 1 passes
        g = Graph.build(20, [(i, 10 + j) for i in range(10) for j in range(10)])
        profile = loose_profile(eps_u=0.101)
        monkeypatch.setattr("trisum.partition.STAGE_ROUNDS", 2)
        with pytest.raises(RetryExhausted) as first:
            _sample_once(g, profile, 1, 0, SampleStats())
        assert first.value.stage == "partition:u" and first.value.resampled > 0
        second = SampleStats()
        want = _sample_once(g, profile, 1, 1, second)
        stats = SampleStats()
        part = sample_partition(g, profile, seed=1, stats=stats)
        for name in ("in_u", "levels", "fw_mask", "fu_mask"):
            assert np.array_equal(getattr(part, name), getattr(want, name)), name
        assert stats.rounds == second.rounds
        assert stats.resampled == first.value.resampled + second.resampled

    def test_failed_samples_leave_the_last_samples_rounds(self, monkeypatch):
        # K(10, 10) with a two-round budget: for seed 23 the three samples
        # stall in the F_U, the core-membership and the F_W stage
        g = Graph.build(20, [(i, 10 + j) for i in range(10) for j in range(10)])
        profile = loose_profile(eps_u=0.101)
        monkeypatch.setattr("trisum.partition.STAGE_ROUNDS", 2)
        samples = []
        for attempt in range(SAMPLE_ATTEMPTS):
            one = SampleStats()
            with pytest.raises(RetryExhausted) as exc:
                _sample_once(g, profile, 23, attempt, one)
            samples.append((exc.value.stage, one))
        assert [stage for stage, _ in samples] == [
            "partition:fu", "partition:u", "partition:fw"]
        assert samples[0][1].rounds == {"u": 1, "fw": 2, "fu": 2}
        stats = SampleStats()
        with pytest.raises(RetryExhausted):
            sample_partition(g, profile, seed=23, stats=stats)
        assert stats.rounds == samples[-1][1].rounds == {"u": 1, "fw": 2}
        assert stats.resampled == sum(one.resampled for _, one in samples)

    @pytest.mark.parametrize("n", [5, 0])
    def test_edgeless_graph(self, n):
        # minimum degree 0 is below every profile's feasibility floor
        g = Graph.build(n, [])
        stats = SampleStats()
        with pytest.raises(InfeasibleProfile, match="minimum degree 0 is below"):
            sample_partition(g, DESK, seed=0, stats=stats)
        assert stats.rounds == {} and stats.resampled == 0


class TestJInterval:
    def test_all_addenda_vanish(self):
        profile = loose_profile(eps_fu=0.3)
        lo, hi = j_interval_bounds(deg=100, d_fprime=50, d_fw=0, d_u=0, level=0,
                                   profile=profile)
        assert lo == pytest.approx(100 - 30)
        assert hi == pytest.approx(100 + 30)

    def test_width_formula_random(self):
        g = gen_gnp(200, 0.5, seed=4)
        profile = small_run_profile()
        part = sample_partition(g, profile, seed=4)
        for u in part.u_ids[:100]:
            u = int(u)
            lo, hi = j_interval(u, part, profile)
            expect = (
                2 * profile.eps_fu * g.degrees[u]
                + part.d_fw[u] + 2 * part.d_u[u]
            )
            assert hi - lo == pytest.approx(expect)

    def test_full_scale_width_and_spacing_bounds(self):
        # synthetic per-vertex counts satisfying the full-scale constraints
        rng = np.random.default_rng(0)
        for _ in range(500):
            deg = float(rng.uniform(1e20, 1e22))
            d_u = deg * rng.uniform(1e-4 - 1e-6, 1e-4 + 1e-6)
            d_w = deg - d_u
            d_fw = d_w * rng.uniform(1e-4 - 1e-6, 1e-4 + 1e-6)
            d_fprime = d_w - d_fw
            level = int(rng.integers(0, 1000))
            lo, hi = j_interval_bounds(deg, d_fprime, d_fw, d_u, level, FULL_SCALE)
            assert hi - lo < 3.23e-4 * deg
            spacing = d_fprime / FULL_SCALE.m_levels
            assert spacing > 9.9e-4 * deg
            assert spacing > hi - lo

    def test_non_core_vertex_rejected(self):
        # J intervals and N^U_<= exist only for core vertices
        g = gen_gnp(60, 0.5, seed=4)
        profile = loose_profile()
        part = sample_partition(g, profile, seed=4)
        w = int(part.w_ids[0])
        with pytest.raises(ValueError):
            reference_n_u_leq(w, part, profile)


class TestNuLeq:
    @staticmethod
    def _craft(edges, n, in_u_ids):
        # all levels 0 and no F_W or F_U edge, under loose_profile()
        g = Graph.build(n, edges)
        in_u = np.zeros(g.vertex_count, dtype=bool)
        in_u[list(in_u_ids)] = True
        levels = np.where(in_u, 0, -1).astype(np.int64)
        none = np.zeros(g.edge_count, dtype=bool)
        return partition_of(g, loose_profile(), in_u, levels, none, none.copy())

    def test_no_core_neighbours(self):
        part = self._craft([(0, 1), (0, 2)], 3, [0])
        assert reference_n_u_leq(0, part, loose_profile()).size == 0
        assert part.nu_leq[0].size == 0

    def test_degree_filter_excludes_small(self):
        # 0 and 1 in the core and adjacent; deg(1) < deg(0) / 2
        edges = [(0, 1)]
        edges += [(0, 10 + i) for i in range(9)]  # deg(0) = 10
        edges += [(1, 30 + i) for i in range(3)]  # deg(1) = 4
        part = self._craft(edges, 40, [0, 1])
        all_sets = part.nu_leq
        assert reference_n_u_leq(0, part, loose_profile()).size == 0
        assert all_sets[0].size == 0
        # from 1's side, 0 has larger degree, also excluded
        assert reference_n_u_leq(1, part, loose_profile()).size == 0
        assert all_sets[1].size == 0

    @pytest.mark.parametrize("edges, n, core, u", [
        ([(1, 2)], 3, [0, 1], 0),
        ([(0, 1)] + [(0, 10 + i) for i in range(9)] + [(1, 30 + i) for i in range(3)],
         40, [0, 1], 1),
    ], ids=["isolated", "no-comparable-degree"])
    def test_no_comparable_core_neighbour(self, edges, n, core, u):
        part = self._craft(edges, n, core)
        profile = loose_profile()
        got = reference_n_u_leq(u, part, profile)
        assert got.dtype == np.int64 and got.size == 0
        assert part.nu_leq[u].size == 0

    def test_symmetric_equal_pair(self):
        edges = [(0, 1)]
        edges += [(0, 10 + i) for i in range(5)]
        edges += [(1, 20 + i) for i in range(5)]
        part = self._craft(edges, 30, [0, 1])
        profile = loose_profile()
        all_sets = part.nu_leq
        assert reference_n_u_leq(0, part, profile).tolist() == [1]
        assert reference_n_u_leq(1, part, profile).tolist() == [0]
        assert all_sets[0].tolist() == [1]
        assert all_sets[1].tolist() == [0]

    def test_vectorized_matches_scalar(self):
        g = gen_gnp(120, 0.5, seed=6)
        profile = small_run_profile()
        part = sample_partition(g, profile, seed=6)
        all_sets = part.nu_leq
        for u in part.u_ids:
            u = int(u)
            assert all_sets[u].tolist() == reference_n_u_leq(u, part, profile).tolist()

    def test_sampler_counts_match_grouped_sets(self):
        # the sampler's A6 check counts hosts of the shared edge filter
        g = gen_gnp(150, 0.5, seed=7)
        profile = small_run_profile()
        part = sample_partition(g, profile, seed=7)
        hosts, _ = _comparable_pairs(
            _degree_comparable_pairs(g, part.in_u), g.degrees, part.levels,
            part.d_fprime, part.d_fw, part.d_u, profile,
        )
        counts = np.bincount(hosts, minlength=g.vertex_count)
        all_sets = part.nu_leq
        for u in part.u_ids:
            assert counts[u] == len(all_sets[u]) == reference_n_u_leq(int(u), part, profile).size

    # A sparse core and F_W: the J intervals are narrow enough that some
    # core neighbours of comparable degree do not overlap.
    J_FILTER = dataclasses.replace(DESK, p_u=0.1, eps_u=0.05, p_fw=0.1, eps_fw=0.5,
                                   eps_fu=0.1, m_levels=8, min_delta_ratio=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_j_filter_on_sampled_partitions(self, seed):
        g = gen_gnp(300, 0.5, seed=0)
        part = sample_partition(g, self.J_FILTER, seed=seed)
        assert audit_partition(part, self.J_FILTER).ok
        for u in part.u_ids.tolist():
            assert part.nu_leq[u].tolist() == reference_n_u_leq(u, part, self.J_FILTER).tolist()
        assert all(part.nu_leq[w].size == 0 for w in part.w_ids)
        comparable = _degree_comparable_pairs(g, part.in_u)[0].size
        assert sum(len(members) for members in part.nu_leq) < comparable
        # the closed form says the levels can separate a pair
        assert level_separation(self.J_FILTER) > 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_desk_levels_drop_no_pair(self, seed):
        # under DESK the closed form says no pair can be separated, and the
        # J filter keeps every degree-comparable pair
        assert level_separation(DESK) < 1
        g = gen_gnp(300, 0.5, seed=0)
        part = sample_partition(g, DESK, seed=seed)
        comparable = _degree_comparable_pairs(g, part.in_u)[0].size
        assert sum(len(members) for members in part.nu_leq) == comparable > 0


class TestInitialOuterWeights:
    def test_weight_table(self):
        g = gen_gnp(150, 0.5, seed=8)
        profile = small_run_profile()
        part = sample_partition(g, profile, seed=8)
        w = initial_outer_weights(part)
        assert (w[part.eu_mask] == 2).all()
        assert (w[part.fu_mask] == 2).all()
        assert (w[part.f_mask & ~part.fu_mask] == 1).all()
        assert (w[part.fw_mask] == 1).all()  # F_W never sits inside F_U
        assert (w[part.eprime_mask] == 0).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_partition_counts_consistent(seed):
    g = gen_gnp(100, 0.6, seed)
    profile = small_run_profile(eps_u=0.2, eps_fw=0.45, eps_fu=0.49)
    part = sample_partition(g, profile, seed=seed)
    assert np.array_equal(part.d_u + part.d_w, g.degrees)
    assert part.d_fw.sum() == 2 * part.fw_mask.sum()
    assert part.d_fu.sum() == 2 * part.fu_mask.sum()
    # F_W and F' partition the boundary, seen from the periphery side
    assert (part.d_fprime + part.d_fw)[part.w_ids].sum() == part.f_mask.sum()
    # every boundary edge contributes once to each side
    assert part.d_u[part.w_ids].sum() == part.f_mask.sum()


# The count helpers as they were: two boolean compressions and two
# bincounts over the edge array. Oracles for the CSR and index forms.


def reference_count_neighbors_in(g: Graph, vmask: np.ndarray) -> np.ndarray:
    n = g.vertex_count
    if not g.edge_count:
        return np.zeros(n, dtype=np.int64)
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    return (
        np.bincount(e0[vmask[e1]], minlength=n)
        + np.bincount(e1[vmask[e0]], minlength=n)
    ).astype(np.int64)


def reference_count_incident(g: Graph, emask: np.ndarray) -> np.ndarray:
    n = g.vertex_count
    if not g.edge_count:
        return np.zeros(n, dtype=np.int64)
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    return (
        np.bincount(e0[emask], minlength=n) + np.bincount(e1[emask], minlength=n)
    ).astype(np.int64)


@st.composite
def graphs_with_masks(draw):
    """A small graph, often with isolated vertices before, between and
    after its edges, and a vertex mask and an edge mask on it."""
    n = draw(st.integers(0, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=30))
    g = Graph.build(n, [(u, v) for u, v in pairs if u != v and max(u, v) < n])
    vmask = np.array(draw(st.lists(st.booleans(), min_size=g.vertex_count,
                                   max_size=g.vertex_count)), dtype=bool)
    emask = np.array(draw(st.lists(st.booleans(), min_size=g.edge_count,
                                   max_size=g.edge_count)), dtype=bool)
    return g, vmask, emask


def _case(n, pairs, vmask, emask):
    return (Graph.build(n, pairs), np.array(vmask, dtype=bool).reshape(-1),
            np.array(emask, dtype=bool).reshape(-1))


@settings(max_examples=300, deadline=None)
@given(graphs_with_masks())
@example(_case(0, [], [], []))                              # empty graph
@example(_case(4, [], [True, False, True, True], []))       # no edges
@example(_case(2, [(0, 1)], [True, True], [True]))          # a single edge
@example(_case(6, [(1, 2)], [True] * 6, [False]))           # isolated on both sides
@example(_case(5, [(0, 1), (1, 2)], [False, True, True, True, True], [True, True]))
@example(_case(5, [(0, 3), (1, 3)], [True] * 5, [True, True]))  # last row of degree 2, then isolated
def test_count_helpers_match_reference(case):
    g, vmask, emask = case
    for got, want in ((_count_neighbors_in(g, vmask), reference_count_neighbors_in(g, vmask)),
                      (_count_incident(g, emask), reference_count_incident(g, emask))):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


# The formula of each set, id list and count that the sampler derives
# from its choices without a helper of its own.
DERIVED_FORMULAS = {
    "f_mask": lambda p: p.in_u[p.graph.edges[:, 0]] ^ p.in_u[p.graph.edges[:, 1]],
    "fprime_mask": lambda p: p.f_mask & ~p.fw_mask,
    "eu_mask": lambda p: p.in_u[p.graph.edges[:, 0]] & p.in_u[p.graph.edges[:, 1]],
    "eprime_mask": lambda p: ~p.in_u[p.graph.edges[:, 0]] & ~p.in_u[p.graph.edges[:, 1]],
    "u_ids": lambda p: np.flatnonzero(p.in_u),
    "w_ids": lambda p: np.flatnonzero(~p.in_u),
    "d_w": lambda p: p.graph.degrees - p.d_u,
}


def bipartite(a: int, b: int, key) -> Graph:
    mask = np.random.default_rng(key).random((a, b)) < 0.7
    left, right = np.nonzero(mask)
    return Graph(vertex_count=a + b, edges=np.stack([left, right + a], axis=1).astype(np.int64))


def k10_10() -> Graph:
    return Graph.build(20, [(i, 10 + j) for i in range(10) for j in range(10)])


# (graph, profile, run seed, STAGE_ROUNDS or None for the default)
SAMPLER_CASES = {
    "gnp100": (lambda: gen_gnp(100, 0.6, 5),
               small_run_profile(eps_u=0.2, eps_fw=0.45, eps_fu=0.49), 5, None),
    "gnp200": (lambda: gen_gnp(200, 0.5, 3), small_run_profile(), 9, None),
    "gnp250": (lambda: gen_gnp(250, 0.5, 1), small_run_profile(), 1, None),
    "bipartite": (lambda: bipartite(120, 360, [5]), small_run_profile(), 1, None),
    # K(10, 10) with a two-round budget: seed 1's first sample fails in the
    # core-membership stage, so the partition is the second sample's
    "after-failure": (k10_10, loose_profile(eps_u=0.101), 1, 2),
}


def test_derived_fields_match_formulas(monkeypatch):
    # every field the sampler stores, against a formula or a reference
    for case, (build, profile, seed, rounds) in SAMPLER_CASES.items():
        g = build()
        with monkeypatch.context() as patch:
            if rounds is not None:
                patch.setattr("trisum.partition.STAGE_ROUNDS", rounds)
                with pytest.raises(RetryExhausted):
                    _sample_once(g, profile, seed, 0, SampleStats())
            part = sample_partition(g, profile, seed)
        for name, formula in DERIVED_FORMULAS.items():
            got, want = getattr(part, name), formula(part)
            assert got.dtype == want.dtype and np.array_equal(got, want), (case, name)
        for name, want in (("d_u", reference_count_neighbors_in(g, part.in_u)),
                           ("d_fw", reference_count_incident(g, part.fw_mask)),
                           ("d_fprime", reference_count_incident(g, part.fprime_mask)),
                           ("d_fu", reference_count_incident(g, part.fu_mask))):
            got = getattr(part, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (case, name)
        assert len(part.nu_leq) == g.vertex_count
        for v in range(g.vertex_count):
            want = reference_n_u_leq(v, part, profile).tolist() if part.in_u[v] else []
            assert part.nu_leq[v].tolist() == want, (case, v)


# Profiles with m_levels = 4, the level range of crafted_partitions: the
# loose one lets toy graphs pass some families and fail others.
AUDIT_PROFILES = [
    small_run_profile(),
    loose_profile(m_levels=4),
    loose_profile(m_levels=4, frac_nu=0.5, eps_fu=0.2),
]


@st.composite
def crafted_partitions(draw):
    """Any split of a small graph under one of AUDIT_PROFILES, with F_W and
    F_U drawn as subsets of F and of F', and core levels in 0..3; sometimes
    no edges, an empty U or an empty W. Gives (partition, profile)."""
    n = draw(st.integers(0, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30))
    g = Graph.build(n, [(u, v) for u, v in pairs if u != v and max(u, v) < n])
    split = draw(st.sampled_from(["any", "all_u", "all_w"]))
    if split == "any":
        in_u = np.array(draw(st.lists(st.booleans(), min_size=g.vertex_count,
                                      max_size=g.vertex_count)), dtype=bool)
    else:
        in_u = np.full(g.vertex_count, split == "all_u")
    coins = np.array(draw(st.lists(st.integers(0, 2), min_size=g.edge_count,
                                   max_size=g.edge_count)), dtype=np.int64)
    levels = np.array(draw(st.lists(st.integers(0, 3), min_size=g.vertex_count,
                                    max_size=g.vertex_count)), dtype=np.int64)
    profile = draw(st.sampled_from(AUDIT_PROFILES))
    f_mask = in_u[g.edges[:, 0]] ^ in_u[g.edges[:, 1]]
    part = partition_of(g, profile, in_u, np.where(in_u, levels, -1),
                        f_mask & (coins == 1), f_mask & (coins == 2))
    return part, profile


def craft(profile, n, pairs, core, fw=(), fu=(), levels=None) -> Partition:
    """A partition of Graph.build(n, pairs) with the given core, F_W and
    F_U edges (as vertex pairs) and core levels (all 0 unless given)."""
    g = Graph.build(n, pairs)
    in_u = np.zeros(g.vertex_count, dtype=bool)
    in_u[list(core)] = True
    rows = {tuple(e): i for i, e in enumerate(g.edges.tolist())}
    fw_mask = np.zeros(g.edge_count, dtype=bool)
    fw_mask[[rows[tuple(sorted(e))] for e in fw]] = True
    fu_mask = np.zeros(g.edge_count, dtype=bool)
    fu_mask[[rows[tuple(sorted(e))] for e in fu]] = True
    lv = np.zeros(g.vertex_count, dtype=np.int64) if levels is None else np.array(levels)
    return partition_of(g, profile, in_u, np.where(in_u, lv, -1), fw_mask, fu_mask)


def with_stored_count(part: Partition, field_name: str, vertex: int, delta: int) -> Partition:
    value = getattr(part, field_name).copy()
    value[vertex] += delta
    return dataclasses.replace(part, **{field_name: value})


def with_flipped_edge(part: Partition, field_name: str, edge: int) -> Partition:
    value = getattr(part, field_name).copy()
    value[edge] ^= True
    return dataclasses.replace(part, **{field_name: value})


def without_last_periphery_id(part: Partition) -> Partition:
    return dataclasses.replace(part, w_ids=part.w_ids[:-1])


def with_nu_leq(part: Partition, host: int, members: list[int]) -> Partition:
    nu_leq = list(part.nu_leq)
    nu_leq[host] = np.array(members, dtype=np.int64)
    return dataclasses.replace(part, nu_leq=nu_leq)


STAR = [(0, 1), (0, 2)]
PATH4 = [(0, 1), (0, 2), (1, 3)]
# One crafted partition per failure family, built under the given profile,
# and the index of that profile in AUDIT_PROFILES.
FAMILY_CASES = {
    # every neighbour of a K3 vertex is in the core: 2 is far from 0.5 * 2
    "u_degree": (lambda p: craft(p, 3, [(0, 1), (1, 2), (0, 2)], [0, 1, 2]), 1),
    # the periphery centre sees two core neighbours and no F_W edge
    "fw_in_w": (lambda p: craft(p, 3, STAR, [1, 2]), 1),
    # the core centre sees two periphery neighbours and no F_W edge
    "fw_in_u": (lambda p: craft(p, 3, STAR, [0]), 1),
    # level 3 asks for 3/4 of the two F' edges in F_U; none is
    "fu_in_u": (lambda p: craft(p, 3, STAR, [0], levels=[3, 0, 0]), 1),
    # both F' edges of the periphery centre in F_U, against 3/8 expected
    "fu_in_w": (lambda p: craft(p, 3, STAR, [1, 2], fu=STAR), 1),
    # two adjacent core vertices of equal degree, one core neighbour each
    "nu_leq": (lambda p: craft(p, 4, PATH4, [0, 1]), 2),
    # an edge in both F_W and F_U
    "structure": (lambda p: craft(p, 3, STAR, [0], fw=[(0, 1)], fu=[(0, 1)]), 1),
    # a stored d_FW one above the count
    "derived_counts": (lambda p: with_stored_count(craft(p, 3, STAR, [0]), "d_fw", 1, 1), 1),
    # the boundary edge (0, 1) stored as inside U
    "derived_masks": (lambda p: with_flipped_edge(craft(p, 3, STAR, [0]), "eu_mask", 0), 1),
    # periphery vertex 2 left out of w_ids
    "derived_ids": (lambda p: without_last_periphery_id(craft(p, 3, STAR, [0])), 1),
    # periphery vertex 2 stored as comparable with core vertex 0
    "derived_nu": (lambda p: with_nu_leq(craft(p, 4, PATH4, [0, 1]), 0, [1, 2]), 1),
}


@pytest.mark.parametrize("family", list(FAMILY_CASES))
def test_each_family_fails_as_the_reference_does(family):
    build, which = FAMILY_CASES[family]
    profile = AUDIT_PROFILES[which]
    part = build(profile)
    report = audit_partition(part, profile)
    want = reference_audit_partition(part, profile)
    assert report.failures == want
    assert report.failures[family]
    assert not report.ok


@settings(max_examples=200, deadline=None)
@given(crafted_partitions())
def test_audit_matches_reference_on_crafted_partitions(case):
    part, profile = case
    report = audit_partition(part, profile)
    want = reference_audit_partition(part, profile)
    assert report.failures == want
    assert report.ok == (not any(want.values()))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_audit_matches_reference_on_perturbed_samples(seed):
    # a sampled partition with a few core memberships, F_W and F_U coins
    # flipped and core levels redrawn; the sets need not stay consistent
    g = gen_gnp(90, 0.5, seed % 7)
    profile = small_run_profile()
    part = sample_partition(g, profile, seed=seed % 5)
    rng = np.random.default_rng(seed)
    in_u = part.in_u.copy()
    in_u[rng.integers(0, g.vertex_count, rng.integers(0, 4))] ^= True
    fw, fu = part.fw_mask.copy(), part.fu_mask.copy()
    fw[rng.integers(0, g.edge_count, rng.integers(0, 30))] ^= True
    fu[rng.integers(0, g.edge_count, rng.integers(0, 30))] ^= True
    levels = np.where(in_u, part.levels, -1)
    moved = rng.random(g.vertex_count) < 0.2
    levels[moved & in_u] = rng.integers(0, profile.m_levels, (moved & in_u).sum())
    levels[in_u & (levels < 0)] = 0
    perturbed = partition_of(g, profile, in_u, levels, fw, fu)
    for p in (part, perturbed):
        assert audit_partition(p, profile).failures == reference_audit_partition(p, profile)


@pytest.fixture(scope="module")
def sampled_250():
    g = gen_gnp(250, 0.5, 1)
    profile = small_run_profile()
    part = sample_partition(g, profile, seed=1)
    assert audit_partition(part, profile).ok
    return part, profile


@pytest.mark.parametrize("field_name", ["d_u", "d_w", "d_fw", "d_fprime", "d_fu"])
def test_audit_checks_every_derived_count(field_name, sampled_250):
    # every later stage reads these counts: one stored wrongly at one core
    # and one periphery vertex fails the audit, and only as derived_counts
    part, profile = sampled_250
    u, w = int(part.u_ids[0]), int(part.w_ids[0])
    for v in (u, w):
        part = with_stored_count(part, field_name, v, 7)
    report = audit_partition(part, profile)
    assert not report.ok
    assert report.failures == reference_audit_partition(part, profile)
    assert report.failures["derived_counts"] == sorted([u, w])
    assert not any(bad for name, bad in report.failures.items() if name != "derived_counts")


@pytest.mark.parametrize("field_name, change", [
    ("f_mask", "flip"), ("fprime_mask", "flip"), ("eu_mask", "flip"), ("eprime_mask", "flip"),
    ("u_ids", "drop"), ("u_ids", "add"), ("u_ids", "repeat"), ("w_ids", "drop"),
    ("w_ids", "add"), ("nu_leq", "swap"),
])
def test_audit_checks_every_stored_set(field_name, change, sampled_250):
    # every later stage reads these sets: one wrong edge, id or member
    # fails the audit in its own family (a wrong F or F' also breaks the
    # F = F_W + F' identity)
    part, profile = sampled_250
    value = getattr(part, field_name)
    if change == "flip":
        bad = int(np.flatnonzero(value)[0])
        value = value.copy()
        value[bad] = False
        want = {"derived_masks": [bad]}
        if field_name in ("f_mask", "fprime_mask"):
            want["structure"] = [-2]
    elif change == "drop":
        bad = int(value[len(value) // 2])
        value = value[value != bad]
        want = {"derived_ids": [bad]}
    elif change == "add":
        bad = int((part.w_ids if field_name == "u_ids" else part.u_ids)[0])
        value = np.sort(np.append(value, bad))
        want = {"derived_ids": [bad]}
    elif change == "repeat":
        # the right set of ids, one of them listed twice
        bad = int(value[0])
        value = np.sort(np.append(value, bad))
        want = {"derived_ids": [bad]}
    else:
        bad = int(np.flatnonzero([len(members) for members in value])[0])
        value = list(value)
        value[bad] = value[bad].copy()
        value[bad][0] = part.w_ids[0]
        want = {"derived_nu": [bad]}
    part = dataclasses.replace(part, **{field_name: value})
    report = audit_partition(part, profile)
    assert not report.ok
    assert report.failures == reference_audit_partition(part, profile)
    assert {name: bad for name, bad in report.failures.items() if bad} == want


@pytest.mark.parametrize("inside", ["eu_mask", "eprime_mask"])
def test_audit_checks_fu_inside_fprime(inside, sampled_250):
    # one edge inside U, or inside W, put into F_U with d_FU counted to
    # match: every count agrees, and only F_U <= F' catches it
    part, profile = sampled_250
    e = int(np.flatnonzero(getattr(part, inside))[0])
    fu_mask = part.fu_mask.copy()
    fu_mask[e] = True
    part = partition_of(part.graph, profile, part.in_u, part.levels, part.fw_mask, fu_mask)
    report = audit_partition(part, profile)
    assert not report.ok
    assert report.failures == reference_audit_partition(part, profile)
    assert {name: bad for name, bad in report.failures.items() if bad} == {"structure": [-3]}


@pytest.mark.parametrize("field_name, delta", [("d_fprime", 7), ("d_u", -7)])
def test_audit_builds_j_intervals_from_its_recounts(field_name, delta):
    # the stored count would move core vertex 0's J interval clear of its
    # core neighbour's; N^U_<= still counts the overlap of the recounted ones
    profile = AUDIT_PROFILES[2]
    part = craft(profile, 4, PATH4, [0, 1], levels=[3, 0, 0, 0])
    part = with_stored_count(part, field_name, 0, delta)
    report = audit_partition(part, profile)
    assert report.failures == reference_audit_partition(part, profile)
    assert report.failures["nu_leq"] == [0, 1]
    assert report.failures["derived_counts"] == [0]


def test_partition_is_frozen(sampled_250):
    part, _ = sampled_250
    with pytest.raises(dataclasses.FrozenInstanceError):
        part.d_u = part.d_u.copy()


def test_stages_only_read_derived_fields(monkeypatch):
    """A run's stages share the partition's arrays; none may write them."""
    seen = []

    def arrays(part):
        # every stored array but the graph's, the N^U_<= lists one by one
        out = {f.name: [getattr(part, f.name)] for f in dataclasses.fields(part)
               if f.name not in ("graph", "nu_leq")}
        out["nu_leq"] = part.nu_leq
        return out

    def sample_and_keep(*args, **kwargs):
        part = sample_partition(*args, **kwargs)
        seen.append((part, {k: [a.copy() for a in v] for k, v in arrays(part).items()}))
        return part

    monkeypatch.setattr(pipeline, "sample_partition", sample_and_keep)
    # the pipeline tests' bipartite instance, where a DESK run succeeds
    assert pipeline.run(bipartite(400, 1200, [101, 0, 0]), DESK, seed=0).success
    assert seen
    for part, before in seen:
        for name, value in arrays(part).items():
            assert len(value) == len(before[name]), name
            assert all(np.array_equal(a, b) for a, b in zip(value, before[name])), name


# The sampler as it was, with m-wide F_W coins, F_U uniforms and edge ends,
# and stage 1's scope from two gathers over the edge list: the reference
# that `_sample_once` must match draw for draw.


def reference_sample_once(
    g: Graph, profile: ProfileConstants, seed: int, attempt: int,
    stats: SampleStats,
) -> Partition:
    n, m = g.vertex_count, g.edge_count
    deg = g.degrees
    stats.rounds = {}
    e0, e1 = g.edges[:, 0], g.edges[:, 1]

    # Stage 1: core memberships under the degree-concentration constraint.
    in_u = stream(seed, TAG_PART_U, attempt, 0).random(n) < profile.p_u
    resampled = 0
    for rnd in range(1, partition.STAGE_ROUNDS + 1):
        d_u = _count_neighbors_in(g, in_u)
        viol = np.abs(d_u - profile.p_u * deg) > profile.eps_u * deg
        if not viol.any():
            break
        scope = np.zeros(n, dtype=bool)
        scope[e0[viol[e1]]] = True
        scope[e1[viol[e0]]] = True
        fresh = stream(seed, TAG_PART_U, attempt, rnd).random(n) < profile.p_u
        in_u[scope] = fresh[scope]
        resampled += int(scope.sum())
    _end_stage(stats, "u", rnd, resampled, viol)

    d_w = deg - d_u
    f_mask = in_u[e0] ^ in_u[e1]

    # Stage 2: F_W coins under both degree constraints.
    coins = stream(seed, TAG_PART_FW, attempt, 0).random(m)
    resampled = 0
    for rnd in range(1, partition.STAGE_ROUNDS + 1):
        fw_mask = f_mask & (coins < profile.p_fw)
        d_fw = _count_incident(g, fw_mask)
        viol_w = ~in_u & (np.abs(d_fw - profile.p_fw * d_u) > profile.eps_fw * d_u)
        viol_u = in_u & (np.abs(d_fw - profile.p_fw * d_w) > profile.eps_fw * d_w)
        viol = viol_w | viol_u
        if not viol.any():
            break
        scope_e = f_mask & (viol[e0] | viol[e1])
        fresh = stream(seed, TAG_PART_FW, attempt, rnd).random(m)
        coins[scope_e] = fresh[scope_e]
        resampled += int(scope_e.sum())
    _end_stage(stats, "fw", rnd, resampled, viol)

    fprime_mask = f_mask & ~fw_mask
    d_fprime = _count_incident(g, fprime_mask)

    # Stage 3: levels and F_U coins jointly.
    mlev = profile.m_levels
    levels = stream(seed, TAG_PART_LEVEL, attempt, 0).integers(0, mlev, size=n)
    levels[~in_u] = -1
    unif = stream(seed, TAG_PART_FU, attempt, 0).random(m)
    u_end = np.where(in_u[e0], e0, e1)
    w_end = np.where(in_u[e0], e1, e0)
    mean_frac = (1.0 - 1.0 / mlev) / 2.0
    # Only the J intervals move with the levels; the candidate pairs do not.
    pairs = _degree_comparable_pairs(g, in_u)
    resampled = 0
    for rnd in range(1, partition.STAGE_ROUNDS + 1):
        fu_mask = fprime_mask & (unif < levels[u_end] / mlev)
        d_fu = _count_incident(g, fu_mask)
        viol_a4 = in_u & (
            np.abs(d_fu - (levels / mlev) * d_fprime) > profile.eps_fu * deg
        )
        viol_a5 = ~in_u & (
            np.abs(d_fu - mean_frac * d_fprime) > profile.eps_fu * d_fprime
        )
        hosts, members = _comparable_pairs(pairs, deg, levels, d_fprime, d_fw, d_u, profile)
        nu_counts = np.bincount(hosts, minlength=n)
        viol_a6 = in_u & (nu_counts > profile.frac_nu * d_u)
        viol_levels = viol_a4 | viol_a6
        viol = viol_levels | viol_a5
        if not viol.any():
            break
        fresh_lv = stream(seed, TAG_PART_LEVEL, attempt, rnd).integers(0, mlev, size=n)
        levels[viol_levels] = fresh_lv[viol_levels]
        scope_e = fprime_mask & (viol_levels[u_end] | viol_a5[w_end])
        fresh_u = stream(seed, TAG_PART_FU, attempt, rnd).random(m)
        unif[scope_e] = fresh_u[scope_e]
        resampled += int(scope_e.sum()) + int(viol_levels.sum())
    _end_stage(stats, "fu", rnd, resampled, viol)

    return Partition(
        graph=g, in_u=in_u, levels=levels, fw_mask=fw_mask, fu_mask=fu_mask,
        f_mask=f_mask, fprime_mask=fprime_mask,
        eu_mask=in_u[e0] & in_u[e1], eprime_mask=~in_u[e0] & ~in_u[e1],
        u_ids=np.flatnonzero(in_u), w_ids=np.flatnonzero(~in_u),
        d_u=d_u, d_w=d_w, d_fw=d_fw, d_fprime=d_fprime, d_fu=d_fu,
        nu_leq=group_by(hosts, members, n),
    )


def sample_outcome(sample_once, g: Graph, profile: ProfileConstants, seed: int,
                   attempt: int):
    """What one sample gives: the dtype, shape and bytes of every field of
    its partition (each N^U_<= list on its own), or its error's stage,
    violators, rounds and redraws; and the stats it wrote."""
    stats = SampleStats()
    try:
        part = sample_once(g, profile, seed, attempt, stats)
    except RetryExhausted as exc:
        got = (exc.stage, exc.violators, exc.rounds, exc.resampled)
    else:
        got = []
        for f in dataclasses.fields(part):
            if f.name == "graph":
                continue
            value = getattr(part, f.name)
            got.append((f.name, [(a.dtype.str, a.shape, a.tobytes())
                                 for a in (value if f.name == "nu_leq" else [value])]))
    return got, stats.rounds, stats.resampled


def assert_samples_match(g: Graph, profile: ProfileConstants, seed: int) -> list:
    """Every sample `sample_partition` draws for this seed matches the
    reference; returns the stage each failed sample ended in."""
    failed = []
    for attempt in range(SAMPLE_ATTEMPTS):
        got = sample_outcome(_sample_once, g, profile, seed, attempt)
        assert got == sample_outcome(reference_sample_once, g, profile, seed, attempt)
        if isinstance(got[0], list):
            break
        failed.append(got[0][0])
    return failed


def attempt_seeds(seed: int) -> list[int]:
    """The seeds of a run's attempts: its own, then its restart's."""
    return [seed, derive_seed(seed, TAG_RESTART, 1)]


@pytest.fixture(scope="module")
def reference_instances():
    return {"gnp": gen_gnp(1500, 0.5, 42), "reg": gen_random_regular(2000, 400, 7)}


class TestSamplerAgainstReference:
    @pytest.mark.parametrize("name", ["gnp", "reg"])
    def test_reference_runs(self, reference_instances, name):
        # the attempts of run seeds 0-2, restarts included
        g = reference_instances[name]
        for seed in range(3):
            for attempt_seed in attempt_seeds(seed):
                assert_samples_match(g, DESK, attempt_seed)

    def test_stage_one_exhausts_its_rounds(self):
        # reg:600,200, gen-seed 1: a violator's scope is its 200
        # neighbours. Under today's generator every sample of run seed 4
        # passes, after up to 68 stage-1 rounds; the first sample of run
        # seed 8 ends in stage 1 after 80.
        g = gen_random_regular(600, 200, 1)
        failed = []
        for seed in (4, 8):
            for attempt_seed in attempt_seeds(seed):
                failed += assert_samples_match(g, DESK, attempt_seed)
        assert "partition:u" in failed

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 40), p=st.floats(0.3, 1.0), gen_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**32 - 1), attempt=st.integers(0, SAMPLE_ATTEMPTS - 1),
        rounds=st.sampled_from([1, 2, 4, 80]), p_u=st.floats(0.3, 0.7),
        eps_u_share=st.floats(0.5, 0.99), p_fw=st.floats(0.1, 0.9),
        eps_fw=st.floats(0.05, 1.5), m_levels=st.integers(2, 6), eps_fu=st.floats(0.05, 1.5),
        frac_nu=st.just(1.0) | st.floats(0.05, 1.0),
    )
    def test_small_graphs(self, n, p, gen_seed, seed, attempt, rounds, p_u, eps_u_share,
                          p_fw, eps_fw, m_levels, eps_fu, frac_nu):
        # small round budgets too, so that samples end in every stage; about
        # half of them pass
        g = gen_gnp(n, p, gen_seed)
        profile = loose_profile(p_u=p_u, eps_u=eps_u_share * p_u, p_fw=p_fw, eps_fw=eps_fw,
                                m_levels=m_levels, eps_fu=eps_fu, frac_nu=frac_nu)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "STAGE_ROUNDS", rounds)
            got = sample_outcome(_sample_once, g, profile, seed, attempt)
            assert got == sample_outcome(reference_sample_once, g, profile, seed, attempt)


class TestMemoryBudget:
    def test_sample_partition_peak(self, desk_reference_stages):
        # at most 40 B per edge: with m-wide F_W coins, F_U uniforms and
        # edge ends the sampler peaked at 55.2
        part, _, _ = desk_reference_stages
        g = part.graph
        again, peak = traced_peak(lambda: sample_partition(g, DESK, 5))
        assert np.array_equal(again.fu_mask, part.fu_mask)
        assert peak <= 40 * g.edge_count
