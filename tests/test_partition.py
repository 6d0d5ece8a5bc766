import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import j_interval, loose_profile, small_run_profile
from trisum.errors import InfeasibleProfile, RetryExhausted
from trisum.graph import Graph, gen_gnp
from trisum.partition import (
    Partition,
    SampleStats,
    _comparable_pairs,
    _count_incident,
    _count_neighbors_in,
    audit_partition,
    initial_outer_weights,
    j_interval_bounds,
    n_u_leq,
    n_u_leq_all,
    sample_partition,
)
from trisum import pipeline
from trisum.profiles import DESK, FULL_SCALE


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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

    def test_stats_recorded(self):
        g = gen_gnp(200, 0.5, seed=1)
        stats = SampleStats()
        sample_partition(g, small_run_profile(), seed=2, stats=stats)
        assert set(stats.rounds) == {"u", "fw", "fu"}


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
            n_u_leq(w, part, profile)


class TestNuLeq:
    @staticmethod
    def _craft(edges, n, in_u_ids, degrees_pad=None):
        g = Graph.build(n, edges)
        in_u = np.zeros(g.vertex_count, dtype=bool)
        in_u[list(in_u_ids)] = True
        levels = np.where(in_u, 0, -1).astype(np.int64)
        e = g.edges
        f = in_u[e[:, 0]] ^ in_u[e[:, 1]]
        return Partition(
            graph=g, in_u=in_u, levels=levels, f_mask=f,
            fw_mask=np.zeros(g.edge_count, dtype=bool),
            fu_mask=np.zeros(g.edge_count, dtype=bool),
        )

    def test_no_core_neighbours(self):
        part = self._craft([(0, 1), (0, 2)], 3, [0])
        assert n_u_leq(0, part, loose_profile()).size == 0

    def test_degree_filter_excludes_small(self):
        # 0 and 1 in the core and adjacent; deg(1) < deg(0) / 2
        edges = [(0, 1)]
        edges += [(0, 10 + i) for i in range(9)]  # deg(0) = 10
        edges += [(1, 30 + i) for i in range(3)]  # deg(1) = 4
        part = self._craft(edges, 40, [0, 1])
        assert n_u_leq(0, part, loose_profile()).size == 0
        # from 1's side, 0 has larger degree, also excluded
        assert n_u_leq(1, part, loose_profile()).size == 0

    def test_symmetric_equal_pair(self):
        edges = [(0, 1)]
        edges += [(0, 10 + i) for i in range(5)]
        edges += [(1, 20 + i) for i in range(5)]
        part = self._craft(edges, 30, [0, 1])
        profile = loose_profile()
        assert n_u_leq(0, part, profile).tolist() == [1]
        assert n_u_leq(1, part, profile).tolist() == [0]

    def test_vectorized_matches_scalar(self):
        g = gen_gnp(120, 0.5, seed=6)
        profile = small_run_profile()
        part = sample_partition(g, profile, seed=6)
        all_sets = n_u_leq_all(part, profile)
        for u in part.u_ids:
            u = int(u)
            assert all_sets[u].tolist() == n_u_leq(u, part, profile).tolist()

    def test_sampler_counts_match_grouped_sets(self):
        # the sampler's A6 check counts hosts of the shared edge filter
        g = gen_gnp(150, 0.5, seed=7)
        profile = small_run_profile()
        part = sample_partition(g, profile, seed=7)
        hosts, _ = _comparable_pairs(
            g, part.in_u, part.levels, part.d_fprime, part.d_fw, part.d_u, profile
        )
        counts = np.bincount(hosts, minlength=g.vertex_count)
        all_sets = n_u_leq_all(part, profile)
        for u in part.u_ids:
            assert counts[u] == len(all_sets[u]) == n_u_leq(int(u), part, profile).size


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


# The formulas of the Partition properties that the computed fields replaced.
DERIVED_FORMULAS = {
    "fprime_mask": lambda p: p.f_mask & ~p.fw_mask,
    "eu_mask": lambda p: p.in_u[p.graph.edges[:, 0]] & p.in_u[p.graph.edges[:, 1]],
    "eprime_mask": lambda p: ~p.in_u[p.graph.edges[:, 0]] & ~p.in_u[p.graph.edges[:, 1]],
    "u_ids": lambda p: np.flatnonzero(p.in_u),
    "w_ids": lambda p: np.flatnonzero(~p.in_u),
    "d_w": lambda p: p.graph.degrees - p.d_u,
}


@st.composite
def crafted_partitions(draw):
    """Any split of a small graph, with F_W and F_U drawn as subsets of F
    and of F'; sometimes no edges, an empty U or an empty W."""
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
    f_mask = in_u[g.edges[:, 0]] ^ in_u[g.edges[:, 1]]
    return Partition(
        graph=g, in_u=in_u, levels=np.where(in_u, 0, -1).astype(np.int64),
        f_mask=f_mask, fw_mask=f_mask & (coins == 1), fu_mask=f_mask & (coins == 2),
    )


@settings(max_examples=150, deadline=None)
@given(crafted_partitions())
def test_derived_fields_match_formulas(part):
    for name, formula in DERIVED_FORMULAS.items():
        got, want = getattr(part, name), formula(part)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_stages_only_read_derived_fields(monkeypatch):
    """A run's stages share the partition's arrays; none may write them."""
    seen = []

    def sample_and_keep(*args, **kwargs):
        part = sample_partition(*args, **kwargs)
        shared = [f.name for f in dataclasses.fields(part) if not f.init]
        seen.append((part, {k: getattr(part, k).copy() for k in shared}))
        return part

    monkeypatch.setattr(pipeline, "sample_partition", sample_and_keep)
    # the pipeline tests' bipartite instance, where a DESK run succeeds
    mask = np.random.default_rng([101, 0, 0]).random((400, 1200)) < 0.7
    left, right = np.nonzero(mask)
    g = Graph(vertex_count=1600, edges=np.stack([left, right + 400], axis=1).astype(np.int64))
    assert pipeline.run(g, DESK, seed=0).success
    assert seen
    for part, before in seen:
        for name, value in before.items():
            assert np.array_equal(getattr(part, name), value), name
