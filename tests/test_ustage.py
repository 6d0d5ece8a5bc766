import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import j_interval, loose_profile, small_run_profile
from trisum.errors import InternalInconsistency, NoValidPair
from trisum.graph import Graph, gen_gnp, gen_random_regular, group_by
from trisum.partition import Partition, initial_outer_weights, n_u_leq_all, sample_partition
from trisum.ustage import build_estar, estar_bounds_hold, final_verify, finalize_u
from trisum.weighting import EdgeWeighting, weighted_degrees


def craft_partition(g: Graph, core_ids) -> Partition:
    in_u = np.zeros(g.vertex_count, dtype=bool)
    in_u[list(core_ids)] = True
    levels = np.where(in_u, 0, -1).astype(np.int64)
    return Partition(
        graph=g, in_u=in_u, levels=levels,
        fw_mask=np.zeros(g.edge_count, dtype=bool),
        fu_mask=np.zeros(g.edge_count, dtype=bool),
    )


def edge_id(g: Graph, u: int, v: int) -> int:
    key = (min(u, v), max(u, v))
    for e, (a, b) in enumerate(g.edges):
        if (int(a), int(b)) == key:
            return e
    raise KeyError(key)


def reference_pairing_owner(part: Partition) -> np.ndarray:
    """build_estar's orientation by a plain walk of each trail.

    Slots from per-vertex incidence lists sorted by neighbour, each odd
    vertex's auxiliary slot last and the auxiliary vertex's slots after all
    others; twins matched through a dict of edge keys; each trail followed
    one slot at a time and labelled by its first (smallest) slot.
    """
    g = part.graph
    n, m = g.vertex_count, g.edge_count
    inc: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for e in np.flatnonzero(part.eu_mask).tolist():
        a, b = g.edges[e].tolist()
        inc[a].append((b, e))
        inc[b].append((a, e))
    slots: list[tuple[int, int]] = []  # (vertex, edge key)
    odd: list[int] = []
    for v in range(n):
        keys = [e for _, e in sorted(inc[v])]
        if len(keys) % 2:
            keys.append(m + len(odd))
            odd.append(v)
        slots += [(v, k) for k in keys]
    slots += [(n, m + j) for j in range(len(odd))]
    ends: dict[int, list[int]] = {}
    for i, (_, k) in enumerate(slots):
        ends.setdefault(k, []).append(i)
    twin = [0] * len(slots)
    for i, j in ends.values():
        twin[i], twin[j] = j, i
    label: list[int | None] = [None] * len(slots)
    for i in range(len(slots)):
        j = i
        while label[j] is None:
            label[j] = i
            j = twin[j] ^ 1
    owner = np.full(m, -1, dtype=np.int64)
    for i, (v, k) in enumerate(slots):
        if k < m and label[i] < label[twin[i]]:
            owner[k] = v
    return owner


def checked_owner(part: Partition) -> np.ndarray:
    """build_estar's owners, checked against reference_pairing_owner and
    for the properties finalize_u relies on, recounted from the edge list:
    each core edge is owned by one of its own ends, no other edge is owned,
    and each core vertex owns half its core degree, rounded either way."""
    owner = build_estar(part)
    assert np.array_equal(owner, reference_pairing_owner(part))
    g = part.graph
    core = np.flatnonzero(part.eu_mask)
    ends = g.edges[core]
    assert ((owner[core] == ends[:, 0]) | (owner[core] == ends[:, 1])).all()
    assert (owner[~part.eu_mask] == -1).all()
    owned = np.bincount(owner[core], minlength=g.vertex_count)
    u = part.u_ids
    assert (np.abs(2 * owned[u] - part.d_u[u]) <= 1).all()
    assert estar_bounds_hold(part, owner)
    return owner


@st.composite
def random_cores(draw):
    """A graph on up to 24 vertices and a random core inside it."""
    n = draw(st.integers(1, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    core = draw(st.lists(st.integers(0, n - 1), unique=True))
    return craft_partition(Graph.build(n, edges), core)


def reference_finalize_u(
    part: Partition, omega2: EdgeWeighting, owner: np.ndarray, profile,
) -> EdgeWeighting:
    """finalize_u as it was: a Python loop over each core vertex's owned
    edges, one flip at a time. The oracle for its results and errors."""
    g = part.graph
    mod = profile.modulus_m
    w = omega2.weights.copy()
    s = weighted_degrees(g, w)
    n = g.vertex_count
    pair_base = np.full(n, -1, dtype=np.int64)
    processed = np.zeros(n, dtype=bool)

    u_ids = part.u_ids
    order = u_ids[np.lexsort((u_ids, g.degrees[u_ids]))]
    nu_cache = n_u_leq_all(part, profile)
    owned_eids = np.flatnonzero(owner >= 0)
    owned_lists = group_by(owner[owned_eids], owned_eids, n)
    # The endpoint of each owned edge that is not its owner.
    other = np.where(g.edges[:, 0] == owner, g.edges[:, 1], g.edges[:, 0])

    for u in order:
        u = int(u)
        owned = owned_lists[u]
        forced_plus: list[int] = []
        forced_minus: list[int] = []
        free: list[int] = []
        for e, v in zip(owned.tolist(), other[owned].tolist()):
            if processed[v]:
                base = int(pair_base[v])
                if s[v] == base:
                    forced_plus.append(e)
                elif s[v] == base + 1:
                    forced_minus.append(e)
                else:
                    raise InternalInconsistency(
                        f"processed vertex {v} drifted out of its pair"
                    )
            else:
                free.append(e)
        n_plus = len(forced_plus) + len(free)
        n_minus = len(forced_minus) + len(free)
        lo = int(s[u]) - n_minus
        hi = int(s[u]) + n_plus
        blocked = {
            int(pair_base[v]) for v in nu_cache[u]
            if processed[v]
        }
        target = None
        first = -(-lo // mod) * mod  # smallest multiple of mod >= lo
        for cand in range(first, hi + 1, mod):
            if cand not in blocked:
                target = cand
                break
        if target is None:
            raise NoValidPair(u, {
                "reachable": (lo, hi),
                "sum": int(s[u]),
                "owned": len(owned),
                "blocked_pairs": sorted(blocked),
                "comparable_neighbours": len(nu_cache[u]),
            })
        shift = target - int(s[u])
        if shift > 0:
            pool = forced_plus + free
            step = 1
        else:
            pool = forced_minus + free
            step = -1
        for e in pool[: abs(shift)]:
            if not 1 <= w[e] + step <= 3:
                raise InternalInconsistency(f"flip would leave [1,3] at edge {e}")
            w[e] += step
            s[u] += step
            s[other[e]] += step
        if int(s[u]) != target:
            raise InternalInconsistency(f"vertex {u} missed its target sum")
        pair_base[u] = target
        processed[u] = True

    return EdgeWeighting(weights=w, max_weight=3)


def reference_final_verify(
    part: Partition, omega3: EdgeWeighting, profile, expected_periphery_sums=None,
) -> dict:
    """The per-vertex loops final_verify once ran, with a plain-loop recount.

    Returns the six violation lists of VerifyReport.to_dict().
    """
    g = part.graph
    s3 = [0] * g.vertex_count
    for e, (a, b) in enumerate(g.edges.tolist()):
        s3[a] += int(omega3.weights[e])
        s3[b] += int(omega3.weights[e])
    mod = profile.modulus_m
    reserved = {0, 1}
    out = {
        "conflict_edges": [
            e for e, (a, b) in enumerate(g.edges.tolist()) if s3[a] == s3[b]
        ],
        "bad_core_residues": [
            int(u) for u in part.u_ids if s3[u] % mod not in reserved
        ],
        "bad_periphery_residues": [
            int(v) for v in part.w_ids if s3[v] % mod in reserved
        ],
        "changed_periphery_sums": [],
        "range_violations": [
            int(u) for u in part.u_ids
            if not g.degrees[u] <= s3[u] <= 2 * g.degrees[u]
        ],
        "interval_violations": [],
    }
    if expected_periphery_sums is not None:
        out["changed_periphery_sums"] = [
            int(v) for v in part.w_ids
            if s3[v] != int(expected_periphery_sums[v])
        ]
    for u in part.u_ids:
        lo, hi = j_interval(int(u), part, profile)
        if not lo <= s3[u] <= hi:
            out["interval_violations"].append(int(u))
    return out


def distinguishing_cases_hold(part: Partition, profile, s3: np.ndarray) -> bool:
    """Every core-core edge falls into one of the three separating cases.

    Either the degrees differ by more than a factor two, or the J envelopes
    are disjoint, or the two endpoints carry distinct residue pairs. A core
    sum lies in its pair {kM, kM + 1}, so its pair base is kM.
    """
    g = part.graph
    pair_base = s3 - s3 % profile.modulus_m
    eu_ids = np.flatnonzero(part.eu_mask)
    for e in eu_ids:
        a, b = int(g.edges[e, 0]), int(g.edges[e, 1])
        if g.degrees[a] > g.degrees[b]:
            a, b = b, a
        if g.degrees[a] < 0.5 * g.degrees[b]:
            continue
        a_lo, a_hi = j_interval(a, part, profile)
        b_lo, b_hi = j_interval(b, part, profile)
        if not (a_lo <= b_hi and b_lo <= a_hi):
            continue
        if pair_base[a] != pair_base[b]:
            continue
        return False
    return True


def hub_triangle(light_leaf_weight: int = 2):
    """Three mutually adjacent core hubs with degrees 20, 50, 120.

    Degree ratios exceed two, so no hub is comparable with another and the
    pair rule never blocks. All edges weigh 2 except optionally one leaf
    edge of the smallest hub.
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    leaves = {0: range(3, 21), 1: range(21, 69), 2: range(69, 187)}
    for hub, rng in leaves.items():
        edges.extend((hub, leaf) for leaf in rng)
    g = Graph.build(187, edges)
    part = craft_partition(g, [0, 1, 2])
    w = np.full(g.edge_count, 2, dtype=np.int64)
    if light_leaf_weight != 2:
        w[edge_id(g, 0, 3)] = light_leaf_weight
    return g, part, EdgeWeighting(weights=w, max_weight=3)


class TestBuildEstar:
    def test_single_core_edge(self):
        g = Graph.build(4, [(0, 1), (0, 2), (1, 3)])
        part = craft_partition(g, [0, 1])
        owner = build_estar(part)
        e01 = edge_id(g, 0, 1)
        assert owner[e01] in (0, 1)
        assert estar_bounds_hold(part, owner)

    def test_cycle_each_owns_one(self):
        # C4 inside the core plus periphery padding
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
        g = Graph.build(5, edges)
        part = craft_partition(g, [0, 1, 2, 3])
        owner = build_estar(part)
        counts = np.bincount(owner[owner >= 0], minlength=5)
        assert counts[:4].tolist() == [1, 1, 1, 1]
        assert estar_bounds_hold(part, owner)

    def test_triangle_orientation(self):
        g, part, _ = hub_triangle()
        owner = build_estar(part)
        assert owner[edge_id(g, 0, 1)] == 0
        assert owner[edge_id(g, 1, 2)] == 1
        assert owner[edge_id(g, 0, 2)] == 2

    def test_empty_core(self):
        g = gen_gnp(10, 0.5, seed=0)
        owner = checked_owner(craft_partition(g, []))
        assert (owner == -1).all()

    def test_random_partitions_satisfy_bounds(self):
        rng = np.random.default_rng(0)
        for seed in range(40):
            g = gen_gnp(40, 0.4, seed=seed)
            core = np.flatnonzero(rng.random(40) < 0.5)
            part = craft_partition(g, core)
            owner = build_estar(part)
            assert estar_bounds_hold(part, owner)
            # owners only own their own incident core edges
            for e in np.flatnonzero(owner >= 0):
                u, v = g.edges[e]
                assert owner[e] in (u, v)
                assert part.in_u[u] and part.in_u[v]

    def test_balanced_on_random_cores(self):
        rng = np.random.default_rng(1)
        for seed in range(12):
            g = gen_gnp(60, float(rng.uniform(0.1, 0.6)), seed=seed)
            part = craft_partition(g, np.flatnonzero(rng.random(60) < 0.5))
            checked_owner(part)

    def test_balanced_on_several_components(self):
        # three core components: a path (two odd ends), a K4 (all odd) and
        # a C5 (all even), joined through periphery vertices 12, 14 and 15
        edges = [(0, 5), (5, 1), (1, 9)]
        edges += [(2, 3), (2, 6), (2, 11), (3, 6), (3, 11), (6, 11)]
        edges += [(4, 7), (7, 8), (8, 10), (10, 13), (4, 13)]
        edges += [(12, v) for v in (0, 2, 4)] + [(14, v) for v in (9, 11, 8)]
        edges += [(15, 1), (15, 3)]
        g = Graph.build(16, edges)
        part = craft_partition(g, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13])
        checked_owner(part)

    def test_balanced_on_sampled_partitions(self):
        profile = small_run_profile()
        for seed in range(3):
            g = gen_gnp(200, 0.5, seed=seed)
            part = sample_partition(g, profile, seed=seed)
            checked_owner(part)

    @settings(max_examples=150, deadline=None)
    @given(random_cores())
    def test_balanced_on_hypothesis_cores(self, part):
        checked_owner(part)

    def test_core_vertices_without_core_neighbours(self):
        # core vertices 3 and 4 see only the periphery vertex 5
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 5), (4, 5), (2, 5)])
        part = craft_partition(g, [0, 1, 2, 3, 4])
        owner = checked_owner(part)
        assert not np.isin(owner, [3, 4]).any()

    def test_long_cycle_needs_every_round(self):
        # a single cycle is one trail of 4097 slots each way: too few
        # pointer-jumping rounds would leave some vertex owning 0 or 2 edges
        n = 4097
        g = Graph.build(n, [(i, (i + 1) % n) for i in range(n)])
        part = craft_partition(g, range(n))
        owner = checked_owner(part)
        assert (np.bincount(owner, minlength=n) == 1).all()

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_every_core_vertex_meets_the_auxiliary_vertex(self, n):
        # K_n with n even: every core degree n - 1 is odd
        g = Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        part = craft_partition(g, range(n))
        owner = checked_owner(part)
        assert (owner >= 0).all()

    def test_repeat_calls_agree(self):
        g = gen_gnp(200, 0.5, seed=4)
        part = sample_partition(g, small_run_profile(), seed=4)
        first = build_estar(part)
        assert np.array_equal(first, build_estar(part))
        assert first.dtype == np.int64


class TestFinalizeU:
    def test_zero_flip_pairs(self):
        g, part, omega2 = hub_triangle()
        profile = loose_profile()
        omega3 = finalize_u(part, omega2, build_estar(part), profile)
        assert np.array_equal(omega3.weights, omega2.weights)
        s3 = weighted_degrees(g, omega3)
        assert s3[[0, 1, 2]].tolist() == [40, 100, 240]
        report = final_verify(part, omega3, profile)
        assert report.ok
        assert distinguishing_cases_hold(part, profile, s3)

    def test_forced_direction_flips(self):
        # one light leaf edge pushes the small hub to 39; reaching 40 flips
        # its free owned edge, and the last hub's forced edge pushes it back
        # inside its pair {40, 41}
        g, part, omega2 = hub_triangle(light_leaf_weight=1)
        profile = loose_profile()
        omega3 = finalize_u(part, omega2, build_estar(part), profile)
        assert weighted_degrees(g, omega3)[[0, 1, 2]].tolist() == [41, 100, 240]
        assert omega3.weights[edge_id(g, 0, 1)] == 3
        assert omega3.weights[edge_id(g, 1, 2)] == 1
        assert omega3.weights[edge_id(g, 0, 2)] == 3
        # the lightened leaf is flagged by verification (reserved residue 1)
        report = final_verify(part, omega3, profile)
        assert not report.ok
        assert report.bad_periphery_residues == [3]

    def test_blocked_pair_is_skipped(self):
        # two comparable hubs share 21 degree-5 core helpers; the second hub
        # finds its first candidate taken and must flip ten forced edges
        edges = [(0, 1)]
        helpers = list(range(2, 23))
        edges += [(0, h) for h in helpers]
        edges += [(1, h) for h in helpers]
        leaves = iter(range(23, 200))
        for hub in (0, 1):
            for _ in range(8):
                edges.append((hub, next(leaves)))
        for h in helpers:
            for _ in range(3):
                edges.append((h, next(leaves)))
        g = Graph.build(23 + 16 + 63, edges)
        part = craft_partition(g, [0, 1] + helpers)
        omega2 = EdgeWeighting(
            weights=np.full(g.edge_count, 2, dtype=np.int64), max_weight=3
        )
        profile = loose_profile()
        omega3 = finalize_u(part, omega2, build_estar(part), profile)
        s3 = weighted_degrees(g, omega3)
        assert s3[1] == 70
        assert s3[0] in (60, 61)
        assert set(s3[helpers].tolist()) <= {10, 11}
        report = final_verify(part, omega3, profile)
        assert report.ok
        assert distinguishing_cases_hold(part, profile, s3)

    def test_zero_degree_core_vertex_on_residue(self):
        g = Graph.build(11, [(0, leaf) for leaf in range(1, 11)])
        part = craft_partition(g, [0])
        omega2 = EdgeWeighting(
            weights=np.ones(10, dtype=np.int64), max_weight=3
        )
        omega3 = finalize_u(part, omega2, build_estar(part), loose_profile())
        assert weighted_degrees(g, omega3)[0] == 10

    def test_no_valid_pair_zero_degree(self):
        g = Graph.build(8, [(0, leaf) for leaf in range(1, 8)])
        part = craft_partition(g, [0])
        omega2 = EdgeWeighting(
            weights=np.ones(7, dtype=np.int64), max_weight=3
        )
        with pytest.raises(NoValidPair) as exc:
            finalize_u(part, omega2, build_estar(part), loose_profile())
        assert exc.value.vertex == 0
        assert exc.value.diagnostics["reachable"] == (7, 7)

    def test_clique_core_exhausts_pairs(self):
        n = 22
        g = Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        part = craft_partition(g, range(n))
        omega2 = EdgeWeighting(
            weights=np.full(g.edge_count, 2, dtype=np.int64), max_weight=3
        )
        with pytest.raises(NoValidPair) as exc:
            finalize_u(part, omega2, build_estar(part), loose_profile())
        assert exc.value.diagnostics["blocked_pairs"]

    def test_first_vertex_reaches_one_step_per_owned_edge(self):
        # the smallest hub goes first, with only unprocessed partners: its
        # window is its sum 40 plus or minus one step per owned edge, and
        # holds no multiple of 1000
        g, part, omega2 = hub_triangle()
        owner = build_estar(part)
        owned0 = int((owner == 0).sum())
        with pytest.raises(NoValidPair) as exc:
            finalize_u(part, omega2, owner, loose_profile(modulus_m=1000))
        assert exc.value.vertex == 0
        assert exc.value.diagnostics["reachable"] == (40 - owned0, 40 + owned0)


def finalize_outcome(finalize, part: Partition, omega2: EdgeWeighting, profile):
    """What a finalize_u run gives: its weights' dtype and bytes, or its
    error's type, message and diagnostics."""
    try:
        w = finalize(part, omega2, build_estar(part), profile).weights
    except (InternalInconsistency, NoValidPair) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "diagnostics", None))
    return ("weights", w.dtype, w.tobytes())


@functools.cache
def regular_instance():
    """The w-stage tests' instance graph with a partition sampled on it;
    finalize_u only reads it, so the tests share one."""
    profile = small_run_profile()
    g = gen_random_regular(600, 80, seed=2)
    return sample_partition(g, profile, seed=2), profile


@functools.cache
def bipartite_instance():
    mask = np.random.default_rng([5]).random((120, 360)) < 0.7
    left, right = np.nonzero(mask)
    g = Graph(vertex_count=480, edges=np.stack([left, right + 120], axis=1).astype(np.int64))
    profile = small_run_profile()
    return sample_partition(g, profile, seed=1), profile


def outer_weighting(part: Partition) -> EdgeWeighting:
    """The initial outer weights, with every inner edge at 1: the core
    edges sit at 2, where any one flip stays inside [1, 3]."""
    w = initial_outer_weights(part)
    w[w == 0] = 1
    return EdgeWeighting(weights=w, max_weight=3)


def random_weighting(part: Partition, seed: int) -> EdgeWeighting:
    w = np.random.default_rng(seed).integers(1, 4, part.graph.edge_count)
    return EdgeWeighting(weights=w, max_weight=3)


class TestFinalizeAgainstReference:
    @pytest.mark.parametrize("make", [regular_instance, bipartite_instance],
                             ids=["regular", "bipartite"])
    @pytest.mark.parametrize("weights", ["outer", "random"])
    def test_sampled_partitions(self, make, weights):
        part, profile = make()
        omega2 = outer_weighting(part) if weights == "outer" else random_weighting(part, 3)
        got = finalize_outcome(finalize_u, part, omega2, profile)
        assert got == finalize_outcome(reference_finalize_u, part, omega2, profile)
        if weights == "random":
            # some core edge at 1 or 3 is pushed out of range
            assert got[0] == "error" and "flip would leave [1,3]" in got[2]

    @pytest.mark.parametrize("make", [regular_instance, bipartite_instance],
                             ids=["regular", "bipartite"])
    @pytest.mark.parametrize("modulus", [10, 20, 30, 1000])
    def test_modulus_sweep(self, make, modulus):
        # larger moduli leave fewer reachable pairs: the bipartite case
        # succeeds at 10 and 20, every other case ends in NoValidPair
        part, _ = make()
        profile = small_run_profile(modulus_m=modulus)
        omega2 = outer_weighting(part)
        got = finalize_outcome(finalize_u, part, omega2, profile)
        assert got == finalize_outcome(reference_finalize_u, part, omega2, profile)
        if make is regular_instance or modulus > 20:
            assert got[1] is NoValidPair

    def test_no_valid_pair_with_blocked_pairs(self):
        n = 22
        g = Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        part = craft_partition(g, range(n))
        omega2 = EdgeWeighting(weights=np.full(g.edge_count, 2, dtype=np.int64), max_weight=3)
        got = finalize_outcome(finalize_u, part, omega2, loose_profile())
        assert got[1] is NoValidPair and got[3]["blocked_pairs"]
        assert got == finalize_outcome(reference_finalize_u, part, omega2, loose_profile())

    @pytest.mark.parametrize("light", [1, 2])
    def test_hub_triangle(self, light):
        _, part, omega2 = hub_triangle(light_leaf_weight=light)
        got = finalize_outcome(finalize_u, part, omega2, loose_profile())
        assert got[0] == "weights"
        assert got == finalize_outcome(reference_finalize_u, part, omega2, loose_profile())


class TestFinalVerify:
    def test_all_two_single_edge_conflicts(self):
        g = Graph.build(2, [(0, 1)])
        part = craft_partition(g, [0, 1])
        w = EdgeWeighting(weights=np.array([2]), max_weight=3)
        report = final_verify(part, w, loose_profile())
        assert not report.ok
        assert report.conflict_edges == [0]

    def test_periphery_sum_stability_checked(self):
        g, part, omega2 = hub_triangle()
        profile = loose_profile()
        omega3 = finalize_u(part, omega2, build_estar(part), profile)
        expected = weighted_degrees(g, omega2)
        report = final_verify(
            part, omega3, profile, expected_periphery_sums=expected
        )
        assert report.ok  # core-only edits never move periphery sums
        drifted = expected.copy()
        drifted[10] += 1
        report = final_verify(
            part, omega3, profile, expected_periphery_sums=drifted
        )
        assert not report.ok
        assert report.changed_periphery_sums == [10]

    def test_range_checks_are_warning_level(self):
        g, part, omega2 = hub_triangle()
        profile = loose_profile()
        omega3 = finalize_u(part, omega2, build_estar(part), profile)
        report = final_verify(part, omega3, profile)
        # the crafted envelope is far narrower than the actual sums
        assert report.interval_violations
        assert report.ok

    def test_report_carries_its_own_count(self):
        g, part, omega2 = hub_triangle()
        report = final_verify(part, omega2, loose_profile())
        assert np.array_equal(report.sums, weighted_degrees(g, omega2))
        assert "sums" not in report.to_dict()

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_loops(self, seed):
        # Random weightings on sampled partitions plant conflicts, bad
        # residues on both sides, range and envelope violations; expected
        # periphery sums drift at a few random vertices.
        g = gen_gnp(80, 0.5, seed=seed)
        profile = small_run_profile(eps_u=0.25, eps_fw=0.45, eps_fu=0.49)
        part = sample_partition(g, profile, seed=seed)
        rng = np.random.default_rng(seed)
        weightings = [
            rng.integers(1, 4, g.edge_count),
            np.full(g.edge_count, 3),
            np.ones(g.edge_count, dtype=np.int64),
        ]
        seen = set()
        for w in weightings:
            omega = EdgeWeighting(weights=w, max_weight=3)
            expected = weighted_degrees(g, omega)
            drifted = expected.copy()
            drifted[rng.choice(part.w_ids, 3, replace=False)] += 1
            for exp in (None, expected, drifted):
                ref = reference_final_verify(part, omega, profile, exp)
                got = final_verify(part, omega, profile, exp).to_dict()
                assert {k: got[k] for k in ref} == ref
                seen |= {k for k, v in ref.items() if v}
        assert seen == {
            "conflict_edges", "bad_core_residues", "bad_periphery_residues",
            "changed_periphery_sums", "range_violations", "interval_violations",
        }

    def test_matches_reference_on_constructed_weightings(self):
        for light in (1, 2):
            g, part, omega2 = hub_triangle(light_leaf_weight=light)
            profile = loose_profile()
            omega3 = finalize_u(part, omega2, build_estar(part), profile)
            expected = weighted_degrees(g, omega2)
            for omega in (omega2, omega3):
                ref = reference_final_verify(part, omega, profile, expected)
                got = final_verify(part, omega, profile, expected).to_dict()
                assert {k: got[k] for k in ref} == ref

    @pytest.mark.parametrize("total", [34, 35, 40, 41])
    def test_boundaries_match_reference(self, total):
        # Hub 0 has degree 20, d_U = 2, d_FW = 0 and level 0, so with
        # eps_fu = 0.5 its envelope is [10, 34] and its range [20, 40]; both
        # upper ends are integers a sum can hit exactly.
        g, part, _ = hub_triangle()
        profile = loose_profile(eps_fu=0.5)
        w = np.ones(g.edge_count, dtype=np.int64)
        mine = np.flatnonzero((g.edges == 0).any(axis=1))
        extra = total - mine.size
        w[mine[:min(extra, mine.size)]] += 1
        w[mine[:max(extra - mine.size, 0)]] += 1
        omega = EdgeWeighting(weights=w, max_weight=3)
        assert weighted_degrees(g, omega)[0] == total
        ref = reference_final_verify(part, omega, profile)
        got = final_verify(part, omega, profile).to_dict()
        assert {k: got[k] for k in ref} == ref
        assert (0 in got["interval_violations"]) == (total > 34)
        assert (0 in got["range_violations"]) == (total > 40)
