"""Core/periphery split of the vertex set and the boundary edge subsets.

Stage 1 places each vertex in the adjustment core U independently; stage 2
places each boundary edge in F_W; stage 3 draws a level for every core
vertex and places boundary edges in F_U with level-dependent probability.
After each stage the per-vertex concentration constraints are checked and
the independent choices in a violated constraint's scope are redrawn until
every constraint holds (bad-event resampling with a whole-stage retry
fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RetryExhausted
from .graph import Graph, group_by
from .profiles import ProfileConstants, check_partition_feasible
from .rng import TAG_PART_FU, TAG_PART_FW, TAG_PART_LEVEL, TAG_PART_U, stream

# Resampling rounds per stage, and whole samples drawn before giving up.
STAGE_ROUNDS = 80
SAMPLE_ATTEMPTS = 3


@dataclass
class Partition:
    graph: Graph
    in_u: np.ndarray        # bool[n]
    levels: np.ndarray      # int64[n], -1 outside U
    f_mask: np.ndarray      # bool[m], edges between U and W
    fw_mask: np.ndarray     # bool[m], F_W subset of F
    fu_mask: np.ndarray     # bool[m], F_U subset of F'
    # derived sets and per-vertex counts, computed once from the above;
    # shared by every stage, which only reads them
    fprime_mask: np.ndarray = field(init=False)  # bool[m], F' = F minus F_W
    eu_mask: np.ndarray = field(init=False)      # bool[m], edges inside U
    eprime_mask: np.ndarray = field(init=False)  # bool[m], edges inside W
    u_ids: np.ndarray = field(init=False)        # core vertices, ascending
    w_ids: np.ndarray = field(init=False)        # periphery vertices, ascending
    d_u: np.ndarray = field(init=False)
    d_w: np.ndarray = field(init=False)
    d_fw: np.ndarray = field(init=False)
    d_fprime: np.ndarray = field(init=False)
    d_fu: np.ndarray = field(init=False)

    def __post_init__(self):
        g = self.graph
        in_u0, in_u1 = self.in_u[g.edges[:, 0]], self.in_u[g.edges[:, 1]]
        self.fprime_mask = self.f_mask & ~self.fw_mask
        self.eu_mask = in_u0 & in_u1
        self.eprime_mask = ~in_u0 & ~in_u1
        self.u_ids = np.flatnonzero(self.in_u)
        self.w_ids = np.flatnonzero(~self.in_u)
        self.d_u = _count_neighbors_in(g, self.in_u)
        self.d_w = g.degrees - self.d_u
        self.d_fw = _count_incident(g, self.fw_mask)
        self.d_fprime = _count_incident(g, self.fprime_mask)
        self.d_fu = _count_incident(g, self.fu_mask)

    def describe(self) -> dict:
        return {
            "n_u": int(self.in_u.sum()),
            "n_w": int((~self.in_u).sum()),
            "f": int(self.f_mask.sum()),
            "f_w": int(self.fw_mask.sum()),
            "f_u": int(self.fu_mask.sum()),
            "e_u": int(self.eu_mask.sum()),
            "e_prime": int(self.eprime_mask.sum()),
        }


def _count_neighbors_in(g: Graph, vmask: np.ndarray) -> np.ndarray:
    """d_A(v) for every v, where A is the masked vertex set: one sum per
    CSR row. reduceat would give an empty row the next row's first entry,
    or fail past the end, so only rows with neighbours are summed."""
    n = g.vertex_count
    counts = np.zeros(n, dtype=np.int64)
    if not g.edge_count:
        return counts
    indptr, nbrs, _ = g._csr
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    counts[rows] = np.add.reduceat(vmask[nbrs], indptr[rows], dtype=np.int64)
    return counts


def _count_incident(g: Graph, emask: np.ndarray) -> np.ndarray:
    """Per-vertex count of incident edges inside the masked edge set."""
    n = g.vertex_count
    if not g.edge_count:
        return np.zeros(n, dtype=np.int64)
    ids = np.flatnonzero(emask)
    return (
        np.bincount(g.edges[ids, 0], minlength=n) + np.bincount(g.edges[ids, 1], minlength=n)
    ).astype(np.int64)


def j_interval_bounds(
    deg: float | np.ndarray, d_fprime: float | np.ndarray,
    d_fw: float | np.ndarray, d_u: float | np.ndarray, level: int | np.ndarray,
    profile: ProfileConstants,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Bounds (lo, hi) of the J interval, the envelope that ends up holding
    a core vertex's final sum, from raw per-vertex counts.

    Given equal-shape arrays, it returns the bounds of many vertices at once.
    """
    base = deg + (level / profile.m_levels) * d_fprime
    lo = base - profile.eps_fu * deg
    hi = base + profile.eps_fu * deg + d_fw + 2.0 * d_u
    return lo, hi


def n_u_leq(u: int, part: Partition, profile: ProfileConstants) -> np.ndarray:
    """Core neighbours of u with comparable degree and overlapping J interval."""
    g = part.graph
    if not part.in_u[u]:
        raise ValueError(f"vertex {u} is not in the core")
    nbrs = g.neighbors(u)
    cand = nbrs[part.in_u[nbrs]]
    if not cand.size:
        return cand
    deg_u = g.degrees[u]
    keep = (g.degrees[cand] >= 0.5 * deg_u) & (g.degrees[cand] <= deg_u)
    cand = cand[keep]
    if not cand.size:
        return cand
    ids = np.concatenate([[u], cand])
    lo, hi = j_interval_bounds(
        g.degrees[ids], part.d_fprime[ids], part.d_fw[ids], part.d_u[ids],
        part.levels[ids], profile,
    )
    overlap = (lo[1:] <= hi[0]) & (lo[0] <= hi[1:])
    return cand[overlap]


def _comparable_pairs(
    g: Graph, in_u: np.ndarray, levels: np.ndarray,
    d_fprime: np.ndarray, d_fw: np.ndarray, d_u: np.ndarray,
    profile: ProfileConstants,
) -> tuple[np.ndarray, np.ndarray]:
    """(hosts, members) with each member in N^U_<=(host), from core-core edges."""
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    uu = in_u[e0] & in_u[e1]
    a, b = e0[uu], e1[uu]
    lo, hi = j_interval_bounds(g.degrees, d_fprime, d_fw, d_u, levels, profile)
    overlap = (lo[a] <= hi[b]) & (lo[b] <= hi[a])
    deg = g.degrees
    b_for_a = overlap & (deg[b] >= 0.5 * deg[a]) & (deg[b] <= deg[a])
    a_for_b = overlap & (deg[a] >= 0.5 * deg[b]) & (deg[a] <= deg[b])
    hosts = np.concatenate([a[b_for_a], b[a_for_b]])
    members = np.concatenate([b[b_for_a], a[a_for_b]])
    return hosts, members


def n_u_leq_all(part: Partition, profile: ProfileConstants) -> list[np.ndarray]:
    """N^U_<=(u) for every core vertex at once, grouped from core-core edges."""
    hosts, members = _comparable_pairs(
        part.graph, part.in_u, part.levels, part.d_fprime, part.d_fw, part.d_u,
        profile,
    )
    return group_by(hosts, members, part.graph.vertex_count)


def initial_outer_weights(part: Partition) -> np.ndarray:
    """Initial weights on edges outside W: 2 on E(U) and F_U, 1 on F minus F_U.

    Edges inside W are left at 0; they are weighted by the periphery stage.
    """
    w = np.zeros(part.graph.edge_count, dtype=np.int64)
    w[part.eu_mask] = 2
    w[part.fu_mask] = 2
    w[part.f_mask & ~part.fu_mask] = 1
    return w


@dataclass
class SampleStats:
    rounds: dict = field(default_factory=dict)
    resampled: int = 0


def sample_partition(
    g: Graph,
    profile: ProfileConstants,
    seed: int,
    *,
    stats: SampleStats | None = None,
) -> Partition:
    """Sample a partition satisfying all five constraint families.

    Stage order: core memberships first, then F_W coins, then levels and
    F_U coins jointly. A violated constraint redraws only the choices in
    its scope; a stage that cannot stabilize within STAGE_ROUNDS rounds
    restarts the whole sample with fresh streams, up to SAMPLE_ATTEMPTS
    samples in all.
    """
    check_partition_feasible(g, profile)
    for attempt in range(SAMPLE_ATTEMPTS - 1):
        try:
            return _sample_once(g, profile, seed, attempt, stats)
        except RetryExhausted:
            pass
    return _sample_once(g, profile, seed, SAMPLE_ATTEMPTS - 1, stats)


def _sample_once(
    g: Graph, profile: ProfileConstants, seed: int, attempt: int,
    stats: SampleStats | None,
) -> Partition:
    n, m = g.vertex_count, g.edge_count
    deg = g.degrees
    e0, e1 = (g.edges[:, 0], g.edges[:, 1]) if m else (np.empty(0, int), np.empty(0, int))

    def note(stage: str, rounds: int, resampled: int) -> None:
        if stats is not None:
            stats.rounds[stage] = rounds
            stats.resampled += resampled

    # Stage 1: core memberships under the degree-concentration constraint.
    in_u = stream(seed, TAG_PART_U, attempt, 0).random(n) < profile.p_u
    resampled = 0
    for rnd in range(1, STAGE_ROUNDS + 1):
        d_u = _count_neighbors_in(g, in_u)
        viol = np.abs(d_u - profile.p_u * deg) > profile.eps_u * deg
        if not viol.any():
            note("u", rnd, resampled)
            break
        scope = np.zeros(n, dtype=bool)
        if m:
            scope[e0[viol[e1]]] = True
            scope[e1[viol[e0]]] = True
        fresh = stream(seed, TAG_PART_U, attempt, rnd).random(n) < profile.p_u
        in_u[scope] = fresh[scope]
        resampled += int(scope.sum())
    else:
        viol_ids = np.flatnonzero(viol)
        raise RetryExhausted("partition:u", viol_ids.tolist(), STAGE_ROUNDS)

    d_u = _count_neighbors_in(g, in_u)
    d_w = deg - d_u
    f_mask = in_u[e0] ^ in_u[e1] if m else np.zeros(0, dtype=bool)

    # Stage 2: F_W coins under both degree constraints.
    coins = stream(seed, TAG_PART_FW, attempt, 0).random(m)
    resampled = 0
    for rnd in range(1, STAGE_ROUNDS + 1):
        fw_mask = f_mask & (coins < profile.p_fw)
        d_fw = _count_incident(g, fw_mask)
        viol_w = ~in_u & (np.abs(d_fw - profile.p_fw * d_u) > profile.eps_fw * d_u)
        viol_u = in_u & (np.abs(d_fw - profile.p_fw * d_w) > profile.eps_fw * d_w)
        viol = viol_w | viol_u
        if not viol.any():
            note("fw", rnd, resampled)
            break
        scope_e = f_mask & (viol[e0] | viol[e1])
        fresh = stream(seed, TAG_PART_FW, attempt, rnd).random(m)
        coins[scope_e] = fresh[scope_e]
        resampled += int(scope_e.sum())
    else:
        raise RetryExhausted("partition:fw", np.flatnonzero(viol).tolist(), STAGE_ROUNDS)

    fw_mask = f_mask & (coins < profile.p_fw)
    d_fw = _count_incident(g, fw_mask)
    fprime_mask = f_mask & ~fw_mask
    d_fprime = _count_incident(g, fprime_mask)

    # Stage 3: levels and F_U coins jointly.
    mlev = profile.m_levels
    levels = stream(seed, TAG_PART_LEVEL, attempt, 0).integers(0, mlev, size=n)
    levels[~in_u] = -1
    unif = stream(seed, TAG_PART_FU, attempt, 0).random(m)
    u_end = np.where(in_u[e0], e0, e1) if m else np.empty(0, int)
    w_end = np.where(in_u[e0], e1, e0) if m else np.empty(0, int)
    mean_frac = (1.0 - 1.0 / mlev) / 2.0
    resampled = 0
    for rnd in range(1, STAGE_ROUNDS + 1):
        fu_mask = fprime_mask & (unif < levels[u_end] / mlev)
        d_fu = _count_incident(g, fu_mask)
        viol_a4 = in_u & (
            np.abs(d_fu - (levels / mlev) * d_fprime) > profile.eps_fu * deg
        )
        viol_a5 = ~in_u & (
            np.abs(d_fu - mean_frac * d_fprime) > profile.eps_fu * d_fprime
        )
        hosts, _ = _comparable_pairs(g, in_u, levels, d_fprime, d_fw, d_u, profile)
        nu_counts = np.bincount(hosts, minlength=n)
        viol_a6 = in_u & (nu_counts > profile.frac_nu * d_u)
        viol_levels = viol_a4 | viol_a6
        viol = viol_levels | viol_a5
        if not viol.any():
            note("fu", rnd, resampled)
            break
        fresh_lv = stream(seed, TAG_PART_LEVEL, attempt, rnd).integers(0, mlev, size=n)
        levels[viol_levels] = fresh_lv[viol_levels]
        scope_e = fprime_mask & (viol_levels[u_end] | viol_a5[w_end])
        fresh_u = stream(seed, TAG_PART_FU, attempt, rnd).random(m)
        unif[scope_e] = fresh_u[scope_e]
        resampled += int(scope_e.sum()) + int(viol_levels.sum())
    else:
        raise RetryExhausted("partition:fu", np.flatnonzero(viol).tolist(), STAGE_ROUNDS)

    fu_mask = fprime_mask & (unif < levels[u_end] / mlev)
    return Partition(
        graph=g, in_u=in_u, levels=levels,
        f_mask=f_mask, fw_mask=fw_mask, fu_mask=fu_mask,
    )


@dataclass
class AuditReport:
    ok: bool
    failures: dict[str, list[int]]

    def summary(self) -> str:
        if self.ok:
            return "partition audit: all constraint families hold"
        parts = ", ".join(f"{k}: {len(v)}" for k, v in self.failures.items() if v)
        return f"partition audit FAILED ({parts})"


def audit_partition(part: Partition, profile: ProfileConstants) -> AuditReport:
    """Recompute every constraint family from the raw sets, per vertex.

    Deliberately a separate, per-vertex computation path from the
    vectorized sampler so it can serve as an independent check.
    """
    g = part.graph
    in_u = part.in_u
    fw, fu, fprime = part.fw_mask, part.fu_mask, part.fprime_mask
    fail: dict[str, list[int]] = {
        "u_degree": [], "fw_in_w": [], "fw_in_u": [],
        "fu_in_u": [], "fu_in_w": [], "nu_leq": [],
        "structure": [],
    }
    if (part.fw_mask & part.fu_mask).any():
        fail["structure"].append(-1)
    if not np.array_equal(part.fw_mask | part.fprime_mask, part.f_mask):
        fail["structure"].append(-2)
    for v in range(g.vertex_count):
        deg = int(g.degrees[v])
        nbrs = g.neighbors(v)
        inc = g.incident_edges(v)
        d_u = int(in_u[nbrs].sum())
        d_fw = int(fw[inc].sum())
        d_fu = int(fu[inc].sum())
        d_fp = int(fprime[inc].sum())
        if abs(d_u - profile.p_u * deg) > profile.eps_u * deg:
            fail["u_degree"].append(v)
        if in_u[v]:
            d_w = deg - d_u
            if abs(d_fw - profile.p_fw * d_w) > profile.eps_fw * d_w:
                fail["fw_in_u"].append(v)
            lvl = int(part.levels[v])
            if abs(d_fu - (lvl / profile.m_levels) * d_fp) > profile.eps_fu * deg:
                fail["fu_in_u"].append(v)
        else:
            if abs(d_fw - profile.p_fw * d_u) > profile.eps_fw * d_u:
                fail["fw_in_w"].append(v)
            mean_frac = (1.0 - 1.0 / profile.m_levels) / 2.0
            if abs(d_fu - mean_frac * d_fp) > profile.eps_fu * d_fp:
                fail["fu_in_w"].append(v)
    for u in part.u_ids:
        members = n_u_leq(int(u), part, profile)
        if members.size > profile.frac_nu * part.d_u[u]:
            fail["nu_leq"].append(int(u))
    ok = not any(fail.values())
    return AuditReport(ok=ok, failures=fail)
