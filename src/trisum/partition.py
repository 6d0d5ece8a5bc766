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
    fw_mask: np.ndarray     # bool[m], F_W subset of F
    fu_mask: np.ndarray     # bool[m], F_U subset of F'
    # derived sets and per-vertex counts, computed once from the above;
    # shared by every stage, which only reads them
    f_mask: np.ndarray = field(init=False)       # bool[m], F: edges between U and W
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
        self.f_mask = in_u0 ^ in_u1
        self.eu_mask = in_u0 & in_u1
        self.eprime_mask = ~in_u0 & ~in_u1
        self.fprime_mask = self.f_mask & ~self.fw_mask
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
    counts = np.zeros(g.vertex_count, dtype=np.int64)
    indptr, nbrs, _ = g._csr
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    counts[rows] = np.add.reduceat(vmask[nbrs], indptr[rows], dtype=np.int64)
    return counts


def _count_incident(g: Graph, emask: np.ndarray) -> np.ndarray:
    """Per-vertex count of incident edges inside the masked edge set."""
    n = g.vertex_count
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


def _degree_comparable_pairs(g: Graph, in_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hosts, members) over core-core edges with the member's degree in
    [deg(host) / 2, deg(host)]: the level-free part of N^U_<=. The half
    whose host is the larger end comes first, so a stable sort by host
    leaves each host's members ascending."""
    e0, e1 = g.edges[:, 0], g.edges[:, 1]
    uu = np.flatnonzero(in_u[e0] & in_u[e1])
    a, b = e0[uu], e1[uu]
    deg = g.degrees
    da, db = deg[a], deg[b]
    a_for_b = np.flatnonzero((da >= 0.5 * db) & (da <= db))
    b_for_a = np.flatnonzero((db >= 0.5 * da) & (db <= da))
    return (np.concatenate([b[a_for_b], a[b_for_a]]),
            np.concatenate([a[a_for_b], b[b_for_a]]))


def _comparable_pairs(
    pairs: tuple[np.ndarray, np.ndarray], deg: np.ndarray, levels: np.ndarray,
    d_fprime: np.ndarray, d_fw: np.ndarray, d_u: np.ndarray,
    profile: ProfileConstants,
) -> tuple[np.ndarray, np.ndarray]:
    """(hosts, members) with each member in N^U_<=(host): the pairs of
    `_degree_comparable_pairs` whose J intervals overlap."""
    hosts, members = pairs
    lo, hi = j_interval_bounds(deg, d_fprime, d_fw, d_u, levels, profile)
    overlap = (lo[hosts] <= hi[members]) & (lo[members] <= hi[hosts])
    return hosts[overlap], members[overlap]


def n_u_leq_all(part: Partition, profile: ProfileConstants) -> list[np.ndarray]:
    """N^U_<=(u) for every core vertex at once, grouped from core-core edges."""
    g = part.graph
    hosts, members = _comparable_pairs(
        _degree_comparable_pairs(g, part.in_u), g.degrees, part.levels,
        part.d_fprime, part.d_fw, part.d_u, profile,
    )
    return group_by(hosts, members, g.vertex_count)


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
    """Counters that `sample_partition` alone writes, also when it fails:
    the rounds of each stage of the current sample, reset for each new
    sample, and the choices redrawn over all samples."""

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
    redraws the whole sample with fresh streams, up to SAMPLE_ATTEMPTS
    samples in all. `stats` ends with the redraws of every sample drawn,
    a failed one's too, and the rounds of every stage the last sample ran,
    the one it failed in too. An infeasible profile is refused before any
    sample is drawn, leaving `stats` untouched.
    """
    check_partition_feasible(g, profile)
    if stats is None:
        stats = SampleStats()
    for attempt in range(SAMPLE_ATTEMPTS - 1):
        try:
            return _sample_once(g, profile, seed, attempt, stats)
        except RetryExhausted:
            pass
    return _sample_once(g, profile, seed, SAMPLE_ATTEMPTS - 1, stats)


def _sample_once(
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
    for rnd in range(1, STAGE_ROUNDS + 1):
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
    for rnd in range(1, STAGE_ROUNDS + 1):
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
    for rnd in range(1, STAGE_ROUNDS + 1):
        fu_mask = fprime_mask & (unif < levels[u_end] / mlev)
        d_fu = _count_incident(g, fu_mask)
        viol_a4 = in_u & (
            np.abs(d_fu - (levels / mlev) * d_fprime) > profile.eps_fu * deg
        )
        viol_a5 = ~in_u & (
            np.abs(d_fu - mean_frac * d_fprime) > profile.eps_fu * d_fprime
        )
        hosts, _ = _comparable_pairs(pairs, deg, levels, d_fprime, d_fw, d_u, profile)
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

    return Partition(graph=g, in_u=in_u, levels=levels, fw_mask=fw_mask, fu_mask=fu_mask)


def _end_stage(
    stats: SampleStats, name: str, rounds: int, resampled: int, viol: np.ndarray,
) -> None:
    """Record a stage's rounds and redraws; raise if it ended with violators,
    which happens only when its last round found some."""
    stats.rounds[name] = rounds
    stats.resampled += resampled
    if viol.any():
        raise RetryExhausted(
            f"partition:{name}", np.flatnonzero(viol).tolist(), rounds, resampled
        )


@dataclass
class AuditReport:
    ok: bool
    failures: dict[str, list[int]]


def audit_partition(part: Partition, profile: ProfileConstants) -> AuditReport:
    """Recompute every constraint family from the raw sets, in array passes.

    An independent check of the sampler: it recounts d_U, d_FW, d_F' and
    d_FU with other primitives than the sampler's helpers (a bincount over
    the edge list, and segment sums over the CSR incident-edge rows),
    counts N^U_<= over the core-core edges itself, and reads no `d_*`
    field except to compare it with its recount (`derived_counts`). Each
    family lists its failing vertices ascending.
    """
    g = part.graph
    n = g.vertex_count
    in_u = part.in_u
    deg = g.degrees
    edges = g.edges
    indptr, _, eids = g._csr
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])

    def incident(emask: np.ndarray) -> np.ndarray:
        # A segment sum over each vertex's incident-edge row; empty rows
        # are left out, since reduceat would give them the next row's entry.
        counts = np.zeros(n, dtype=np.int64)
        counts[rows] = np.add.reduceat(emask[eids], indptr[rows], dtype=np.int64)
        return counts

    # d_U(v): the edge ends at v whose other end is in U, counted in one
    # bincount keyed by (end, other end in U).
    ends_in_u = in_u[edges]
    keys = 2 * edges
    keys += ends_in_u[:, ::-1]
    d_u = np.bincount(keys.ravel(), minlength=2 * n)[1::2]
    d_w = deg - d_u
    d_fw = incident(part.fw_mask)
    d_fu = incident(part.fu_mask)
    d_fp = incident(part.fprime_mask)
    mlev = profile.m_levels
    mean_frac = (1.0 - 1.0 / mlev) / 2.0
    in_w = ~in_u

    # N^U_<=(u): core neighbours of degree in [deg(u) / 2, deg(u)] whose
    # J interval overlaps u's, counted from each core-core edge both ways.
    uu = np.flatnonzero(ends_in_u[:, 0] & ends_in_u[:, 1])
    a, b = edges[:, 0][uu], edges[:, 1][uu]
    lo, hi = j_interval_bounds(deg, d_fp, d_fw, d_u, part.levels, profile)
    overlap = (lo[a] <= hi[b]) & (lo[b] <= hi[a])
    b_for_a = overlap & (deg[b] >= 0.5 * deg[a]) & (deg[b] <= deg[a])
    a_for_b = overlap & (deg[a] >= 0.5 * deg[b]) & (deg[a] <= deg[b])
    nu = np.bincount(a[b_for_a], minlength=n) + np.bincount(b[a_for_b], minlength=n)

    families = {
        "u_degree": np.abs(d_u - profile.p_u * deg) > profile.eps_u * deg,
        "fw_in_w": in_w & (np.abs(d_fw - profile.p_fw * d_u) > profile.eps_fw * d_u),
        "fw_in_u": in_u & (np.abs(d_fw - profile.p_fw * d_w) > profile.eps_fw * d_w),
        "fu_in_u": in_u & (
            np.abs(d_fu - (part.levels / mlev) * d_fp) > profile.eps_fu * deg
        ),
        "fu_in_w": in_w & (np.abs(d_fu - mean_frac * d_fp) > profile.eps_fu * d_fp),
        "nu_leq": in_u & (nu > profile.frac_nu * d_u),
    }
    fail = {name: np.flatnonzero(bad).tolist() for name, bad in families.items()}
    fail["structure"] = []
    if (part.fw_mask & part.fu_mask).any():
        fail["structure"].append(-1)
    if not np.array_equal(part.fw_mask | part.fprime_mask, part.f_mask):
        fail["structure"].append(-2)
    # Every later stage reads these fields in place of its own count.
    derived = np.zeros(n, dtype=bool)
    for stored, recount in ((part.d_u, d_u), (part.d_w, d_w), (part.d_fw, d_fw),
                            (part.d_fprime, d_fp), (part.d_fu, d_fu)):
        derived |= stored != recount
    fail["derived_counts"] = np.flatnonzero(derived).tolist()
    ok = not any(fail.values())
    return AuditReport(ok=ok, failures=fail)
