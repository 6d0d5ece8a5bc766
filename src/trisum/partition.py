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
from .graph import Graph, gather, group_by, pair_keys
from .profiles import ProfileConstants, check_partition_feasible
from .rng import TAG_PART_FU, TAG_PART_FW, TAG_PART_LEVEL, TAG_PART_U, stream

# Resampling rounds per stage, and whole samples drawn before giving up.
STAGE_ROUNDS = 80
SAMPLE_ATTEMPTS = 3


@dataclass(frozen=True)
class Partition:
    """The choices of a sample and what its last round, where every
    constraint held, counted from them. Stages only read it."""

    graph: Graph
    in_u: np.ndarray         # bool[n]
    levels: np.ndarray       # int64[n], -1 outside U
    fw_mask: np.ndarray      # bool[m], F_W subset of F
    fu_mask: np.ndarray      # bool[m], F_U subset of F'
    f_mask: np.ndarray       # bool[m], F: edges between U and W
    fprime_mask: np.ndarray  # bool[m], F' = F minus F_W
    eu_mask: np.ndarray      # bool[m], edges inside U
    eprime_mask: np.ndarray  # bool[m], edges inside W
    u_ids: np.ndarray        # core vertices, ascending
    w_ids: np.ndarray        # periphery vertices, ascending
    d_u: np.ndarray
    d_w: np.ndarray
    d_fw: np.ndarray
    d_fprime: np.ndarray
    d_fu: np.ndarray
    nu_leq: list[np.ndarray]  # N^U_<=(v) per vertex, members ascending; empty in W

    def describe(self) -> dict:
        sets = {"f": self.f_mask, "f_w": self.fw_mask, "f_u": self.fu_mask,
                "e_u": self.eu_mask, "e_prime": self.eprime_mask}
        return {"n_u": self.u_ids.size, "n_w": self.w_ids.size,
                **{name: int(mask.sum()) for name, mask in sets.items()}}


def _count_neighbors_in(g: Graph, vmask: np.ndarray) -> np.ndarray:
    """d_A(v) for every v, where A is the masked vertex set: one sum per
    CSR row. reduceat would give an empty row the next row's first entry,
    or fail past the end, so only rows with neighbours are summed."""
    counts = np.zeros(g.vertex_count, dtype=np.int64)
    indptr, nbrs, _ = g._csr
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    counts[rows] = np.add.reduceat(gather(vmask, nbrs), indptr[rows], dtype=np.int64)
    return counts


def _row_entries(g: Graph, vs: np.ndarray) -> np.ndarray:
    """The neighbours of the given vertices: their CSR rows, concatenated,
    as intp ids."""
    indptr, nbrs, _ = g._csr
    starts = indptr[vs]
    sizes = indptr[vs + 1] - starts
    pos = np.arange(int(sizes.sum()))
    pos += np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return nbrs[pos].astype(np.intp)


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


def initial_outer_weights(part: Partition) -> np.ndarray:
    """Initial weights on edges outside W: 2 on E(U) and F_U, 1 on F minus F_U.

    Edges inside W are left at 0; they are weighted by the periphery stage.
    F_U lies inside F, so the weight is 2 on E(U), plus 1 on F, plus 1 on
    F_U: summed over the masks' bytes, then widened.
    """
    w = part.eu_mask.view(np.int8) * np.int8(2)
    w += part.f_mask.view(np.int8)
    w += part.fu_mask.view(np.int8)
    return w.astype(np.int64)


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
    sample is drawn, leaving `stats` untouched. The partition holds the
    sets, counts and N^U_<= lists that each stage's last round checked.
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
        scope[_row_entries(g, np.flatnonzero(viol))] = True
        fresh = stream(seed, TAG_PART_U, attempt, rnd).random(n) < profile.p_u
        in_u[scope] = fresh[scope]
        resampled += int(scope.sum())
    _end_stage(stats, "u", rnd, resampled, viol)

    d_w = deg - d_u
    u0, u1 = in_u[e0], in_u[e1]
    f_mask, eu_mask, eprime_mask = u0 ^ u1, u0 & u1, ~(u0 | u1)
    del u0, u1

    # Stage 2: F_W coins under both degree constraints.
    # An edge's coin is read only as "below p_fw", so only that is kept.
    keep = stream(seed, TAG_PART_FW, attempt, 0).random(m) < profile.p_fw
    resampled = 0
    for rnd in range(1, STAGE_ROUNDS + 1):
        fw_mask = f_mask & keep
        d_fw = _count_incident(g, fw_mask)
        viol_w = ~in_u & (np.abs(d_fw - profile.p_fw * d_u) > profile.eps_fw * d_u)
        viol_u = in_u & (np.abs(d_fw - profile.p_fw * d_w) > profile.eps_fw * d_w)
        viol = viol_w | viol_u
        if not viol.any():
            break
        scope_e = f_mask & (viol[e0] | viol[e1])
        fresh = stream(seed, TAG_PART_FW, attempt, rnd).random(m)
        keep[scope_e] = fresh[scope_e] < profile.p_fw
        resampled += int(scope_e.sum())
    _end_stage(stats, "fw", rnd, resampled, viol)

    fprime_mask = f_mask & ~fw_mask
    d_fprime = _count_incident(g, fprime_mask)

    # Stage 3: levels and F_U coins jointly. Only F' edges can join F_U,
    # so their uniforms and ends are held over F' alone, by index into
    # fp_ids.
    mlev = profile.m_levels
    levels = stream(seed, TAG_PART_LEVEL, attempt, 0).integers(0, mlev, size=n)
    levels[~in_u] = -1
    fp_ids = np.flatnonzero(fprime_mask)
    unif = stream(seed, TAG_PART_FU, attempt, 0).random(m)[fp_ids]
    f0, f1 = g.edges[fp_ids, 0], g.edges[fp_ids, 1]
    u_end = np.where(in_u[f0], f0, f1)
    w_end = np.where(in_u[f0], f1, f0)
    del f0, f1
    mean_frac = (1.0 - 1.0 / mlev) / 2.0
    # Only the J intervals move with the levels; the candidate pairs do not.
    pairs = _degree_comparable_pairs(g, in_u)
    resampled = 0
    for rnd in range(1, STAGE_ROUNDS + 1):
        in_fu = unif < levels[u_end] / mlev
        d_fu = np.bincount(u_end[in_fu], minlength=n) + np.bincount(w_end[in_fu], minlength=n)
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
        scope = np.flatnonzero(viol_levels[u_end] | viol_a5[w_end])
        fresh_u = stream(seed, TAG_PART_FU, attempt, rnd).random(m)
        unif[scope] = fresh_u[fp_ids[scope]]
        resampled += scope.size + int(viol_levels.sum())
    _end_stage(stats, "fu", rnd, resampled, viol)
    fu_mask = np.zeros(m, dtype=bool)
    fu_mask[fp_ids[in_fu]] = True

    return Partition(
        graph=g, in_u=in_u, levels=levels, fw_mask=fw_mask, fu_mask=fu_mask,
        f_mask=f_mask, fprime_mask=fprime_mask,
        eu_mask=eu_mask, eprime_mask=eprime_mask,
        u_ids=np.flatnonzero(in_u), w_ids=np.flatnonzero(~in_u),
        d_u=d_u, d_w=d_w, d_fw=d_fw, d_fprime=d_fprime, d_fu=d_fu,
        nu_leq=group_by(hosts, members, n),
    )


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
    """Recompute every constraint family from the raw choices, in array passes.

    An independent check of the sampler: it derives F, F', E(U), E', the id
    lists, d_U, d_FW, d_F', d_FU and N^U_<= from `in_u`, `levels` and the
    F_W and F_U masks with other primitives than the sampler's helpers (a
    bincount over the edge list, segment sums over the CSR incident-edge
    rows), and reads a stored field only to compare it with its own: the
    `derived_*` families list the edges, vertices and hosts where one
    differs. Each family lists its failing ids ascending.
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
        counts[rows] = np.add.reduceat(gather(emask, eids), indptr[rows], dtype=np.int64)
        return counts

    def differ(stored: tuple, own: tuple) -> list[int]:
        # The positions where any stored array differs from the audit's.
        return np.flatnonzero((np.array(stored) != np.array(own)).any(axis=0)).tolist()

    def unlike(held: np.ndarray, own: np.ndarray) -> np.ndarray:
        # The keys where a stored list differs from the audit's ascending
        # one: missing, extra, or not above the key before it.
        if np.array_equal(held, own):
            return own[:0]
        return np.union1d(np.setxor1d(held, own), held[1:][np.diff(held) <= 0])

    # d_U(v): the edge ends at v whose other end is in U, counted in one
    # bincount keyed by (end, other end in U).
    ends_in_u = in_u[edges]
    keys = 2 * edges
    keys += ends_in_u[:, ::-1]
    d_u = np.bincount(keys.ravel(), minlength=2 * n)[1::2]
    d_w = deg - d_u
    in_u0, in_u1 = ends_in_u.T.copy()  # contiguous, so the masks are cheap
    f_mask, eu_mask = in_u0 ^ in_u1, in_u0 & in_u1
    fp_mask = f_mask & ~part.fw_mask
    d_fw = incident(part.fw_mask)
    d_fu = incident(part.fu_mask)
    d_fp = incident(fp_mask)
    mlev = profile.m_levels
    mean_frac = (1.0 - 1.0 / mlev) / 2.0
    in_w = ~in_u

    # N^U_<=(u): core neighbours of degree in [deg(u) / 2, deg(u)] whose
    # J interval overlaps u's, listed from each core-core edge both ways.
    uu = np.flatnonzero(eu_mask)
    a, b = edges[:, 0][uu], edges[:, 1][uu]
    lo, hi = j_interval_bounds(deg, d_fp, d_fw, d_u, part.levels, profile)
    overlap = (lo[a] <= hi[b]) & (lo[b] <= hi[a])
    b_for_a = overlap & (deg[b] >= 0.5 * deg[a]) & (deg[b] <= deg[a])
    a_for_b = overlap & (deg[a] >= 0.5 * deg[b]) & (deg[a] <= deg[b])
    hosts = np.concatenate([a[b_for_a], b[a_for_b]])
    nu = np.bincount(hosts, minlength=n)

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
    # -1: an edge in both F_W and F_U; -2: F_W and the stored F' do not
    # make up F; -3: an F_U edge outside the audit's own F'.
    fail["structure"] = [code for code, bad in (
        (-1, (part.fw_mask & part.fu_mask).any()),
        (-2, not np.array_equal(part.fw_mask | part.fprime_mask, part.f_mask)),
        (-3, (part.fu_mask & ~fp_mask).any())) if bad]
    # Every later stage reads the stored fields in place of its own count.
    fail["derived_counts"] = differ((part.d_u, part.d_w, part.d_fw, part.d_fprime, part.d_fu),
                                    (d_u, d_w, d_fw, d_fp, d_fu))
    fail["derived_masks"] = differ((part.f_mask, part.fprime_mask, part.eu_mask, part.eprime_mask),
                                   (f_mask, fp_mask, eu_mask, ~(in_u0 | in_u1)))
    fail["derived_ids"] = np.union1d(unlike(part.u_ids, np.flatnonzero(in_u)),
                                     unlike(part.w_ids, np.flatnonzero(in_w))).tolist()
    # N^U_<= as (host, member) keys, the stored lists in their order; a
    # differing key fails its host.
    sizes = [len(members) for members in part.nu_leq]
    held = pair_keys(np.repeat(np.arange(len(sizes)), sizes),
                     np.concatenate([np.zeros(0, np.int64), *part.nu_leq]), n)
    own = np.sort(pair_keys(hosts, np.concatenate([b[b_for_a], a[a_for_b]]), n))
    fail["derived_nu"] = np.unique(unlike(held, own) // max(n, 1)).tolist()
    return AuditReport(ok=not any(fail.values()), failures=fail)
