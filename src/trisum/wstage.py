"""Randomized weighting of the periphery subgraph and its sum adjustment.

Each periphery vertex gets an independent value X_v on [1.1, 2.9] and each
inner edge an independent uniform coin; the rule in `analytic` maps these
to weights in {1, 3}. Two per-vertex checks (near location of the initial
sum, occupancy of the target interval) are enforced by redrawing the
choices local to a violating vertex. Afterwards every periphery vertex
receives an integer sum addition realised by raising boundary edges from
weight 1 to 2, placing its final sum inside its target interval, away from
reserved residues, and distinct from every earlier-processed neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic
from .errors import (
    DegenerateLength,
    InsufficientFW,
    InternalInconsistency,
    NoValidAddition,
    RetryExhausted,
)
from .graph import gather
from .partition import Partition, initial_outer_weights
from .profiles import RESERVED_RESIDUES, ProfileConstants
from .rng import TAG_W_EDGE, TAG_W_VERTEX, stream
from .weighting import EdgeWeighting


@dataclass
class XAssignment:
    """Vertex values on W and edge coins on inner edges; NaN elsewhere."""

    x_vertex: np.ndarray  # float64[n]
    x_edge: np.ndarray    # float64[m]


@dataclass
class IntervalData:
    """Per-vertex dyadic interval data for periphery vertices.

    length[v] is a power of two, i0[v] a multiple of it, and s0[v] the
    near location of v's final sum, which lies in [i0, i0 + length).
    """

    length: np.ndarray  # int64[n], 0 outside W
    i0: np.ndarray      # int64[n]
    s0: np.ndarray      # float64[n], NaN outside W

    @property
    def i1(self) -> np.ndarray:
        return self.i0 + self.length


@dataclass
class WStageState:
    x: XAssignment
    omega1: np.ndarray          # int64[m], complete initial weighting
    s1: np.ndarray              # int64[n]
    intervals: IntervalData
    rounds: int = 0
    resampled: int = 0


def near_location_center(part: Partition, x: XAssignment) -> np.ndarray:
    """d_U + d_FU + X_v * d_W per vertex (NaN outside W)."""
    return part.d_u + part.d_fu + x.x_vertex * part.d_w


def _interval_lengths(part: Partition, profile: ProfileConstants) -> np.ndarray:
    """Dyadic interval length per W vertex (0 in U): the largest power of
    two at most eps_len * d_W, which must be at least 1."""
    scale = profile.eps_len * part.d_w
    w_ids = part.w_ids
    bad = w_ids[scale[w_ids] < 1.0]
    if bad.size:
        raise DegenerateLength(bad.tolist())
    length = np.zeros(part.graph.vertex_count, dtype=np.int64)
    length[w_ids] = 2 ** np.floor(np.log2(scale[w_ids])).astype(np.int64)
    return length


def _place_intervals(
    part: Partition, length: np.ndarray, center: np.ndarray
) -> IntervalData:
    """Near location s0 = center + 3 * length per W vertex, and the grid
    interval of the given lengths that holds it."""
    n = part.graph.vertex_count
    ids = part.w_ids
    s0 = np.full(n, np.nan)
    s0[ids] = center[ids] + 3.0 * length[ids]
    i0 = np.zeros(n, dtype=np.int64)
    i0[ids] = np.floor(s0[ids] / length[ids]).astype(np.int64) * length[ids]
    return IntervalData(length=length, i0=i0, s0=s0)


# Rounds a w-stage run may take, and rounds without a drop in the
# violator count after which it is abandoned.
ROUND_LIMIT = 150
STALL_LIMIT = 25


def resample_w_stage(
    part: Partition,
    profile: ProfileConstants,
    seed: int,
    *,
    rerun: int = 0,
) -> WStageState:
    """Sample X values until both periphery checks hold everywhere.

    A violating vertex redraws its own value and the coins of its incident
    inner edges; everything else is recomputed deterministically. Because
    the scope is local, a globally skewed initial sample can leave
    violations that no local redraw can repair; a run whose violator count
    stops improving for STALL_LIMIT rounds is abandoned early, and any run
    ends after ROUND_LIMIT rounds.

    A round re-evaluates the weight rule and both occupancy tests only on
    the inner edges whose inputs changed (every inner edge in round 1, then
    those with an end among the last round's violators) and moves the sums
    and occupancy counts by the difference.
    """
    g = part.graph
    n, m = g.vertex_count, g.edge_count
    w_mask = ~part.in_u
    # Everything but the inner weights depends only on the partition: the
    # inner edges and their ends, the sums with every inner edge at 1, the
    # interval lengths, both checks' bounds, and which end of each inner
    # edge is not larger in d_W. With every inner edge at 1, every edge
    # weighs 1 but those in F_U and inside U, which weigh 2: the sums are
    # deg + d_FU, plus d_U at core vertices, from the partition's counts.
    ep_ids = np.flatnonzero(part.eprime_mask)
    a, b = g.edges[ep_ids, 0], g.edges[ep_ids, 1]
    s1 = g.degrees + part.d_fu + np.where(part.in_u, part.d_u, 0)
    a_le_b = part.d_w[a] <= part.d_w[b]
    b_le_a = part.d_w[b] <= part.d_w[a]
    length = _interval_lengths(part, profile)
    near_tol = profile.eps_loc * part.d_w
    occ_bound = profile.frac_i * length

    x_vertex = np.full(n, np.nan)
    ids = part.w_ids
    x_vertex[ids] = analytic.x_from_uniform(
        stream(seed, TAG_W_VERTEX, rerun, 0).random(n)[ids]
    )
    x_edge = np.full(m, np.nan)
    x_edge[ep_ids] = stream(seed, TAG_W_EDGE, rerun, 0).random(m)[ep_ids]
    x = XAssignment(x_vertex=x_vertex, x_edge=x_edge)

    # Per inner edge: whether it weighs 3, which adds 2 to both ends' sums,
    # and whether each end's s0 lies in the other end's interval, which
    # adds 1 to the other end's occupancy if the end is not larger in d_W.
    heavy = np.zeros(ep_ids.size, dtype=bool)
    a_in_b = np.zeros(ep_ids.size, dtype=bool)
    b_in_a = np.zeros(ep_ids.size, dtype=bool)
    occ = np.zeros(n, dtype=np.int64)
    changed = slice(None)
    resampled = 0
    best = None
    stalled = 0
    for rnd in range(1, ROUND_LIMIT + 1):
        ca, cb = a[changed], b[changed]
        now = analytic.edge_weight3_mask(
            x.x_vertex[ca], x.x_vertex[cb], x.x_edge[ep_ids[changed]]
        )
        for ends in (ca, cb):
            _move_counts(s1, ends, heavy[changed], now, 2)
        heavy[changed] = now
        center = near_location_center(part, x)
        intervals = _place_intervals(part, length, center)
        s0, i0, i1 = intervals.s0, intervals.i0, intervals.i1
        now = a_le_b[changed] & (s0[ca] >= i0[cb]) & (s0[ca] < i1[cb])
        _move_counts(occ, cb, a_in_b[changed], now)
        a_in_b[changed] = now
        now = b_le_a[changed] & (s0[cb] >= i0[ca]) & (s0[cb] < i1[ca])
        _move_counts(occ, ca, b_in_a[changed], now)
        b_in_a[changed] = now
        viol = w_mask & ((np.abs(s1 - center) > near_tol) | (occ > occ_bound))
        count = int(viol.sum())
        if not count:
            omega1 = initial_outer_weights(part)
            omega1[ep_ids] = np.where(heavy, 3, 1)
            return WStageState(
                x=x, omega1=omega1, s1=s1, intervals=intervals,
                rounds=rnd, resampled=resampled,
            )
        if best is None or count < best:
            best, stalled = count, 0
        else:
            stalled += 1
            if stalled >= STALL_LIMIT:
                raise RetryExhausted(
                    "w-stage", np.flatnonzero(viol).tolist(), rnd, resampled
                )
        fresh_x = analytic.x_from_uniform(
            stream(seed, TAG_W_VERTEX, rerun, rnd).random(n)
        )
        x.x_vertex[viol] = fresh_x[viol]
        changed = np.flatnonzero(viol[a] | viol[b])
        scope_e = ep_ids[changed]
        fresh_e = stream(seed, TAG_W_EDGE, rerun, rnd).random(m)
        x.x_edge[scope_e] = fresh_e[scope_e]
        resampled += count
    raise RetryExhausted(
        "w-stage", np.flatnonzero(viol).tolist(), ROUND_LIMIT, resampled
    )


def _move_counts(
    counts: np.ndarray, ends: np.ndarray, was: np.ndarray, now: np.ndarray,
    step: int = 1,
) -> None:
    """Move per-vertex counts from one state of some edges to the next:
    an edge adds `step` at its end in `ends` where its state holds."""
    counts -= step * np.bincount(ends[was], minlength=counts.size)
    counts += step * np.bincount(ends[now], minlength=counts.size)


def choose_sum_additions(
    part: Partition,
    s1: np.ndarray,
    intervals: IntervalData,
    profile: ProfileConstants,
) -> np.ndarray:
    """Pick a(v) for every periphery vertex in ascending d_W order.

    The chosen target s1(v) + a(v) lies in I(v), avoids reserved residues
    mod modulus_m, and differs from the final sum of every already-processed
    periphery neighbour. Returns a as an int64 array, 0 outside W.
    """
    g = part.graph
    n = g.vertex_count
    w_ids = part.w_ids
    order = w_ids[np.lexsort((w_ids, part.d_w[w_ids]))]
    mod = profile.modulus_m
    a = np.zeros(n, dtype=np.int64)
    final = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    for v in order:
        v = int(v)
        lo = int(max(intervals.i0[v], s1[v]))
        hi = int(intervals.i1[v])
        nbrs = g.neighbors(v)
        nbrs = nbrs[(~part.in_u[nbrs]) & done[nbrs]]
        blocked = set(final[nbrs].tolist())
        chosen = None
        for t in range(lo, hi):
            if t % mod in RESERVED_RESIDUES:
                continue
            if t in blocked:
                continue
            chosen = t
            break
        if chosen is None:
            raise NoValidAddition(v, {
                "i0": int(intervals.i0[v]), "i1": hi, "s1": int(s1[v]),
                "length": int(intervals.length[v]),
                "blocked_in_interval": len([t for t in blocked if lo <= t < hi]),
            })
        a[v] = chosen - int(s1[v])
        final[v] = chosen
        done[v] = True
    return a


def apply_additions(
    part: Partition,
    omega1: np.ndarray,
    additions: np.ndarray,
) -> EdgeWeighting:
    """Raise a(v) lowest-id F_W edges at each periphery vertex from 1 to 2.

    Every F_W edge has exactly one periphery endpoint, so the edits are
    independent across vertices, and the raises at v move its sum by
    exactly a(v). Returns the new weighting.
    """
    g = part.graph
    w_ids = part.w_ids
    short = w_ids[additions[w_ids] > part.d_fw[w_ids]]
    if short.size:
        v = int(short[0])
        raise InsufficientFW(v, int(additions[v]), int(part.d_fw[v]))
    # The W end's incidence of each F_W edge is the one whose neighbour is
    # in U. In CSR order these come grouped by W vertex, each group by
    # ascending edge id, so an edge's rank is its place in its group.
    indptr, nbrs, eids = g._csr
    at_w = gather(part.fw_mask, eids)
    at_w &= gather(part.in_u, nbrs)
    at_w = np.flatnonzero(at_w)
    group = np.searchsorted(at_w, indptr)
    count = np.diff(group)
    ends = np.repeat(np.arange(g.vertex_count), count)
    pick = np.arange(at_w.size) - np.repeat(group[:-1], count) < additions[ends]
    raised = eids[at_w[pick]].astype(np.intp)
    not_one = ends[pick][omega1[raised] != 1]
    if not_one.size:
        raise InternalInconsistency(
            f"F_W edges at {not_one[0]} were not all at weight 1 before the raise"
        )
    w2 = omega1.copy()
    w2[raised] = 2
    return EdgeWeighting(weights=w2)
