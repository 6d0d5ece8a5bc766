"""Final adjustment of core-vertex sums via owned-edge weight changes.

Each core vertex owns the core-internal edges directed out of it. An
auxiliary vertex absorbs odd degrees, each vertex's incidences are paired,
and each pair gets one edge in and one out, so ownership sets are disjoint
and each covers at least half the core degree minus one.
Processing core vertices in ascending total degree, each one moves its sum
by +-1 steps on owned edges to the smallest reachable multiple of the
modulus whose residue pair is not already claimed by a comparable
neighbour, then stays inside that pair for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InternalInconsistency, NoValidPair
from .graph import gather, group_by
from .partition import Partition, j_interval_bounds
from .profiles import RESERVED_RESIDUES, ProfileConstants
from .weighting import MAX_WEIGHT, EdgeWeighting, weighted_degrees


# Elements between consecutive walk starts in `trail_labels`. On the
# reference instances `build_estar` took the same time at spacings 8
# and 16, about 10 % more at 32 and about 30 % more at 64. The cycles the
# first walk misses are mostly short (all of them have 4 slots on a
# complete bipartite core), so the walk over them starts 4 apart: on
# six cores, random and structured, that labelled 5-40 % faster than
# starts 16 apart.
WALK_SPACING = 16
LEFTOVER_SPACING = 4


def trail_labels(hop: np.ndarray, spacing: int = WALK_SPACING) -> np.ndarray:
    """For each i, the smallest element of i's cycle under the permutation hop.

    A walker starts at every spacing-th element and steps along hop until
    it meets the next start, so the starts cut each cycle that holds one
    into segments, each walked once. Pointer jumping over the segments
    then gives each segment its cycle's minimum. The elements of cycles
    that hold no start are labelled by the same routine, on those elements
    alone, with starts LEFTOVER_SPACING apart. The walk takes one numpy
    step per element of the longest segment.
    """
    size = hop.size
    seg = np.full(size, -1, dtype=np.int64)
    starts = np.arange(0, size, spacing)
    seg[starts] = np.arange(starts.size)
    low = starts.copy()  # each segment's smallest element
    succ = np.empty_like(starts)  # the segment that follows each one
    walker, at = np.arange(starts.size), starts
    while walker.size:
        at = hop[at]
        # Each element off the starts lies in exactly one segment, so a
        # walker meets a labelled element only at the next start.
        met = seg[at]
        ended = met >= 0
        succ[walker[ended]] = met[ended]
        keep = ~ended
        walker, at = walker[keep], at[keep]
        seg[at] = walker
        low[walker] = np.minimum(low[walker], at)
    for _ in range(max(starts.size - 1, 0).bit_length()):
        np.minimum(low, low[succ], out=low)
        succ = succ[succ]
    label = np.empty(size, dtype=np.int64)
    covered = seg >= 0
    label[covered] = low[seg[covered]]
    left = np.flatnonzero(~covered)
    if left.size:
        # Renumbered in order, a leftover cycle keeps its smallest element.
        seg[left] = np.arange(left.size)
        label[left] = left[trail_labels(seg[hop[left]], LEFTOVER_SPACING)]
    return label


def build_estar(part: Partition) -> np.ndarray:
    """Orient the core-internal edges in = out at every vertex; assign owners.

    An auxiliary vertex n is joined to every odd-degree core vertex. The
    incidences ("slots") of this augmented graph lie in CSR order, each
    auxiliary slot last, so the slots of a vertex pair up as (2j, 2j + 1).
    Arriving by twin[i], the slot of i's edge at its other end, and leaving
    by that slot's partner, slot i continues to twin[i] ^ 1; the cycles of
    this map are closed trails, each seen once in each direction. Each
    trail is labelled by its smallest slot and each edge is directed along
    the trail with the smaller label, so every slot pair has one edge in
    and one out, and a vertex owns at least half its core degree minus
    one. A real edge is owned by its tail. Returns the owned-edge sets E*
    as an int64 edge -> owner array, -1 where unowned.
    """
    g = part.graph
    n, m = g.vertex_count, g.edge_count
    # The core incidences in CSR order: a core vertex has d_U of them, by
    # ascending edge id. Each vertex's block of slots holds them, then its
    # auxiliary slot if its degree is odd; the auxiliary vertex's slots
    # follow all the blocks, one per odd vertex in ascending order.
    _, nbrs, eids = g._csr
    core = np.flatnonzero(gather(part.eu_mask, eids))
    nbrs, eids = nbrs[core], eids[core].astype(np.intp)
    del core
    deg = np.where(part.in_u, part.d_u, 0)
    odd = deg % 2
    vertex = np.repeat(np.arange(n), deg)
    slot = np.arange(vertex.size)
    slot += np.repeat(np.cumsum(odd) - odd, deg)
    odd = np.flatnonzero(odd)
    size = vertex.size + 2 * odd.size
    aux_end = np.cumsum(deg)[odd] + np.arange(odd.size)
    aux_start = size - odd.size + np.arange(odd.size)

    # Each edge's slot at its smaller end, found by edge id from the slot
    # at its larger end, which is the side whose neighbour is smaller.
    upper = nbrs < vertex
    lower_slot = np.empty(m, dtype=np.int64)
    lower_slot[eids[~upper]] = slot[~upper]
    vertex, nbrs, eids = vertex[upper], nbrs[upper], eids[upper]
    slot = slot[upper]
    twin = lower_slot[eids]
    del lower_slot, upper
    hop = np.empty(size, dtype=np.int64)
    hop[slot] = twin ^ 1
    hop[twin] = slot ^ 1
    hop[aux_end] = aux_start ^ 1
    hop[aux_start] = aux_end ^ 1

    label = trail_labels(hop)
    del hop
    # A trail and its reverse are distinct, so exactly one slot of each
    # edge leaves its vertex: the larger end owns the edge when its slot
    # has the smaller label.
    upper_label, lower_label = label[slot], label[twin]
    if (upper_label == lower_label).any():
        raise InternalInconsistency("some core edges were left unowned")
    owner = np.full(m, -1, dtype=np.int64)
    owner[eids] = np.where(upper_label < lower_label, vertex, nbrs)
    return owner


def estar_bounds_hold(part: Partition, owner: np.ndarray) -> bool:
    """Ownership disjointness is structural; check coverage and size bound."""
    eu = part.eu_mask
    if (owner[eu] < 0).any() or (owner[~eu] >= 0).any():
        return False
    owned = np.bincount(owner[owner >= 0], minlength=part.graph.vertex_count)
    u = part.u_ids
    return bool((owned[u] >= 0.5 * part.d_u[u] - 1).all())


def finalize_u(
    part: Partition,
    omega2: EdgeWeighting,
    owner: np.ndarray,
    profile: ProfileConstants,
) -> EdgeWeighting:
    """Assign residue pairs to core vertices and realise them by edge flips.

    Owned edges toward processed neighbours have a forced direction (the
    one keeping the neighbour inside its pair); unprocessed neighbours
    allow either direction. The smallest reachable pair base not claimed
    by a processed comparable neighbour (a member of `part.nu_leq[u]`, the
    set the sampler checked) is chosen; forced edges are
    flipped before free ones, each in ascending edge id.
    """
    g = part.graph
    mod = profile.modulus_m
    w = omega2.weights.copy()
    s = weighted_degrees(g, w)
    n = g.vertex_count
    pair_base = np.full(n, -1, dtype=np.int64)
    processed = np.zeros(n, dtype=bool)

    u_ids = part.u_ids
    order = u_ids[np.lexsort((u_ids, g.degrees[u_ids]))]
    owned_eids = np.flatnonzero(owner >= 0)
    owned_lists = group_by(owner[owned_eids], owned_eids, n)
    # The endpoint of each owned edge that is not its owner.
    other = np.where(g.edges[:, 0] == owner, g.edges[:, 1], g.edges[:, 0])

    for u in order:
        u = int(u)
        owned = owned_lists[u]
        nbr = other[owned]
        done = processed[nbr]
        base, sv = pair_base[nbr], s[nbr]
        at_base = done & (sv == base)
        at_next = done & (sv == base + 1)
        drifted = done & ~at_base & ~at_next
        if drifted.any():
            raise InternalInconsistency(
                f"processed vertex {nbr[drifted][0]} drifted out of its pair"
            )
        free = owned[~done]
        forced_plus, forced_minus = owned[at_base], owned[at_next]
        lo = int(s[u]) - forced_minus.size - free.size
        hi = int(s[u]) + forced_plus.size + free.size
        nu = part.nu_leq[u]
        blocked = set(pair_base[nu[processed[nu]]].tolist())
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
                "comparable_neighbours": len(nu),
            })
        shift = target - int(s[u])
        step = 1 if shift > 0 else -1
        forced = forced_plus if shift > 0 else forced_minus
        pool = np.concatenate([forced, free])[:abs(shift)]
        out_of_range = (w[pool] + step < 1) | (w[pool] + step > MAX_WEIGHT)
        if out_of_range.any():
            raise InternalInconsistency(
                f"flip would leave [1,{MAX_WEIGHT}] at edge {pool[out_of_range][0]}"
            )
        w[pool] += step
        s[u] += step * pool.size
        # The other ends of a vertex's owned edges are distinct, so no
        # neighbour's sum is moved twice here.
        s[other[pool]] += step
        if int(s[u]) != target:
            raise InternalInconsistency(f"vertex {u} missed its target sum")
        pair_base[u] = target
        processed[u] = True

    return EdgeWeighting(weights=w)


@dataclass
class VerifyReport:
    conflict_edges: list[int]
    bad_core_residues: list[int]
    bad_periphery_residues: list[int]
    changed_periphery_sums: list[int]
    range_violations: list[int]
    interval_violations: list[int]
    sums: np.ndarray | None = None  # the verified count; not serialized

    @property
    def ok(self) -> bool:
        return (
            not self.conflict_edges
            and not self.bad_core_residues
            and not self.bad_periphery_residues
            and not self.changed_periphery_sums
        )

    def summary(self) -> str:
        if self.ok:
            return "verification passed"
        return (
            f"verification failed: {len(self.conflict_edges)} conflicts, "
            f"{len(self.bad_core_residues)} bad core residues, "
            f"{len(self.bad_periphery_residues)} bad periphery residues, "
            f"{len(self.changed_periphery_sums)} drifted periphery sums"
        )

    def to_dict(self) -> dict:
        return {"ok": self.ok} | {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "sums"
        }


def final_verify(
    part: Partition,
    omega3: EdgeWeighting,
    profile: ProfileConstants,
    expected_periphery_sums: np.ndarray | None = None,
) -> VerifyReport:
    """Check the final weighting: conflicts, residue classes, sum stability.

    The sums are counted here from scratch, once; the report carries that
    count so a run reports only sums this gate has checked. Range and
    envelope membership of core sums are reported as warnings only: they
    are guaranteed only in the full-scale constant regime.
    """
    g = part.graph
    s3 = weighted_degrees(g, omega3)
    mod = profile.modulus_m
    u_ids, w_ids = part.u_ids, part.w_ids

    conflict_edges = np.flatnonzero(s3[g.edges[:, 0]] == s3[g.edges[:, 1]]).tolist()
    bad_core = u_ids[~np.isin(s3[u_ids] % mod, RESERVED_RESIDUES)].tolist()
    bad_periph = w_ids[np.isin(s3[w_ids] % mod, RESERVED_RESIDUES)].tolist()
    changed = []
    if expected_periphery_sums is not None:
        changed = w_ids[s3[w_ids] != expected_periphery_sums[w_ids]].tolist()
    deg, su = g.degrees[u_ids], s3[u_ids]
    range_bad = u_ids[(su < deg) | (su > 2 * deg)].tolist()
    j_lo, j_hi = j_interval_bounds(
        deg, part.d_fprime[u_ids], part.d_fw[u_ids], part.d_u[u_ids],
        part.levels[u_ids], profile,
    )
    interval_bad = u_ids[(su < j_lo) | (su > j_hi)].tolist()
    return VerifyReport(
        conflict_edges=conflict_edges,
        bad_core_residues=bad_core,
        bad_periphery_residues=bad_periph,
        changed_periphery_sums=changed,
        range_violations=range_bad,
        interval_violations=interval_bad,
        sums=s3,
    )
