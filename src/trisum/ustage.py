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

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalInconsistency, NoValidPair
from .graph import group_by
from .partition import Partition, j_interval_bounds, n_u_leq_all
from .profiles import RESERVED_RESIDUES, ProfileConstants
from .weighting import EdgeWeighting, weighted_degrees


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
    # Incidences inside the core from the CSR (a core vertex has d_U of
    # them), then one auxiliary edge per odd vertex; a stable sort by tail
    # puts each auxiliary slot after its vertex's real ones. Auxiliary
    # edges get the ids m, m + 1, ...
    _, _, eids = g._csr
    eids = eids[part.eu_mask[eids]]
    deg = np.where(part.in_u, part.d_u, 0)
    src = np.repeat(np.arange(n), deg)
    odd = np.flatnonzero(deg % 2 == 1)
    aux_ids = m + np.arange(odd.size)
    src = np.concatenate([src, odd, np.full(odd.size, n)])
    order = np.argsort(src, kind="stable")
    src = src[order]
    key = np.concatenate([eids, aux_ids, aux_ids])[order]

    # Every key occurs twice, so its two slots are adjacent once sorted.
    by_key = np.argsort(key, kind="stable")
    twin = np.empty_like(by_key)
    twin[by_key[0::2]] = by_key[1::2]
    twin[by_key[1::2]] = by_key[0::2]

    # Pointer jumping: after r rounds label[i] is the smallest of the 2**r
    # slots from i on along its trail, hence the trail's minimum once 2**r
    # reaches the number of slots.
    hop = twin ^ 1
    label = np.arange(key.size)
    for _ in range(max(key.size - 1, 0).bit_length()):
        np.minimum(label, label[hop], out=label)
        hop = hop[hop]
    # A trail and its reverse are distinct, so exactly one slot of each
    # edge leaves its vertex.
    out = (label < label[twin]) & (key < m)
    owner = np.full(m, -1, dtype=np.int64)
    owner[key[out]] = src[out]
    if (owner[part.eu_mask] < 0).any():
        raise InternalInconsistency("some core edges were left unowned")
    return owner


def estar_bounds_hold(part: Partition, owner: np.ndarray) -> bool:
    """Ownership disjointness is structural; check coverage and size bound."""
    eu = part.eu_mask
    if eu.any() and (owner[eu] < 0).any():
        return False
    if (~eu).any() and (owner[~eu] >= 0).any():
        return False
    owned = np.bincount(owner[owner >= 0], minlength=part.graph.vertex_count)
    u = part.u_ids
    if not u.size:
        return True
    return bool((owned[u] >= 0.5 * part.d_u[u] - 1).all())


@dataclass
class UStageResult:
    omega3: EdgeWeighting
    s3: np.ndarray
    pair_base: np.ndarray   # int64[n]; -1 where unset
    trace: list[dict] = field(default_factory=list)

    def trace_jsonl(self) -> str:
        """One JSON object per processed core vertex, in processing order."""
        import json

        return "\n".join(json.dumps(t) for t in self.trace) + "\n"


def finalize_u(
    part: Partition,
    omega2: EdgeWeighting,
    owner: np.ndarray,
    profile: ProfileConstants,
) -> UStageResult:
    """Assign residue pairs to core vertices and realise them by edge flips.

    Owned edges toward processed neighbours have a forced direction (the
    one keeping the neighbour inside its pair); unprocessed neighbours
    allow either direction. The smallest reachable pair base not claimed
    by a processed comparable neighbour is chosen; forced edges are
    flipped before free ones, each in ascending edge id.
    """
    g = part.graph
    mod = profile.modulus_m
    w = omega2.weights.copy()
    s = weighted_degrees(g, w)
    n = g.vertex_count
    pair_base = np.full(n, -1, dtype=np.int64)
    processed = np.zeros(n, dtype=bool)
    trace: list[dict] = []

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
        nu = nu_cache[u]
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
        out_of_range = (w[pool] + step < 1) | (w[pool] + step > 3)
        if out_of_range.any():
            raise InternalInconsistency(
                f"flip would leave [1,3] at edge {pool[out_of_range][0]}"
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
        trace.append({
            "u": u, "reachable": [lo, hi], "target": target,
            "flipped": pool.tolist(),
        })

    omega3 = EdgeWeighting(weights=w, max_weight=3)
    return UStageResult(omega3=omega3, s3=s, pair_base=pair_base, trace=trace)


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
        return {
            "ok": self.ok,
            "conflict_edges": self.conflict_edges,
            "bad_core_residues": self.bad_core_residues,
            "bad_periphery_residues": self.bad_periphery_residues,
            "changed_periphery_sums": self.changed_periphery_sums,
            "range_violations": self.range_violations,
            "interval_violations": self.interval_violations,
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
