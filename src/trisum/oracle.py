"""Exact ground truth at small scale by pruned backtracking search.

min_k_weighting finds the least k admitting a weighting with no adjacent
equal sums. Once per graph, one BFS walk fixes the edge order and the
position where each vertex's sum is final; from these it lists for each
position the adjacent pairs whose sums are both final there, and the
backtracking loop compares exactly those pairs. A witness is a list of
weights by edge id; before it is returned, one gate checks each weight
against [1, k] and recounts every sum in Python ints over the graph's own
edges.

sweep_small_graphs enumerates every connected labeled graph up to a vertex
budget and reports any instance needing more than a given k. It walks the
adjacency bitmasks in chunks of CHUNK consecutive masks, tests connectivity
for a whole chunk at once by bit-parallel closure, and hands each connected
graph to min_k_weighting.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InternalInconsistency
from .graph import Graph

# Largest edge count the exact search accepts; its cost grows as k^m.
MAX_EDGES = 500

# Consecutive adjacency masks the sweep enumerates at once; larger chunks
# raise peak memory for no measurable gain.
CHUNK = 1 << 10


@dataclass
class OracleResult:
    min_k: int | None           # None: no witness up to k_max
    witness: list[int] | None   # weight per edge id, each in [1, min_k]
    nodes_explored: int


def _search(
    k: int, ends: list[list[int]], checks: list[list[tuple[int, int]]],
    vertex_count: int,
) -> tuple[list[int] | None, int]:
    """Backtrack over edge positions; prune on the pairs final there.

    ends[p] are the endpoints of the edge at position p, checks[p] the
    adjacent pairs whose sums no later position changes. Returns the weight
    chosen at each position (None when no weighting exists) and the weights
    tried.
    """
    m = len(ends)
    sums = [0] * vertex_count
    chosen = [0] * m     # weight tried at each position, 0 before the first
    nodes = 0
    if not m:
        return chosen, nodes
    p = 0
    u, v = ends[0]       # the endpoints at p, reloaded only when p moves
    while True:
        w = chosen[p]
        if w == k:
            chosen[p] = 0
            sums[u] -= k
            sums[v] -= k
            if p == 0:
                return None, nodes
            p -= 1
            u, v = ends[p]
            continue
        chosen[p] = w + 1
        nodes += 1
        sums[u] += 1
        sums[v] += 1
        for x, y in checks[p]:
            if sums[x] == sums[y]:
                break
        else:
            p += 1
            if p == m:
                return chosen, nodes
            u, v = ends[p]


def min_k_weighting(g: Graph, k_max: int) -> OracleResult:
    """Least k in 1..k_max admitting a no-adjacent-equal-sums weighting.

    Graphs with more than MAX_EDGES edges are refused with a ValueError.
    Every witness is checked before it is returned: a weight outside
    [1, k] or an edge with equal end sums, recounted over the graph's own
    edges, raises InternalInconsistency.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if g.edge_count > MAX_EDGES:
        raise ValueError(
            f"graph has {g.edge_count} edges; the exact search takes at most "
            f"{MAX_EDGES}"
        )
    n = g.vertex_count
    edges = g.edges.tolist()
    # The edges are sorted, so each list comes out by ascending neighbour.
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    # Edges in BFS-discovery order from a maximum-degree root per component
    # (the sort is stable, so ties go to the smaller id); ends[p] are the
    # endpoints of the edge at position p, and last_pos[v] is the position
    # of v's last incident edge, where its sum is final.
    deg = [len(nbrs) for nbrs in adj]
    seen_edge = [False] * len(edges)
    seen_vertex = [False] * n
    order: list[int] = []
    ends: list[list[int]] = []
    last_pos = [-1] * n
    for root in sorted(range(n), key=deg.__getitem__, reverse=True):
        if seen_vertex[root] or not deg[root]:
            continue
        queue = [root]
        seen_vertex[root] = True
        for v in queue:
            for u, e in adj[v]:
                if not seen_edge[e]:
                    seen_edge[e] = True
                    last_pos[u] = last_pos[v] = len(order)
                    order.append(e)
                    ends.append(edges[e])
                if not seen_vertex[u]:
                    seen_vertex[u] = True
                    queue.append(u)
    # Each edge is compared at the position where its later end completes,
    # that end first; if both complete there, v (the larger id) is first.
    checks: list[list[tuple[int, int]]] = [[] for _ in order]
    for u, v in edges:
        if last_pos[u] > last_pos[v]:
            checks[last_pos[u]].append((u, v))
        else:
            checks[last_pos[v]].append((v, u))

    total_nodes = 0
    for k in range(1, k_max + 1):
        chosen, nodes = _search(k, ends, checks, n)
        total_nodes += nodes
        if chosen is not None:
            weights = [0] * len(edges)
            for e, w in zip(order, chosen):
                weights[e] = w
            # The gate shares nothing with the search's pair checks: it
            # checks every weight, recounts every sum over the graph's edges
            # and tests every edge.
            sums = [0] * n
            for (u, v), w in zip(edges, weights):
                if not 1 <= w <= k:
                    raise InternalInconsistency(
                        f"oracle witness for k = {k} has weight {w} outside [1, {k}]"
                    )
                sums[u] += w
                sums[v] += w
            for u, v in edges:
                if sums[u] == sums[v]:
                    raise InternalInconsistency(
                        f"oracle witness for k = {k} gives edge ({u}, {v}) "
                        f"equal sums {sums[u]}"
                    )
            return OracleResult(min_k=k, witness=weights, nodes_explored=total_nodes)
    return OracleResult(min_k=None, witness=None, nodes_explored=total_nodes)


@dataclass
class SweepRow:
    graph_id: int   # bitmask over the vertex pairs, lexicographic
    n: int
    m: int
    min_k: int | None


@dataclass
class SweepReport:
    total_checked: int
    rows: list[SweepRow]
    counterexamples: list[SweepRow]


def _connected_graphs(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(mask, edges) of every connected labeled graph on n >= 3 vertices.

    Bit i of mask is the i-th vertex pair in lexicographic order; masks
    come in ascending order, and edges is an owned, sorted (m, 2) int64
    array. On three or more vertices a connected graph has no isolated
    vertex and at least two edges.
    """
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.int64)
    total = 1 << len(pairs)
    shifts = np.arange(len(pairs), dtype=np.int64)
    vertex_bits = np.uint8(1) << np.arange(n, dtype=np.uint8)
    for start in range(0, total, CHUNK):
        masks = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        bits = (masks[:, None] >> shifts & 1).astype(bool)
        # adj[i, v]: neighbours of v in graph i, one bit per vertex
        adj = np.zeros((len(masks), n), dtype=np.uint8)
        for idx, (u, v) in enumerate(pairs.tolist()):
            adj[bits[:, idx], u] |= vertex_bits[v]
            adj[bits[:, idx], v] |= vertex_bits[u]
        # reach grows from vertex 0 by one step per round; n - 1 rounds
        # cover every shortest path
        reach = np.ones(len(masks), dtype=np.uint8)
        for _ in range(n - 1):
            inside = (reach[:, None] & vertex_bits) != 0
            reach |= np.bitwise_or.reduce(np.where(inside, adj, 0), axis=1)
        keep = reach == (1 << n) - 1
        kept = bits[keep]
        # row-major order: graph by graph, each graph's pairs ascending
        edges = pairs[np.nonzero(kept)[1]]
        lo = 0
        for mask, hi in zip(masks[keep].tolist(), np.cumsum(kept.sum(axis=1)).tolist()):
            yield mask, edges[lo:hi].copy()
            lo = hi


def check_sweep_args(n_max: int, k: int) -> None:
    """Refuse a sweep that would check no graph, one beyond the
    enumeration budget, or one with k below 1."""
    if n_max < 3:
        raise ValueError(f"n_max below 3 checks no graph, got {n_max}")
    if n_max > 7:
        raise ValueError("n_max above 7 exceeds the enumeration budget")
    if k < 1:
        raise ValueError("k_max must be at least 1")


def sweep_small_graphs(n_max: int, k: int, keep_rows: bool = True) -> SweepReport:
    """Check every connected labeled graph with >= 2 edges on <= n_max vertices.

    Enumeration is by adjacency bitmask without isomorphism reduction; a
    counterexample is a graph whose minimum k exceeds the given k (or that
    has no witness at all up to it).
    """
    check_sweep_args(n_max, k)
    rows: list[SweepRow] = []
    counterexamples: list[SweepRow] = []
    total = 0
    for n in range(3, n_max + 1):
        for mask, edges in _connected_graphs(n):
            g = Graph(vertex_count=n, edges=edges)
            total += 1
            result = min_k_weighting(g, k)
            row = SweepRow(graph_id=mask, n=n, m=len(edges), min_k=result.min_k)
            if keep_rows:
                rows.append(row)
            if result.min_k is None:
                counterexamples.append(row)
    return SweepReport(total_checked=total, rows=rows, counterexamples=counterexamples)
