"""Exact ground truth at small scale by pruned backtracking search.

min_k_weighting finds the least k admitting a weighting with no adjacent
equal sums; sweep_small_graphs enumerates every connected labeled graph up
to a vertex budget and reports any instance needing more than a given k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph
from .weighting import EdgeWeighting, conflicts

# Largest edge count the exact search accepts; its cost grows as k^m.
MAX_EDGES = 500


@dataclass
class OracleResult:
    min_k: int | None           # None: no witness up to k_max
    witness: EdgeWeighting | None
    nodes_explored: int


def _bfs_edge_order(adj: list[list[tuple[int, int]]]) -> list[int]:
    """Edges in BFS-discovery order from a maximum-degree root per component.

    adj[v] lists (neighbour, edge id) pairs of v by ascending neighbour.
    """
    n = len(adj)
    seen_edge: set[int] = set()
    seen_vertex = [False] * n
    order: list[int] = []
    for root in sorted(range(n), key=lambda v: (-len(adj[v]), v)):
        if seen_vertex[root] or not adj[root]:
            continue
        queue = [root]
        seen_vertex[root] = True
        for v in queue:
            for u, e in adj[v]:
                if e not in seen_edge:
                    seen_edge.add(e)
                    order.append(e)
                if not seen_vertex[u]:
                    seen_vertex[u] = True
                    queue.append(u)
    return order


def _search(
    k: int, ends: list[list[int]], finishing: list[list[int]],
    nbrs: list[list[int]],
) -> tuple[list[int] | None, int]:
    """Backtrack over edge positions; prune on vertices completed there.

    ends[p] are the endpoints of the edge at position p, finishing[p] the
    vertices whose last incident edge it is. Returns the weight chosen at
    each position (None when no weighting exists) and the weights tried.
    """
    m = len(ends)
    sums = [0] * len(nbrs)
    complete = [False] * len(nbrs)
    chosen = [0] * m     # weight tried at each position, 0 before the first
    nodes = 0
    p = 0
    while p < m:
        u, v = ends[p]
        w = chosen[p]
        if w:
            for x in finishing[p]:
                complete[x] = False
            sums[u] -= w
            sums[v] -= w
        if w == k:
            chosen[p] = 0
            if p == 0:
                return None, nodes
            p -= 1
            continue
        w += 1
        chosen[p] = w
        nodes += 1
        sums[u] += w
        sums[v] += w
        ok = True
        for x in finishing[p]:
            complete[x] = True
            s = sums[x]
            for y in nbrs[x]:
                if complete[y] and sums[y] == s:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            p += 1
    return chosen, nodes


def min_k_weighting(g: Graph, k_max: int) -> OracleResult:
    """Least k in 1..k_max admitting a no-adjacent-equal-sums weighting.

    Graphs with more than MAX_EDGES edges are refused with a ValueError.
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
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    for pairs in adj:
        pairs.sort()
    order = _bfs_edge_order(adj)
    ends = [edges[e] for e in order]
    # finishing[p]: vertices whose last incident edge sits at position p
    finishing: list[list[int]] = [[] for _ in order]
    last_pos = [-1] * n
    for p, (u, v) in enumerate(ends):
        last_pos[u] = last_pos[v] = p
    for v, p in enumerate(last_pos):
        if p >= 0:
            finishing[p].append(v)
    nbrs = [[u for u, _ in pairs] for pairs in adj]

    total_nodes = 0
    for k in range(1, k_max + 1):
        chosen, nodes = _search(k, ends, finishing, nbrs)
        total_nodes += nodes
        if chosen is not None:
            weights = np.zeros(len(order), dtype=np.int64)
            weights[order] = chosen
            witness = EdgeWeighting(weights=weights, max_weight=k)
            leftover = conflicts(g, witness)
            if leftover.size:
                raise AssertionError("oracle produced an invalid witness")
            return OracleResult(min_k=k, witness=witness, nodes_explored=total_nodes)
    return OracleResult(min_k=None, witness=None, nodes_explored=total_nodes)


@dataclass
class SweepRow:
    graph_id: int   # bitmask over the vertex pairs, lexicographic
    n: int
    m: int
    min_k: int | None


@dataclass
class SweepReport:
    n_max: int
    k: int
    total_checked: int
    rows: list[SweepRow]
    counterexamples: list[SweepRow]


def _connected(n: int, adj_bits: list[int]) -> bool:
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        frontier = adj_bits[v] & ~seen
        while frontier:
            low = frontier & -frontier
            u = low.bit_length() - 1
            seen |= low
            frontier &= frontier - 1
            stack.append(u)
    return seen == (1 << n) - 1


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
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            if mask.bit_count() < 2:
                continue
            adj_bits = [0] * n
            edges = []
            for idx, (u, v) in enumerate(pairs):
                if mask >> idx & 1:
                    adj_bits[u] |= 1 << v
                    adj_bits[v] |= 1 << u
                    edges.append((u, v))
            if any(b == 0 for b in adj_bits):
                continue
            if not _connected(n, adj_bits):
                continue
            g = Graph(vertex_count=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))
            total += 1
            result = min_k_weighting(g, k)
            row = SweepRow(graph_id=mask, n=n, m=len(edges), min_k=result.min_k)
            if keep_rows:
                rows.append(row)
            if result.min_k is None:
                counterexamples.append(row)
    return SweepReport(
        n_max=n_max, k=k, total_checked=total,
        rows=rows, counterexamples=counterexamples,
    )
