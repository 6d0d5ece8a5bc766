"""Exact ground truth at small scale by pruned backtracking search.

min_k_weighting finds the least k admitting a weighting with no adjacent
equal sums; sweep_small_graphs enumerates every connected labeled graph up
to a vertex budget and reports any instance needing more than a given k.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph
from .weighting import EdgeWeighting, conflicts


@dataclass
class OracleResult:
    min_k: int | None           # None: no witness up to k_max
    witness: EdgeWeighting | None
    nodes_explored: int


def _bfs_edge_order(g: Graph) -> list[int]:
    """Edges in BFS-discovery order from a maximum-degree root per component."""
    n, m = g.vertex_count, g.edge_count
    seen_edge = np.zeros(m, dtype=bool)
    seen_vertex = np.zeros(n, dtype=bool)
    order: list[int] = []
    by_degree = sorted(range(n), key=lambda v: (-g.degree(v), v))
    for root in by_degree:
        if seen_vertex[root] or g.degree(root) == 0:
            continue
        queue = [root]
        seen_vertex[root] = True
        while queue:
            v = queue.pop(0)
            nbrs = g.neighbors(v)
            eids = g.incident_edges(v)
            for u, e in zip(nbrs.tolist(), eids.tolist()):
                if not seen_edge[e]:
                    seen_edge[e] = True
                    order.append(e)
                if not seen_vertex[u]:
                    seen_vertex[u] = True
                    queue.append(u)
    return order


def _search(g: Graph, k: int, order: list[int]) -> tuple[np.ndarray | None, int]:
    """Backtrack over edges in the given order; prune on completed vertices."""
    n, m = g.vertex_count, g.edge_count
    remaining = g.degrees.copy()
    # completes_at[p]: vertices whose last incident edge sits at position p
    completes_at: list[list[int]] = [[] for _ in range(m)]
    pos_of: dict[int, int] = {e: p for p, e in enumerate(order)}
    last_pos = np.full(n, -1, dtype=np.int64)
    for e, p in pos_of.items():
        u, v = g.edges[e]
        last_pos[u] = max(last_pos[u], p)
        last_pos[v] = max(last_pos[v], p)
    for v in range(n):
        if last_pos[v] >= 0:
            completes_at[last_pos[v]].append(v)

    adj = {v: g.neighbors(v).tolist() for v in range(n)}
    sums = np.zeros(n, dtype=np.int64)
    complete = np.zeros(n, dtype=bool)
    weights = np.zeros(m, dtype=np.int64)
    nodes = 0

    def rec(p: int) -> bool:
        nonlocal nodes
        if p == m:
            return True
        e = order[p]
        u, v = int(g.edges[e, 0]), int(g.edges[e, 1])
        finishing = completes_at[p]
        for w in range(1, k + 1):
            nodes += 1
            sums[u] += w
            sums[v] += w
            ok = True
            for x in finishing:
                complete[x] = True
                for y in adj[x]:
                    if complete[y] and sums[y] == sums[x]:
                        ok = False
                        break
                if not ok:
                    break
            if ok and rec(p + 1):
                weights[e] = w
                return True
            for x in finishing:
                complete[x] = False
            sums[u] -= w
            sums[v] -= w
        return False

    found = rec(0)
    return (weights if found else None), nodes


def min_k_weighting(g: Graph, k_max: int) -> OracleResult:
    """Least k in 1..k_max admitting a no-adjacent-equal-sums weighting.

    The search recurses once per edge, so graphs with more edges than half
    the interpreter's recursion limit are refused with a ValueError.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    limit = sys.getrecursionlimit()
    if g.edge_count > limit // 2:
        raise ValueError(
            f"graph has {g.edge_count} edges; the exact search takes at most "
            f"{limit // 2} (half the recursion limit {limit})"
        )
    order = _bfs_edge_order(g)
    total_nodes = 0
    for k in range(1, k_max + 1):
        weights, nodes = _search(g, k, order)
        total_nodes += nodes
        if weights is not None:
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


def sweep_small_graphs(n_max: int, k: int, keep_rows: bool = True) -> SweepReport:
    """Check every connected labeled graph with >= 2 edges on <= n_max vertices.

    Enumeration is by adjacency bitmask without isomorphism reduction; a
    counterexample is a graph whose minimum k exceeds the given k (or that
    has no witness at all up to it).
    """
    if n_max > 8:
        raise ValueError("n_max above 8 exceeds the enumeration budget")
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
            g = Graph.build(n, edges)
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
