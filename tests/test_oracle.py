import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

from trisum import oracle
from trisum.graph import Graph, gen_gnp
from trisum.oracle import min_k_weighting, sweep_small_graphs
from trisum.weighting import conflicts


# Reference oracle: the recursive numpy search that min_k_weighting
# replaced. It must agree with it on min_k, nodes explored and witness.

def _reference_edge_order(g: Graph) -> list[int]:
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


def _reference_search(g: Graph, k: int, order: list[int]) -> tuple[np.ndarray | None, int]:
    """Backtrack over edges in the given order; prune on completed vertices."""
    n, m = g.vertex_count, g.edge_count
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


def _reference_min_k(g: Graph, k_max: int) -> tuple[int | None, int, list[int] | None]:
    order = _reference_edge_order(g)
    total_nodes = 0
    for k in range(1, k_max + 1):
        weights, nodes = _reference_search(g, k, order)
        total_nodes += nodes
        if weights is not None:
            return k, total_nodes, weights.tolist()
    return None, total_nodes, None


def assert_matches_reference(g: Graph, k_max: int) -> None:
    result = min_k_weighting(g, k_max)
    witness = None if result.witness is None else result.witness.weights.tolist()
    assert (result.min_k, result.nodes_explored, witness) == _reference_min_k(g, k_max)


def _component_count(g: Graph) -> int:
    parent = list(range(g.vertex_count))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges.tolist():
        parent[find(u)] = find(v)
    return sum(find(v) == v for v in range(g.vertex_count))


class TestMinK:
    def test_single_edge_has_none(self, k2):
        result = min_k_weighting(k2, 5)
        assert result.min_k is None
        assert result.witness is None
        assert result.nodes_explored > 0

    def test_path_needs_one(self, p3):
        result = min_k_weighting(p3, 3)
        assert result.min_k == 1
        assert conflicts(p3, result.witness).size == 0

    def test_triangle_needs_three(self, k3):
        result = min_k_weighting(k3, 3)
        assert result.min_k == 3
        assert conflicts(k3, result.witness).size == 0
        assert result.witness.weights.max() <= 3

    def test_triangle_fails_at_two(self, k3):
        assert min_k_weighting(k3, 2).min_k is None

    def test_edge_bound_is_max_edges(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_EDGES", 20)
        path = Graph.build(21, [(i, i + 1) for i in range(20)])
        assert min_k_weighting(path, 3).min_k == 2
        longer = Graph.build(22, [(i, i + 1) for i in range(21)])
        with pytest.raises(ValueError, match="^graph has 21 edges; the exact search "
                           "takes at most 20$"):
            min_k_weighting(longer, 3)

    def test_large_graph_refused_not_recursion_error(self):
        g = gen_gnp(60, 0.9, 1)
        assert g.edge_count == 1595
        with pytest.raises(ValueError, match="graph has 1595 edges"):
            min_k_weighting(g, 3)

    def test_matches_reference_on_random_graphs(self):
        shapes = {"isolated": 0, "components": 0}
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            g = gen_gnp(n, float(rng.uniform(0.15, 0.9)), seed)
            shapes["isolated"] += bool((g.degrees == 0).any())
            shapes["components"] += _component_count(g) - int((g.degrees == 0).sum()) > 1
            assert_matches_reference(g, 4)
        assert shapes["isolated"] and shapes["components"]

    def test_matches_reference_on_sweep_graphs(self):
        report = sweep_small_graphs(4, 3)
        for row in report.rows:
            pairs = list(combinations(range(row.n), 2))
            edges = [pairs[i] for i in range(len(pairs)) if row.graph_id >> i & 1]
            assert_matches_reference(Graph.build(row.n, edges), 3)

    def test_cycle_needs_two(self, c4):
        result = min_k_weighting(c4, 3)
        assert result.min_k == 2

    def test_star_needs_one(self):
        g = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
        assert min_k_weighting(g, 3).min_k == 1

    def test_stable_under_larger_budget(self, c4):
        assert min_k_weighting(c4, 2).min_k == min_k_weighting(c4, 7).min_k

    def test_k_max_validated(self, k3):
        with pytest.raises(ValueError):
            min_k_weighting(k3, 0)

    def test_disconnected_components_handled(self):
        two_edges = Graph.build(4, [(0, 1), (2, 3)])
        assert min_k_weighting(two_edges, 4).min_k is None
        path_plus_isolated = Graph.build(4, [(0, 1), (1, 2)])
        assert min_k_weighting(path_plus_isolated, 3).min_k == 1

    def test_witnesses_validate_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            n = int(rng.integers(3, 8))
            pairs = [
                (i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            if len(pairs) < 2:
                continue
            g = Graph.build(n, pairs)
            result = min_k_weighting(g, 4)
            if result.witness is not None:
                assert conflicts(g, result.witness).size == 0
                assert result.witness.weights.max() <= result.min_k


class TestSweep:
    def test_up_to_four_with_three_weights(self):
        report = sweep_small_graphs(4, 3)
        assert report.total_checked == 42  # 4 on three vertices, 38 on four
        assert report.counterexamples == []

    def test_up_to_four_with_two_weights(self):
        report = sweep_small_graphs(4, 2)
        assert report.counterexamples
        # the labeled triangle on {0, 1, 2} is the mask with all three pairs
        triangle_rows = [
            r for r in report.counterexamples if r.n == 3 and r.m == 3
        ]
        assert len(triangle_rows) == 1

    def test_three_vertices_single_weight(self):
        report = sweep_small_graphs(3, 1)
        assert report.total_checked == 4
        # the three labeled paths pass, the triangle does not
        assert len(report.counterexamples) == 1
        assert report.counterexamples[0].m == 3

    def test_rows_describe_all_graphs(self):
        report = sweep_small_graphs(4, 3)
        assert len(report.rows) == report.total_checked
        assert all(r.min_k in (1, 2, 3) for r in report.rows)

    def test_rows_pinned(self):
        # sha256 of the (graph_id, n, m, min_k) rows in report order; any
        # rewrite of the search or the enumeration must keep them
        report = sweep_small_graphs(5, 3)
        rows = [[r.graph_id, r.n, r.m, r.min_k] for r in report.rows]
        assert len(rows) == 770
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "58baf74964de2d969d1b47bdd0925a03bf2f383397937397d9eb418a689d8621")

    def test_rows_pinned_six(self):
        # the same pin over every connected graph on 3 to 6 vertices
        report = sweep_small_graphs(6, 3)
        rows = [[r.graph_id, r.n, r.m, r.min_k] for r in report.rows]
        assert len(rows) == 27474
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "43511ed2d2476667fcd1e75c30802b165b773f041b8ef57723e695067817ee20")

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            sweep_small_graphs(9, 3)

    @pytest.mark.parametrize("n_max", [2, 0, -5])
    def test_n_max_below_three_refused(self, n_max):
        with pytest.raises(ValueError, match="n_max below 3 checks no graph"):
            sweep_small_graphs(n_max, 3)
