import hashlib
import json
import sys

import numpy as np
import pytest

from trisum.graph import Graph, gen_gnp
from trisum.oracle import min_k_weighting, sweep_small_graphs
from trisum.weighting import conflicts


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

    def test_edge_bound_from_recursion_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "getrecursionlimit", lambda: 40)
        path = Graph.build(21, [(i, i + 1) for i in range(20)])
        assert min_k_weighting(path, 3).min_k == 2
        longer = Graph.build(22, [(i, i + 1) for i in range(21)])
        with pytest.raises(ValueError, match="graph has 21 edges; the exact search "
                           r"takes at most 20 \(half the recursion limit 40\)"):
            min_k_weighting(longer, 3)

    def test_large_graph_refused_not_recursion_error(self):
        g = gen_gnp(60, 0.9, 1)
        assert g.edge_count == 1595
        with pytest.raises(ValueError, match="graph has 1595 edges"):
            min_k_weighting(g, 3)

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

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            sweep_small_graphs(9, 3)
