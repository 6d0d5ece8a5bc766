import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum.errors import WeightingCoverageError
from trisum.graph import Graph, gen_gnp
from trisum.weighting import (
    EdgeWeighting,
    blow_up_is_locally_irregular,
    conflicts,
    format_weighting,
    parse_weighting,
    weighted_degrees,
)


def weighting_by_pairs(g: Graph, mapping: dict, max_weight: int = 3) -> EdgeWeighting:
    w = np.zeros(g.edge_count, dtype=np.int64)
    for e, (u, v) in enumerate(g.edges):
        w[e] = mapping[(int(u), int(v))]
    return EdgeWeighting(weights=w, max_weight=max_weight)


def naive_sums(g: Graph, w: EdgeWeighting) -> list[int]:
    sums = [0] * g.vertex_count
    for e, (u, v) in enumerate(g.edges):
        sums[u] += int(w.weights[e])
        sums[v] += int(w.weights[e])
    return sums


class TestWeightedDegrees:
    def test_k3_hand_sum(self, k3):
        w = weighting_by_pairs(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
        assert weighted_degrees(k3, w).tolist() == [4, 3, 5]

    def test_all_ones_gives_degrees(self):
        g = gen_gnp(20, 0.4, seed=2)
        w = EdgeWeighting(weights=np.ones(g.edge_count, dtype=np.int64), max_weight=1)
        assert np.array_equal(weighted_degrees(g, w), g.degrees)

    def test_p3(self, p3):
        w = weighting_by_pairs(p3, {(0, 1): 1, (1, 2): 2})
        assert weighted_degrees(p3, w).tolist() == [1, 3, 2]

    def test_coverage_error(self, k3):
        with pytest.raises(WeightingCoverageError):
            weighted_degrees(k3, np.ones(2, dtype=np.int64))


class TestConflicts:
    def test_single_edge_always_conflicts(self, k2):
        for wt in (1, 2, 3):
            w = EdgeWeighting(weights=np.array([wt]), max_weight=3)
            assert conflicts(k2, w).tolist() == [0]

    def test_k3_123_clean(self, k3):
        w = weighting_by_pairs(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
        assert conflicts(k3, w).tolist() == []

    def test_c4_all_ones_all_conflict(self, c4):
        w = EdgeWeighting(weights=np.ones(4, dtype=np.int64), max_weight=1)
        assert conflicts(c4, w).tolist() == [0, 1, 2, 3]

    def test_result_sorted(self):
        g = gen_gnp(15, 0.5, seed=9)
        w = EdgeWeighting(weights=np.ones(g.edge_count, dtype=np.int64), max_weight=1)
        out = conflicts(g, w)
        assert np.array_equal(out, np.sort(out))


class TestBlowUp:
    def test_k3_123_irregular(self, k3):
        w = weighting_by_pairs(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
        assert blow_up_is_locally_irregular(k3, w)

    def test_single_edge_weight3_not(self, k2):
        w = EdgeWeighting(weights=np.array([3]), max_weight=3)
        assert not blow_up_is_locally_irregular(k2, w)

    def test_c4_1122(self, c4):
        # cycle order 01, 12, 23, 30 weighted 1, 1, 2, 2
        w = weighting_by_pairs(c4, {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2})
        assert weighted_degrees(c4, w).tolist() == [3, 2, 3, 4]
        assert blow_up_is_locally_irregular(c4, w)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10_000), st.data())
def test_equivalence_and_naive_match(n, seed, data):
    g = gen_gnp(n, 0.5, seed)
    if g.edge_count == 0:
        return
    weights = np.asarray(
        data.draw(
            st.lists(st.integers(1, 3), min_size=g.edge_count, max_size=g.edge_count)
        ),
        dtype=np.int64,
    )
    w = EdgeWeighting(weights=weights, max_weight=3)
    assert weighted_degrees(g, w).tolist() == naive_sums(g, w)
    assert blow_up_is_locally_irregular(g, w) == (conflicts(g, w).size == 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 16), st.integers(0, 10_000), st.data())
def test_monotone_shift(n, seed, data):
    g = gen_gnp(n, 0.6, seed)
    if g.edge_count == 0:
        return
    weights = np.ones(g.edge_count, dtype=np.int64)
    e = data.draw(st.integers(0, g.edge_count - 1))
    before = weighted_degrees(g, EdgeWeighting(weights, 3))
    bumped = weights.copy()
    bumped[e] += 1
    after = weighted_degrees(g, EdgeWeighting(bumped, 3))
    diff = after - before
    u, v = g.edges[e]
    assert diff[u] == 1 and diff[v] == 1
    assert diff.sum() == 2


class TestSerialization:
    def test_round_trip(self, k3):
        w = weighting_by_pairs(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
        text = format_weighting(k3, w)
        back = parse_weighting(k3, text)
        assert np.array_equal(back.weights, w.weights)

    def test_missing_edge_rejected(self, k3):
        with pytest.raises(WeightingCoverageError):
            parse_weighting(k3, "0 1 1\n1 2 2\n")

    def test_non_edge_rejected(self, p3):
        with pytest.raises(WeightingCoverageError):
            parse_weighting(p3, "0 1 1\n1 2 1\n0 2 1\n")

    def test_weight_range_is_max_weight(self, p3):
        with pytest.raises(WeightingCoverageError, match="line 2: weight 4"):
            parse_weighting(p3, "0 1 1\n1 2 4\n")
        assert parse_weighting(p3, "0 1 1\n1 2 4\n", max_weight=4).max_weight == 4

    def test_weight_bounds_enforced(self):
        with pytest.raises(ValueError):
            EdgeWeighting(weights=np.array([0]), max_weight=3)
        with pytest.raises(ValueError):
            EdgeWeighting(weights=np.array([4]), max_weight=3)
