import numpy as np
import pytest

from conftest import small_run_profile
from trisum.graph import Graph, gen_gnp, gen_random_regular
from trisum.pipeline import Budgets, run
from trisum.profiles import DESK
from trisum.weighting import conflicts


@pytest.fixture(scope="module")
def small_instance():
    return gen_random_regular(600, 80, seed=2)


class TestPrechecks:
    def test_isolated_edge_rejected(self):
        g = Graph.build(2, [(0, 1)])
        outcome = run(g, small_run_profile(), seed=0)
        assert outcome.status == "failure"
        assert outcome.stage == "precheck"
        assert "isolated edge" in outcome.reason

    def test_lowest_isolated_edge_named(self):
        # two isolated edges beside a triangle; the lower edge id is named
        g = Graph.build(7, [(5, 6), (0, 1), (0, 2), (1, 2), (3, 4)])
        outcome = run(g, small_run_profile(), seed=0)
        assert outcome.stage == "precheck"
        assert outcome.reason == "graph has an isolated edge (3, 4)"

    def test_degree_regime_rejected(self):
        g = gen_gnp(60, 0.5, seed=1)
        outcome = run(g, DESK, seed=0)  # min_delta_ratio 30 needs delta ~ 100
        assert outcome.status == "failure"
        assert outcome.stage == "precheck"

    def test_full_scale_profile_always_infeasible_at_desk_scale(self):
        from trisum.profiles import FULL_SCALE

        g = gen_gnp(100, 0.5, seed=1)
        outcome = run(g, FULL_SCALE, seed=0)
        assert outcome.status == "failure"
        assert outcome.stage == "precheck"


class TestRun:
    def test_structured_outcome(self, small_instance):
        outcome = run(small_instance, small_run_profile(), seed=0)
        assert outcome.status in ("success", "failure")
        if outcome.status == "failure":
            assert outcome.stage in (
                "precheck", "partition", "wstage", "ustage", "verify"
            )
            assert outcome.weighting is None
            assert outcome.reason
        assert {"resamples_partition", "resamples_wstage", "restarts",
                "wall_ms", "audits"} <= set(outcome.stats)

    def test_deterministic_fingerprint(self, small_instance):
        a = run(small_instance, small_run_profile(), seed=5)
        b = run(small_instance, small_run_profile(), seed=5)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seeds_differ(self, small_instance):
        a = run(small_instance, small_run_profile(), seed=5)
        b = run(small_instance, small_run_profile(), seed=6)
        assert a.fingerprint() != b.fingerprint()

    def test_partition_audit_embedded(self, small_instance):
        outcome = run(small_instance, small_run_profile(), seed=1)
        assert outcome.stats["audits"].get("partition", False)

    def test_success_is_verified(self, small_instance):
        # any success must carry a weighting that independently verifies
        for seed in range(3):
            outcome = run(small_instance, small_run_profile(), seed=seed)
            if outcome.status == "success":
                assert outcome.weighting is not None
                assert outcome.weighting.weights.min() >= 1
                assert outcome.weighting.weights.max() <= 3
                assert conflicts(small_instance, outcome.weighting).size == 0

    def test_budgets_respected(self, small_instance):
        budgets = Budgets(pipeline_restarts=0, wstage_reruns=0)
        outcome = run(small_instance, small_run_profile(), seed=0, budgets=budgets)
        assert outcome.stats["restarts"] == 0

    def test_outcome_serializable(self, small_instance):
        import json

        outcome = run(small_instance, small_run_profile(), seed=2)
        blob = json.dumps(outcome.to_dict(), default=str)
        assert "status" in blob
