import hashlib

import numpy as np
import pytest

from conftest import small_run_profile
from trisum.errors import (
    DegenerateLength,
    InsufficientFW,
    InternalInconsistency,
    NoValidAddition,
    NoValidPair,
    RetryExhausted,
)
from trisum.graph import Graph, gen_gnp, gen_random_regular
from trisum.pipeline import run
from trisum.profiles import DESK
from trisum.weighting import conflicts, weighted_degrees
from trisum.wstage import resample_w_stage


@pytest.fixture(scope="module")
def small_instance():
    return gen_random_regular(600, 80, seed=2)


@pytest.fixture(scope="module")
def bipartite_instance():
    """400 x 1200 random bipartite graph, p = 0.7, where DESK runs succeed."""
    mask = np.random.default_rng([101, 0, 0]).random((400, 1200)) < 0.7
    left, right = np.nonzero(mask)
    edges = np.stack([left, right + 400], axis=1).astype(np.int64)
    return Graph(vertex_count=1600, edges=edges)


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
                assert np.array_equal(
                    outcome.s3, weighted_degrees(small_instance, outcome.weighting)
                )

    def test_budgets_respected(self, small_instance, monkeypatch):
        monkeypatch.setattr("trisum.pipeline.RESTARTS", 0)
        monkeypatch.setattr("trisum.pipeline.WSTAGE_RERUNS", 0)
        outcome = run(small_instance, small_run_profile(), seed=0)
        assert outcome.stats["restarts"] == 0

    def test_outcome_serializable(self, small_instance):
        import json

        outcome = run(small_instance, small_run_profile(), seed=2)
        blob = json.dumps(outcome.to_dict(), default=str)
        assert "status" in blob

    def test_internal_inconsistency_is_a_verify_failure(
        self, bipartite_instance, monkeypatch
    ):
        calls = []

        def broken_estar(part):
            calls.append(part)
            raise InternalInconsistency("planted construction fault")

        monkeypatch.setattr("trisum.pipeline.build_estar", broken_estar)
        outcome = run(bipartite_instance, DESK, seed=0)
        assert len(calls) == 1  # a construction fault is not retried
        assert outcome.status == "failure"
        assert outcome.stage == "verify"
        assert outcome.reason == "planted construction fault"
        assert outcome.weighting is None and outcome.s3 is None
        assert outcome.stats["restarts"] == 0


class TestStageFailures:
    # a construction fault is covered by
    # TestRun::test_internal_inconsistency_is_a_verify_failure
    @pytest.mark.parametrize("exc, stage", [
        (RetryExhausted("partition:fu", [4, 9], 80), "partition"),
        (RetryExhausted("w-stage", [3], 26), "wstage"),
        (DegenerateLength([5]), "wstage"),
        (NoValidAddition(5, {"i0": 8}), "wstage"),
        (InsufficientFW(5, 3, 1), "wstage"),
        (NoValidPair(5, {"sum": 40}), "ustage"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_outcome_stage_and_restart(self, bipartite_instance, monkeypatch,
                                       exc, stage):
        calls = []

        def failing(*args, **kwargs):
            calls.append(args[2])
            raise exc

        monkeypatch.setattr("trisum.pipeline.sample_partition", failing)
        outcome = run(bipartite_instance, DESK, seed=3)
        assert outcome.status == "failure"
        assert outcome.stage == stage
        assert outcome.reason == str(exc)
        assert outcome.seed == 3
        assert len(calls) == 2 and calls[0] == 3  # one restart, fresh seed
        assert outcome.stats["restarts"] == 1

    def test_failed_wstage_reports_its_own_rounds(
        self, bipartite_instance, monkeypatch
    ):
        # attempt 0 passes the w-stage and fails in the core stage; the
        # restart stalls in the w-stage after 27 rounds
        def wstage(part, profile, seed, rerun=0):
            if seed != 3:
                raise RetryExhausted("w-stage", [3], 27)
            return resample_w_stage(part, profile, seed, rerun=rerun)

        def no_pair(*args):
            raise NoValidPair(5, {"sum": 40})

        monkeypatch.setattr("trisum.pipeline.resample_w_stage", wstage)
        monkeypatch.setattr("trisum.pipeline.finalize_u", no_pair)
        outcome = run(bipartite_instance, DESK, seed=3)
        assert outcome.stage == "wstage" and outcome.stats["restarts"] == 1
        assert "after 27 rounds" in outcome.reason
        assert outcome.stats["rounds"]["wstage"] == 27

    def test_failed_partition_reports_its_own_rounds(
        self, bipartite_instance, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise RetryExhausted("partition:fu", [4, 9], 80)

        monkeypatch.setattr("trisum.pipeline.sample_partition", failing)
        outcome = run(bipartite_instance, DESK, seed=3)
        assert outcome.stage == "partition"
        assert outcome.stats["rounds"] == {"partition": {"fu": 80}}

    @pytest.mark.parametrize("graph", ["k3", "bipartite"])
    def test_negative_seed_rejected_before_any_stage(
        self, bipartite_instance, monkeypatch, graph
    ):
        g = Graph.build(3, [(0, 1), (1, 2), (0, 2)]) if graph == "k3" else bipartite_instance

        def never(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr("trisum.pipeline._precheck", never)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            run(g, DESK, seed=-1)

    @pytest.mark.parametrize("graph", ["k3", "bipartite"])
    def test_non_integer_seed_rejected_before_any_stage(
        self, bipartite_instance, monkeypatch, graph
    ):
        g = Graph.build(3, [(0, 1), (1, 2), (0, 2)]) if graph == "k3" else bipartite_instance

        def never(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr("trisum.pipeline._precheck", never)
        for seed in (1.5, 1.0, "1"):
            with pytest.raises(ValueError, match="seed must be a non-negative integer, got "):
                run(g, DESK, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
        outcome = run(g, DESK, seed=np.int64(4))
        assert outcome.seed == 4 and type(outcome.seed) is int
        assert outcome.fingerprint() == run(g, DESK, seed=4).fingerprint()


def sha256(outcome) -> str:
    return hashlib.sha256(outcome.fingerprint().encode()).hexdigest()


# sha256 of PipelineOutcome.fingerprint() on the reference cases. A change
# that moves any of them must update the pin and say why.
PINNED_BIPARTITE = {
    0: "dae3a1c5f906a638ff7d295c931af66ae846e55805f44b558df69bc0151199df",
    1: "93ebe43dda0135cdf45a10d77249d919fbb9e5c97956b4ed36c9e8e9d86dafb9",
    2: "88fc609b9d81cadb0efeb4f2e538782dc73ba320381c675c624e39c88d77bd6c",
}
PINNED_GNP_1500 = "d36067ccac72e425e125ab20d53c751a385571e667e831a1c2e1e0e093517047"


class TestPinnedFingerprints:
    @pytest.mark.parametrize("seed", sorted(PINNED_BIPARTITE))
    def test_bipartite(self, bipartite_instance, seed):
        outcome = run(bipartite_instance, DESK, seed=seed)
        assert outcome.success
        assert sha256(outcome) == PINNED_BIPARTITE[seed]

    def test_gnp_1500(self):
        outcome = run(gen_gnp(1500, 0.5, seed=42), DESK, seed=0)
        assert outcome.stage == "ustage"
        assert sha256(outcome) == PINNED_GNP_1500
