import hashlib

import numpy as np
import pytest

from conftest import loose_profile, partition_of, small_run_profile
from trisum.errors import (
    DegenerateLength,
    InsufficientFW,
    InternalInconsistency,
    NoValidAddition,
    NoValidPair,
    RetryExhausted,
)
from trisum.graph import Graph, gen_gnp, gen_random_regular
from trisum.partition import SAMPLE_ATTEMPTS, _sample_once, sample_partition
from trisum.pipeline import run
from trisum.profiles import DESK
from trisum.ustage import build_estar, finalize_u
from trisum.weighting import EdgeWeighting, conflicts, weighted_degrees
from trisum.wstage import apply_additions, resample_w_stage


@pytest.fixture(scope="module")
def small_instance():
    return gen_random_regular(600, 80, seed=2)


def bipartite(key) -> Graph:
    """400 x 1200 random bipartite graph, p = 0.7, where DESK runs succeed."""
    mask = np.random.default_rng(key).random((400, 1200)) < 0.7
    left, right = np.nonzero(mask)
    edges = np.stack([left, right + 400], axis=1).astype(np.int64)
    return Graph(vertex_count=1600, edges=edges)


@pytest.fixture(scope="module")
def bipartite_instance():
    return bipartite([101, 0, 0])


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

    def test_failed_partition_audit_stops_the_run(self, bipartite_instance, monkeypatch):
        # vertices 0-49 forced into the core push their neighbours' d_U far
        # outside the tolerance the sampler guarantees
        calls = []

        def forced_core(g, profile, seed, **kwargs):
            part = sample_partition(g, profile, seed, **kwargs)
            in_u = part.in_u.copy()
            in_u[:50] = True
            f = in_u[g.edges[:, 0]] ^ in_u[g.edges[:, 1]]
            calls.append(seed)
            return partition_of(
                g, profile, in_u, np.where(in_u, np.maximum(part.levels, 0), -1),
                part.fw_mask & f, part.fu_mask & f,
            )

        monkeypatch.setattr("trisum.pipeline.sample_partition", forced_core)
        outcome = run(bipartite_instance, DESK, seed=0)
        assert len(calls) == 1  # a construction fault is not retried
        assert outcome.status == "failure" and outcome.stage == "verify"
        assert outcome.reason.startswith("partition audit failed: ")
        assert "u_degree" in outcome.reason.split(": ")[1].split(", ")
        assert outcome.stats["audits"] == {"partition": False}
        assert outcome.weighting is None and outcome.s3 is None

    def test_failed_estar_bounds_stop_the_run(self, bipartite_instance, monkeypatch):
        def one_unowned(part):
            owner = build_estar(part)
            owner[np.flatnonzero(part.eu_mask)[0]] = -1
            return owner

        monkeypatch.setattr("trisum.pipeline.build_estar", one_unowned)
        outcome = run(bipartite_instance, DESK, seed=0)
        assert outcome.status == "failure" and outcome.stage == "verify"
        assert outcome.reason == "E* ownership bounds failed"
        assert outcome.stats["audits"] == {"partition": True, "estar_bounds": False}
        assert outcome.stats["restarts"] == 0
        assert outcome.weighting is None and outcome.s3 is None

    def test_unrealised_addition_is_a_drifted_periphery_sum(
        self, bipartite_instance, monkeypatch
    ):
        # one raise at the lowest-id periphery vertex v with a(v) > 0 is
        # undone, so v ends one below the target the additions chose
        lowered = []

        def one_raise_short(part, omega1, additions):
            omega2 = apply_additions(part, omega1, additions)
            w_ids = part.w_ids
            v = int(w_ids[additions[w_ids] > 0][0])
            at_v = part.fw_mask & (part.graph.edges == v).any(axis=1)
            w = omega2.weights.copy()
            w[np.flatnonzero(at_v & (w == 2))[0]] = 1
            lowered.append(v)
            return EdgeWeighting(weights=w)

        monkeypatch.setattr("trisum.pipeline.apply_additions", one_raise_short)
        outcome = run(bipartite_instance, DESK, seed=0)
        assert len(lowered) == 1
        assert outcome.status == "failure" and outcome.stage == "verify"
        assert outcome.stats["verify"]["changed_periphery_sums"] == lowered


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
        # restart stalls in the w-stage after 27 rounds, and so does its
        # fresh-stream rerun
        passed, stalled = [], []

        def wstage(part, profile, seed, rerun=0):
            if seed != 3:
                stalled.append(rerun)
                raise RetryExhausted("w-stage", [3], 27, resampled=500)
            state = resample_w_stage(part, profile, seed, rerun=rerun)
            passed.append(state.resampled)
            return state

        def no_pair(*args):
            raise NoValidPair(5, {"sum": 40})

        monkeypatch.setattr("trisum.pipeline.resample_w_stage", wstage)
        monkeypatch.setattr("trisum.pipeline.finalize_u", no_pair)
        outcome = run(bipartite_instance, DESK, seed=3)
        assert outcome.stage == "wstage" and outcome.stats["restarts"] == 1
        assert "after 27 rounds" in outcome.reason
        assert outcome.stats["rounds"]["wstage"] == 27
        assert stalled == [0, 1] and len(passed) == 1
        assert outcome.stats["resamples_wstage"] == passed[0] + 2 * 500

    def test_stalled_wstage_rerun_on_a_fresh_stream(
        self, bipartite_instance, monkeypatch
    ):
        states = []

        def wstage(part, profile, seed, rerun=0):
            if rerun == 0:
                raise RetryExhausted("w-stage", [3], 26, resampled=400)
            states.append(resample_w_stage(part, profile, seed, rerun=rerun))
            return states[-1]

        monkeypatch.setattr("trisum.pipeline.resample_w_stage", wstage)
        outcome = run(bipartite_instance, DESK, seed=0)
        assert outcome.success and outcome.stats["restarts"] == 0
        assert len(states) == 1
        assert outcome.stats["rounds"]["wstage"] == states[0].rounds
        assert outcome.stats["resamples_wstage"] == 400 + states[0].resampled

    def test_failed_partition_reports_its_own_rounds(
        self, bipartite_instance, monkeypatch
    ):
        # the core-membership stage finishes after redrawing 70 choices;
        # the F_U stage then fails after redrawing 300, and records its
        # rounds and redraws before it raises
        def failing(g, profile, seed, *, stats):
            stats.rounds["u"] = 2
            stats.resampled += 70
            stats.rounds["fu"] = 80
            stats.resampled += 300
            raise RetryExhausted("partition:fu", [4, 9], 80, resampled=300)

        monkeypatch.setattr("trisum.pipeline.sample_partition", failing)
        outcome = run(bipartite_instance, DESK, seed=3)
        assert outcome.stage == "partition"
        assert outcome.stats["rounds"] == {"partition": {"u": 2, "fu": 80}}
        # both attempts' redraws are counted
        assert outcome.stats["resamples_partition"] == 2 * (70 + 300)

    def test_real_partition_failure_reports_every_stage_it_ran(self, monkeypatch):
        # with two rounds a stage, every sample of both attempts passes the
        # core-membership stage in its first round and stalls in the F_W one
        failures = []

        def sample_once(g, profile, seed, attempt, stats):
            try:
                return _sample_once(g, profile, seed, attempt, stats)
            except RetryExhausted as exc:
                failures.append((exc.stage, dict(stats.rounds), exc.resampled))
                raise

        monkeypatch.setattr("trisum.partition.STAGE_ROUNDS", 2)
        monkeypatch.setattr("trisum.partition._sample_once", sample_once)
        g = gen_gnp(60, 0.8, seed=3)
        outcome = run(g, loose_profile(eps_u=0.3, eps_fw=0.12), seed=0)
        assert outcome.stage == "partition" and outcome.stats["restarts"] == 1
        assert outcome.stats["rounds"] == {"partition": {"u": 1, "fw": 2}}
        assert [(stage, rounds) for stage, rounds, _ in failures] == (
            [("partition:fw", {"u": 1, "fw": 2})] * (2 * SAMPLE_ATTEMPTS))
        # a first-round pass redraws nothing, so the F_W stalls hold every redraw
        assert outcome.stats["resamples_partition"] == sum(r for _, _, r in failures) > 0

    def test_success_after_a_failed_attempt(self, bipartite_instance, monkeypatch):
        calls = []

        def no_pair_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise NoValidPair(5, {"sum": 40})
            return finalize_u(*args)

        monkeypatch.setattr("trisum.pipeline.finalize_u", no_pair_once)
        outcome = run(bipartite_instance, DESK, seed=0)
        assert outcome.success and len(calls) == 2
        assert outcome.stage is None and outcome.reason is None
        assert outcome.seed == 0 and outcome.stats["restarts"] == 1
        assert outcome.fingerprint() != run(bipartite_instance, DESK, seed=0).fingerprint()

    def test_restart_rescues_a_real_run(self, monkeypatch):
        # on this graph the first attempt's w-stage stalls, and so does its
        # rerun; the restart, on a derived seed, succeeds. Without the
        # restart the same run fails in the w-stage.
        g = bipartite([3005, 0, 0])
        outcome = run(g, DESK, seed=1249847568)
        assert outcome.success and outcome.stats["restarts"] == 1
        monkeypatch.setattr("trisum.pipeline.RESTARTS", 0)
        outcome = run(g, DESK, seed=1249847568)
        assert outcome.stage == "wstage" and "violators after" in outcome.reason

    def test_infeasible_profile_records_no_rounds(self):
        # K11 has minimum degree 10, below the floor 1 / eps_u = 20
        g = Graph.build(11, [(i, j) for i in range(11) for j in range(i + 1, 11)])
        outcome = run(g, loose_profile(eps_u=0.05), seed=0)
        assert outcome.stage == "precheck" and "feasibility floor" in outcome.reason
        assert outcome.stats["rounds"] == {} and outcome.stats["resamples_partition"] == 0

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
# Run seed 1 on G(1500, 0.5), gen-seed 42, whose w-stage stalls and reruns
# (6,014 redraws), and on reg:2000,400, gen-seed 7, whose w-stage takes 21
# rounds: many rounds that recount only the inner edges a redraw touched.
PINNED_GNP_1500_STALL = "a173e0e0aaa02a5fe7016d9a7b4e7b567d5ed8e9ce635a0acc96b2844b3e5304"
PINNED_REG_2000 = "321a0ed6e792e9fff284cf60f167bd3237938b0b150f0943df5dc23241ade018"


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

    def test_gnp_1500_stalled_wstage(self):
        outcome = run(gen_gnp(1500, 0.5, seed=42), DESK, seed=1)
        assert outcome.stage == "ustage" and outcome.stats["resamples_wstage"] == 6014
        assert sha256(outcome) == PINNED_GNP_1500_STALL

    def test_reg_2000(self):
        outcome = run(gen_random_regular(2000, 400, seed=7), DESK, seed=1)
        assert outcome.stage == "ustage" and outcome.stats["rounds"]["wstage"] == 21
        assert sha256(outcome) == PINNED_REG_2000
