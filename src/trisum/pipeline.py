"""End-to-end construction: partition, periphery weighting, core adjustment.

A run either returns a fully verified weighting with weights in {1, 2, 3}
and no adjacent equal sums, or a structured stage failure; it never
returns an unverified success. Outcomes are deterministic functions of
(graph, profile, seed).
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleProfile,
    InternalInconsistency,
    NoValidAddition,
    RetryExhausted,
    StageFailure,
)
from .graph import Graph
from .partition import SampleStats, audit_partition, sample_partition
from .profiles import ProfileConstants, check_degree_regime, check_partition_feasible
from .rng import TAG_RESTART, derive_seed
from .ustage import build_estar, estar_bounds_hold, final_verify, finalize_u
from .weighting import EdgeWeighting
from .wstage import apply_additions, choose_sum_additions, resample_w_stage

# Fresh-stream reruns of the w-stage when no sum addition can be placed,
# and whole-construction restarts after a restartable stage failure.
WSTAGE_RERUNS = 1
RESTARTS = 1


@dataclass
class PipelineOutcome:
    status: str                      # "success" | "failure"
    stage: str | None                # failing stage when status == "failure"
    reason: str | None
    seed: int
    weighting: EdgeWeighting | None
    s3: np.ndarray | None
    stats: dict = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.status == "success"

    def fingerprint(self) -> str:
        """Deterministic serialization (timings stripped) for seed-identity."""
        body = {
            "status": self.status,
            "stage": self.stage,
            "reason": self.reason,
            "seed": self.seed,
            "weights": self.weighting.weights.tolist() if self.weighting else None,
            "stats": {
                k: v for k, v in self.stats.items() if k not in ("wall_ms",)
            },
        }
        return json.dumps(body, sort_keys=True)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "stage": self.stage,
            "reason": self.reason,
            "seed": self.seed,
            "stats": self.stats,
        }


def _precheck(g: Graph, profile: ProfileConstants) -> None:
    deg = g.degrees
    isolated = np.flatnonzero((deg[g.edges[:, 0]] == 1) & (deg[g.edges[:, 1]] == 1))
    if isolated.size:
        u, v = g.edges[isolated[0]]
        raise InfeasibleProfile(f"graph has an isolated edge ({u}, {v})")
    check_degree_regime(g, profile)
    check_partition_feasible(g, profile)


def run(g: Graph, profile: ProfileConstants, seed: int) -> PipelineOutcome:
    """Run the full construction; restart after a restartable stage failure."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    t0 = time.perf_counter()
    stats: dict = {
        "resamples_partition": 0,
        "resamples_wstage": 0,
        "restarts": 0,
        "rounds": {},
        "audits": {},
    }

    try:
        _precheck(g, profile)
    except InfeasibleProfile as exc:
        stage, reason = exc.outcome_stage, str(exc)
    else:
        for attempt in range(RESTARTS + 1):
            stats["restarts"] = attempt
            attempt_seed = seed if attempt == 0 else derive_seed(seed, TAG_RESTART, attempt)
            try:
                outcome = _run_once(g, profile, attempt_seed, stats)
            except StageFailure as exc:
                # Keep no reference to exc: its traceback holds the
                # attempt's arrays alive through the restart.
                stage, reason = exc.outcome_stage, str(exc)
                if isinstance(exc, RetryExhausted):
                    # The failed stage's own rounds, not an earlier
                    # attempt's; "partition:fu" is kept as {"fu": rounds}.
                    _, _, part_stage = exc.stage.partition(":")
                    stats["rounds"][stage] = (
                        {part_stage: exc.rounds} if part_stage else exc.rounds
                    )
                if not exc.restartable:
                    break
            else:
                outcome.seed = seed
                stats["wall_ms"] = (time.perf_counter() - t0) * 1000.0
                return outcome
    stats["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    return PipelineOutcome(
        status="failure", stage=stage, reason=reason,
        seed=seed, weighting=None, s3=None, stats=stats,
    )


def _run_once(
    g: Graph, profile: ProfileConstants, seed: int, stats: dict,
) -> PipelineOutcome:
    part_stats = SampleStats()
    part = sample_partition(g, profile, seed, stats=part_stats)
    stats["resamples_partition"] += part_stats.resampled
    stats["rounds"]["partition"] = part_stats.rounds
    stats["audits"]["partition"] = audit_partition(part, profile).ok
    stats["partition_shape"] = part.describe()

    # Periphery stage, with a fresh-stream rerun if the addition step
    # cannot place some vertex.
    for rerun in range(WSTAGE_RERUNS + 1):
        state = resample_w_stage(part, profile, seed, rerun=rerun)
        stats["resamples_wstage"] += state.resampled
        stats["rounds"]["wstage"] = state.rounds
        try:
            additions = choose_sum_additions(part, state.s1, state.intervals, profile)
            break
        except NoValidAddition:
            if rerun == WSTAGE_RERUNS:
                raise
    omega2, s2 = apply_additions(part, state.omega1, additions)

    owner = build_estar(part)
    stats["audits"]["estar_bounds"] = estar_bounds_hold(part, owner)
    result = finalize_u(part, omega2, owner, profile)

    report = final_verify(
        part, result.omega3, profile, expected_periphery_sums=s2,
    )
    stats["audits"]["final_verify"] = report.ok
    stats["verify"] = report.to_dict()
    if not report.ok:
        # Construction bug rather than bad luck; surface as a verify failure.
        raise InternalInconsistency(report.summary())
    return PipelineOutcome(
        status="success", stage=None, reason=None, seed=seed,
        weighting=result.omega3, s3=report.sums, stats=stats,
    )
