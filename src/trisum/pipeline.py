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
from .profiles import ProfileConstants, check_degree_regime
from .rng import TAG_RESTART, derive_seed
from .ustage import build_estar, estar_bounds_hold, final_verify, finalize_u
from .weighting import EdgeWeighting
from .wstage import apply_additions, choose_sum_additions, resample_w_stage

# Fresh-stream reruns of the w-stage when it stalls or no sum addition can
# be placed, and whole-construction restarts after a restartable stage
# failure.
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
            **self.to_dict(),
            "weights": self.weighting.weights.tolist() if self.weighting else None,
            "stats": {k: v for k, v in self.stats.items() if k != "wall_ms"},
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
    weighting = sums = stage = reason = None
    try:
        _precheck(g, profile)
        for attempt in range(RESTARTS + 1):
            stats["restarts"] = attempt
            attempt_seed = seed if attempt == 0 else derive_seed(seed, TAG_RESTART, attempt)
            try:
                weighting, sums = _run_once(g, profile, attempt_seed, stats)
                break
            except StageFailure as exc:
                if not exc.restartable or attempt == RESTARTS:
                    raise
    except StageFailure as exc:
        stage, reason = exc.outcome_stage, str(exc)
    stats["wall_ms"] = (time.perf_counter() - t0) * 1000.0
    return PipelineOutcome(
        status="failure" if weighting is None else "success",
        stage=stage, reason=reason, seed=seed, weighting=weighting, s3=sums, stats=stats,
    )


def _run_once(
    g: Graph, profile: ProfileConstants, seed: int, stats: dict,
) -> tuple[EdgeWeighting, np.ndarray]:
    """One attempt; returns omega3 and the sums final_verify counted.

    Each stage's counters are added to `stats` where the stage ends,
    whether it passes or fails.
    """
    part_stats = SampleStats()
    try:
        part = sample_partition(g, profile, seed, stats=part_stats)
    finally:
        stats["resamples_partition"] += part_stats.resampled
        # An infeasible profile is refused before any sample is drawn.
        if part_stats.rounds:
            stats["rounds"]["partition"] = part_stats.rounds
    audit = audit_partition(part, profile)
    stats["audits"]["partition"] = audit.ok
    if not audit.ok:
        failed = ", ".join(name for name, bad in audit.failures.items() if bad)
        raise InternalInconsistency(f"partition audit failed: {failed}")
    stats["partition_shape"] = part.describe()

    # Periphery stage, with a fresh-stream rerun if it stalls or the
    # addition step cannot place some vertex.
    for rerun in range(WSTAGE_RERUNS + 1):
        try:
            state = resample_w_stage(part, profile, seed, rerun=rerun)
        except RetryExhausted as exc:
            stats["resamples_wstage"] += exc.resampled
            stats["rounds"]["wstage"] = exc.rounds
            if rerun == WSTAGE_RERUNS:
                raise
            continue
        stats["resamples_wstage"] += state.resampled
        stats["rounds"]["wstage"] = state.rounds
        try:
            additions = choose_sum_additions(part, state.s1, state.intervals, profile)
            break
        except NoValidAddition:
            if rerun == WSTAGE_RERUNS:
                raise
    omega2 = apply_additions(part, state.omega1, additions)

    owner = build_estar(part)
    stats["audits"]["estar_bounds"] = estar_bounds_hold(part, owner)
    if not stats["audits"]["estar_bounds"]:
        raise InternalInconsistency("E* ownership bounds failed")
    omega3 = finalize_u(part, omega2, owner, profile)

    report = final_verify(
        part, omega3, profile,
        expected_periphery_sums=state.s1 + additions,
    )
    stats["audits"]["final_verify"] = report.ok
    stats["verify"] = report.to_dict()
    if not report.ok:
        # Construction bug rather than bad luck; surface as a verify failure.
        raise InternalInconsistency(report.summary())
    return omega3, report.sums
