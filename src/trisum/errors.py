"""Exception types shared across the package."""

from __future__ import annotations


class TrisumError(Exception):
    """Base class for all package-specific errors."""


class EdgeListParseError(TrisumError):
    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


class SelfLoopError(EdgeListParseError):
    pass


class WeightingCoverageError(TrisumError):
    """A weighting does not cover the graph's edge set exactly."""


class StageFailure(TrisumError):
    """A construction stage stopped. A run reports it under `outcome_stage`
    and may start a fresh attempt only if it is `restartable`."""

    outcome_stage = ""
    restartable = True


class InternalInconsistency(StageFailure):
    """A construction invariant failed: a fault in the code, not bad luck.

    Reported like a failed final verification, and never retried.
    """

    outcome_stage = "verify"
    restartable = False


class InfeasibleProfile(StageFailure):
    """Profile tolerances cannot be met even in expectation on this graph."""

    outcome_stage = "precheck"
    restartable = False


class RetryExhausted(StageFailure):
    """A resampling stage ran out of budget; carries the worst violators."""

    def __init__(self, stage: str, violators, rounds: int):
        self.stage = stage
        # "partition:u" is reported as "partition", "w-stage" as "wstage"
        self.outcome_stage = stage.split(":")[0].replace("-", "")
        self.violators = list(violators)
        self.rounds = rounds
        shown = ", ".join(str(v) for v in self.violators[:8])
        more = "..." if len(self.violators) > 8 else ""
        super().__init__(
            f"stage {stage!r} still has {len(self.violators)} violators after "
            f"{rounds} rounds (worst: {shown}{more})"
        )


class DegenerateLength(StageFailure):
    """Interval length would fall below 1 for some vertex; profile too fine."""

    outcome_stage = "wstage"

    def __init__(self, vertices):
        self.vertices = list(vertices)
        super().__init__(
            f"eps_len * d_W(v) < 1 for {len(self.vertices)} vertices "
            f"(first: {self.vertices[:8]})"
        )


class NoValidAddition(StageFailure):
    """No sum addition satisfies interval, residue and distinctness rules."""

    outcome_stage = "wstage"

    def __init__(self, vertex: int, diagnostics: dict):
        self.vertex = vertex
        self.diagnostics = diagnostics
        super().__init__(f"no valid sum addition for vertex {vertex}: {diagnostics}")


class InsufficientFW(StageFailure):
    """A vertex needs more weight-adjustable boundary edges than it has."""

    outcome_stage = "wstage"

    def __init__(self, vertex: int, needed: int, available: int):
        self.vertex = vertex
        self.needed = needed
        self.available = available
        super().__init__(
            f"vertex {vertex} needs {needed} adjustable boundary edges, has {available}"
        )


class NoValidPair(StageFailure):
    """No reachable reserved-residue pair remains for a core vertex."""

    outcome_stage = "ustage"

    def __init__(self, vertex: int, diagnostics: dict):
        self.vertex = vertex
        self.diagnostics = diagnostics
        super().__init__(f"no valid residue pair for vertex {vertex}: {diagnostics}")
