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


class InternalInconsistency(TrisumError):
    """A construction invariant failed: a fault in the code, not bad luck."""


class InfeasibleProfile(TrisumError):
    """Profile tolerances cannot be met even in expectation on this graph."""


class RetryExhausted(TrisumError):
    """A resampling stage ran out of budget; carries the worst violators."""

    def __init__(self, stage: str, violators, rounds: int):
        self.stage = stage
        self.violators = list(violators)
        self.rounds = rounds
        shown = ", ".join(str(v) for v in self.violators[:8])
        more = "..." if len(self.violators) > 8 else ""
        super().__init__(
            f"stage {stage!r} still has {len(self.violators)} violators after "
            f"{rounds} rounds (worst: {shown}{more})"
        )


class DegenerateLength(TrisumError):
    """Interval length would fall below 1 for some vertex; profile too fine."""

    def __init__(self, vertices):
        self.vertices = list(vertices)
        super().__init__(
            f"eps_len * d_W(v) < 1 for {len(self.vertices)} vertices "
            f"(first: {self.vertices[:8]})"
        )


class NoValidAddition(TrisumError):
    """No sum addition satisfies interval, residue and distinctness rules."""

    def __init__(self, vertex: int, diagnostics: dict):
        self.vertex = vertex
        self.diagnostics = diagnostics
        super().__init__(f"no valid sum addition for vertex {vertex}: {diagnostics}")


class InsufficientFW(TrisumError):
    """A vertex needs more weight-adjustable boundary edges than it has."""

    def __init__(self, vertex: int, needed: int, available: int):
        self.vertex = vertex
        self.needed = needed
        self.available = available
        super().__init__(
            f"vertex {vertex} needs {needed} adjustable boundary edges, has {available}"
        )


class NoValidPair(TrisumError):
    """No reachable reserved-residue pair remains for a core vertex."""

    def __init__(self, vertex: int, diagnostics: dict):
        self.vertex = vertex
        self.diagnostics = diagnostics
        super().__init__(f"no valid residue pair for vertex {vertex}: {diagnostics}")
