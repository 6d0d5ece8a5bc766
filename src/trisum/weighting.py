"""Edge weightings, weighted degrees and the sum-conflict verifier."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import WeightingCoverageError
from .graph import Graph


@dataclass(frozen=True)
class EdgeWeighting:
    """Positive integer weights over edge ids, bounded by max_weight."""

    weights: np.ndarray  # int64 per edge id
    max_weight: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.int64)
        object.__setattr__(self, "weights", w)
        if w.size and (w.min() < 1 or w.max() > self.max_weight):
            raise ValueError(
                f"weights must lie in [1, {self.max_weight}], got "
                f"[{w.min()}, {w.max()}]"
            )


def weighted_degrees(g: Graph, weighting: EdgeWeighting | np.ndarray) -> np.ndarray:
    """Exact integer sum of incident weights for every vertex (int64)."""
    w = weighting.weights if isinstance(weighting, EdgeWeighting) else weighting
    if w.shape[0] != g.edge_count:
        raise WeightingCoverageError(
            f"weighting covers {w.shape[0]} edges, graph has {g.edge_count}"
        )
    sums = np.zeros(g.vertex_count, dtype=np.int64)
    if g.edge_count:
        sums += np.bincount(g.edges[:, 0], weights=w, minlength=g.vertex_count).astype(np.int64)
        sums += np.bincount(g.edges[:, 1], weights=w, minlength=g.vertex_count).astype(np.int64)
    return sums


def conflicts(g: Graph, weighting: EdgeWeighting | np.ndarray) -> np.ndarray:
    """Edge ids (ascending) whose endpoints have equal weighted degrees."""
    s = weighted_degrees(g, weighting)
    if not g.edge_count:
        return np.empty(0, dtype=np.int64)
    equal = s[g.edges[:, 0]] == s[g.edges[:, 1]]
    return np.flatnonzero(equal).astype(np.int64)


def blow_up_is_locally_irregular(g: Graph, weighting: EdgeWeighting) -> bool:
    """Check local irregularity of the multigraph with w(e) copies of each edge.

    Built by explicit edge replication so it is an independent route to the
    same answer as an empty conflict list.
    """
    w = weighting.weights
    if w.shape[0] != g.edge_count:
        raise WeightingCoverageError("weighting does not cover the edge set")
    reps = w.astype(np.int64)
    ends = np.concatenate([np.repeat(g.edges[:, 0], reps), np.repeat(g.edges[:, 1], reps)])
    multi_deg = np.bincount(ends, minlength=g.vertex_count)
    for u, v in g.edges:
        if multi_deg[u] == multi_deg[v]:
            return False
    return True


def format_weighting(g: Graph, weighting: EdgeWeighting) -> str:
    """One "u v w" line per edge, in edge-id order."""
    w = weighting.weights
    lines = [f"{u} {v} {w[e]}" for e, (u, v) in enumerate(g.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_weighting(g: Graph, text: str, max_weight: int = 3) -> EdgeWeighting:
    """Parse "u v w" lines; must cover every edge of g exactly once.

    Every weight must be an integer in [1, max_weight].
    """
    pair_to_id = {(int(u), int(v)): e for e, (u, v) in enumerate(g.edges)}
    w = np.zeros(g.edge_count, dtype=np.int64)
    seen = np.zeros(g.edge_count, dtype=bool)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise WeightingCoverageError(f"line {line_no}: expected 'u v w'")
        try:
            u, v, wt = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise WeightingCoverageError(f"line {line_no}: non-integer value in {line!r}")
        if not 1 <= wt <= max_weight:
            raise WeightingCoverageError(
                f"line {line_no}: weight {wt} outside [1, {max_weight}]"
            )
        key = (u, v) if u < v else (v, u)
        if key not in pair_to_id:
            raise WeightingCoverageError(f"line {line_no}: {key} is not an edge")
        e = pair_to_id[key]
        if seen[e] and w[e] != wt:
            raise WeightingCoverageError(f"line {line_no}: conflicting weight for {key}")
        seen[e] = True
        w[e] = wt
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise WeightingCoverageError(f"no weight given for edge id {missing}")
    return EdgeWeighting(weights=w, max_weight=max_weight)


def write_weighting(g: Graph, weighting: EdgeWeighting, path: str | Path) -> None:
    Path(path).write_text(format_weighting(g, weighting))


def load_weighting(g: Graph, path: str | Path) -> EdgeWeighting:
    return parse_weighting(g, Path(path).read_text())
