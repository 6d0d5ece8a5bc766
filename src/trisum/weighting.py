"""Edge weightings, weighted degrees and the sum-conflict verifier."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blockio import first_line_no, format_rows, int_rows, split_comments, text_blocks
from .errors import WeightingCoverageError
from .graph import Graph, pair_keys


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


def _weighting_text(g: Graph, weighting: EdgeWeighting) -> Iterator[str]:
    return format_rows(np.column_stack([g.edges, weighting.weights]))


def format_weighting(g: Graph, weighting: EdgeWeighting) -> str:
    """One "u v w" line per edge, in edge-id order."""
    return "".join(_weighting_text(g, weighting))


def parse_weighting(g: Graph, text: str, max_weight: int = 3) -> EdgeWeighting:
    """Parse "u v w" lines; must cover every edge of g exactly once.

    Every weight must be an integer in [1, max_weight]; a pair may repeat
    only with the same weight. The text is read in blocks (see `blockio`);
    a block that is not plainly well formed is read line by line, and the
    first bad line raises.
    """
    table = _EdgeTable(g)
    w = np.zeros(g.edge_count, dtype=np.int64)
    seen = np.zeros(g.edge_count, dtype=bool)
    for offset, block in text_blocks(text):
        rows = int_rows(split_comments(block)[0], 3)
        if rows is None or not _record_block(table, rows, max_weight, w, seen):
            _scan_weight_lines(table, block.splitlines(), first_line_no(text, offset),
                               max_weight, w, seen)
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise WeightingCoverageError(f"no weight given for edge id {missing}")
    return EdgeWeighting(weights=w, max_weight=max_weight)


class _EdgeTable:
    """Edge ids of vertex pairs, by binary search on the sorted edge keys."""

    def __init__(self, g: Graph):
        self.n = g.vertex_count
        self.keys = pair_keys(g.edges[:, 0], g.edges[:, 1], self.n)

    def ids(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Edge id of each pair lo <= hi, -1 where it is not an edge."""
        inside = (lo >= 0) & (hi < self.n)
        keys = pair_keys(np.where(inside, lo, 0), np.where(inside, hi, 0), self.n)
        ids = np.searchsorted(self.keys, keys)
        hit = inside & (ids < self.keys.size)
        hit[hit] = self.keys[ids[hit]] == keys[hit]
        return np.where(hit, ids, -1)

    def id_of(self, lo: int, hi: int) -> int:
        return int(self.ids(np.array([lo]), np.array([hi]))[0])


def _record_block(table: _EdgeTable, rows: np.ndarray, max_weight: int,
                  w: np.ndarray, seen: np.ndarray) -> bool:
    """Record a block's weights; False, recording nothing, when a weight is
    out of range, a pair is not an edge or an edge gets a second weight."""
    u, v, wt = rows.T
    if not ((wt >= 1) & (wt <= max_weight)).all():
        return False
    e = table.ids(np.minimum(u, v), np.maximum(u, v))
    if (e < 0).any():
        return False
    ids, first, slot = np.unique(e, return_index=True, return_inverse=True)
    settled = np.where(seen[ids], w[ids], wt[first])
    if (wt != settled[slot]).any():
        return False
    w[ids] = settled
    seen[ids] = True
    return True


def _scan_weight_lines(table: _EdgeTable, lines: list[str], first: int,
                       max_weight: int, w: np.ndarray, seen: np.ndarray) -> None:
    """Record weights from lines read one by one, numbered from first;
    raises at the first malformed line."""
    for line_no, raw in enumerate(lines, start=first):
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
        e = table.id_of(*key)
        if e < 0:
            raise WeightingCoverageError(f"line {line_no}: {key} is not an edge")
        if seen[e] and w[e] != wt:
            raise WeightingCoverageError(f"line {line_no}: conflicting weight for {key}")
        seen[e] = True
        w[e] = wt


def write_weighting(g: Graph, weighting: EdgeWeighting, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_weighting_text(g, weighting))


def load_weighting(g: Graph, path: str | Path) -> EdgeWeighting:
    return parse_weighting(g, Path(path).read_text())
