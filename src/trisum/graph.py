"""Simple undirected graphs with dense integer ids and array-backed edges.

Vertices are 0..n-1; edges are rows of a lexicographically sorted (u, v)
array with u < v, and the row index is the edge's stable id. Weightings
and per-vertex quantities elsewhere in the package are plain arrays
indexed by these ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EdgeListParseError, RetryExhausted, SelfLoopError
from .rng import TAG_GNP, TAG_REGULAR, stream


@dataclass(frozen=True)
class IdSet:
    """Membership mask over dense ids with O(1) lookup."""

    mask: np.ndarray

    @classmethod
    def from_ids(cls, size: int, ids) -> "IdSet":
        mask = np.zeros(size, dtype=bool)
        ids = np.asarray(list(ids), dtype=np.int64)
        if ids.size:
            if ids.min() < 0 or ids.max() >= size:
                raise ValueError("id out of range for host of size %d" % size)
            mask[ids] = True
        return cls(mask)

    def __contains__(self, i: int) -> bool:
        return bool(self.mask[i])

    def __len__(self) -> int:
        return int(self.mask.sum())

    def ids(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. No self-loops, no parallel edges."""

    vertex_count: int
    edges: np.ndarray  # shape (m, 2), int64, u < v, sorted, unique

    @classmethod
    def build(cls, vertex_count: int, pairs) -> "Graph":
        """Normalize an iterable of vertex pairs into a Graph.

        Duplicate pairs collapse; orientation is ignored; self-loops raise.
        """
        arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        if arr.size:
            if (arr[:, 0] == arr[:, 1]).any():
                bad = arr[arr[:, 0] == arr[:, 1]][0]
                raise SelfLoopError(f"self-loop at vertex {bad[0]}")
            if arr.min() < 0:
                raise ValueError("negative vertex id")
            arr = np.sort(arr, axis=1)
            arr = np.unique(arr, axis=0)
            vertex_count = max(vertex_count, int(arr.max()) + 1)
        else:
            arr = arr.reshape(0, 2)
        return cls(vertex_count=int(vertex_count), edges=arr)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.vertex_count, dtype=np.int64)
        if self.edge_count:
            deg += np.bincount(self.edges[:, 0], minlength=self.vertex_count)
            deg += np.bincount(self.edges[:, 1], minlength=self.vertex_count)
        return deg

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbor ids, incident edge ids), neighbors ascending."""
        n, m = self.vertex_count, self.edge_count
        src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        eid = np.concatenate([np.arange(m), np.arange(m)])
        order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst[order], eid[order]

    def neighbors(self, v: int) -> np.ndarray:
        indptr, nbrs, _ = self._csr
        return nbrs[indptr[v]:indptr[v + 1]]

    def incident_edges(self, v: int) -> np.ndarray:
        indptr, _, eids = self._csr
        return eids[indptr[v]:indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.vertex_count else 0

    def min_degree(self) -> int:
        return int(self.degrees.min()) if self.vertex_count else 0


def degree_into(g: Graph, v: int, members: IdSet | np.ndarray) -> int:
    """Number of neighbours of v inside the given vertex set."""
    mask = members.mask if isinstance(members, IdSet) else members
    nbrs = g.neighbors(v)
    return int(mask[nbrs].sum()) if nbrs.size else 0


_VERTEX_HINT = "# vertices:"


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated vertex pairs; '#' comments, blanks ignored.

    A `# vertices: N` comment, when present, pins the vertex count so
    graphs with trailing isolated vertices round-trip.
    """
    pairs: list[tuple[int, int]] = []
    hinted = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_VERTEX_HINT):
                try:
                    hinted = int(line[len(_VERTEX_HINT):].strip())
                except ValueError:
                    raise EdgeListParseError("bad vertex-count hint", line_no)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected two ids, got {len(parts)}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer id in {line!r}", line_no)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}", line_no)
        if u < 0 or v < 0:
            raise EdgeListParseError("negative vertex id", line_no)
        pairs.append((u, v))
    return Graph.build(hinted, pairs)


def load_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def format_edge_list(g: Graph) -> str:
    lines = [f"{_VERTEX_HINT} {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edge_list(g))


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair kept independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = stream(seed, TAG_GNP)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    return Graph(vertex_count=n, edges=pairs.astype(np.int64))


def gen_random_regular(n: int, d: int, seed: int, max_attempts: int = 200) -> Graph:
    """Random d-regular graph via stub pairing with per-round repair.

    Clashing stubs (loops / repeated pairs) are re-paired among themselves
    until none remain; a round that can no longer place any stub restarts
    the whole attempt.
    """
    if d < 0 or n < 0:
        raise ValueError("n and d must be non-negative")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError("d must be smaller than n")
    rng = stream(seed, TAG_REGULAR)

    for _ in range(max_attempts):
        edges: set[tuple[int, int]] = set()
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        dead = False
        while stubs.size:
            rng.shuffle(stubs)
            leftovers: list[int] = []
            placed = 0
            for a, b in stubs.reshape(-1, 2):
                a, b = (int(a), int(b)) if a < b else (int(b), int(a))
                if a == b or (a, b) in edges:
                    leftovers.extend((a, b))
                else:
                    edges.add((a, b))
                    placed += 1
            if leftovers and placed == 0 and not _has_suitable(edges, leftovers):
                dead = True
                break
            stubs = np.asarray(leftovers, dtype=np.int64)
        if not dead and not stubs.size:
            return Graph.build(n, edges)
    raise RetryExhausted("random-regular", [], max_attempts)


def _has_suitable(edges: set[tuple[int, int]], stubs: list[int]) -> bool:
    """Whether any pair of remaining stubs can still form a fresh edge."""
    uniq = sorted(set(stubs))
    for i, a in enumerate(uniq):
        for b in uniq[i + 1:]:
            if (a, b) not in edges:
                return True
    return False
