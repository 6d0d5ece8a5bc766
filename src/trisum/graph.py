"""Simple undirected graphs with dense integer ids and array-backed edges.

Vertices are 0..n-1; edges are rows of a lexicographically sorted (u, v)
array with u < v, and the row index is the edge's stable id. Weightings
and per-vertex quantities elsewhere in the package are plain arrays
indexed by these ids.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .blockio import first_line_no, format_rows, int_rows, split_comments, text_blocks
from .errors import EdgeListParseError, RetryExhausted, SelfLoopError
from .rng import TAG_GNP, TAG_REGULAR, stream


# Largest vertex count a graph may have: ids lie in [0, MAX_VERTICES).
# Per-vertex arrays are sized by the largest id, so the bound keeps a
# stray huge id in an input file from asking for gigabytes.
MAX_VERTICES = 2**24


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. No self-loops, no parallel edges."""

    vertex_count: int
    edges: np.ndarray  # shape (m, 2), int64, u < v, sorted, unique

    @classmethod
    def build(cls, vertex_count: int, pairs) -> "Graph":
        """Normalize vertex pairs (an iterable or an (m, 2) array) into a Graph.

        Duplicate pairs collapse; orientation is ignored; self-loops raise,
        and so do a negative vertex count and a vertex count or an id that
        MAX_VERTICES does not allow.
        """
        if vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex count {vertex_count} is above "
                             f"MAX_VERTICES = {MAX_VERTICES}")
        if vertex_count < 0:
            raise ValueError(f"vertex count {vertex_count} is negative")
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        try:
            arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise ValueError(f"a vertex id does not fit in int64; ids must be "
                             f"below MAX_VERTICES = {MAX_VERTICES}") from None
        if arr.size:
            if (arr[:, 0] == arr[:, 1]).any():
                bad = arr[arr[:, 0] == arr[:, 1]][0]
                raise SelfLoopError(f"self-loop at vertex {bad[0]}")
            if arr.min() < 0:
                raise ValueError("negative vertex id")
            if arr.max() >= MAX_VERTICES:
                raise ValueError(f"vertex id {arr.max()} is not below "
                                 f"MAX_VERTICES = {MAX_VERTICES}")
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            base = int(hi.max()) + 1
            keys = pair_keys(lo, hi, base)
            if not (keys[1:] > keys[:-1]).all():
                _, first = np.unique(keys, return_index=True)
                lo, hi = lo[first], hi[first]
            arr = np.stack([lo, hi], axis=1)
            vertex_count = max(vertex_count, base)
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
        # Each directed pair occurs once, so the keys are distinct and any
        # sort of them gives the (src, dst) order; entry i is edge i % m.
        order = np.argsort(pair_keys(src, dst, n))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst[order], order % m if m else order

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


def group_by(keys: np.ndarray, values: np.ndarray, n: int) -> list[np.ndarray]:
    """For each key k in 0..n-1, the values paired with k, ascending."""
    order = np.lexsort((values, keys))
    values = values[order]
    starts = np.searchsorted(keys[order], np.arange(n + 1))
    return [values[starts[k]:starts[k + 1]] for k in range(n)]


def pair_keys(lo: np.ndarray, hi: np.ndarray, base: int) -> np.ndarray:
    """Keys lo * base + hi, ordered as the pairs (lo, hi) are when
    0 <= hi < base; they fit in int64 for every base up to MAX_VERTICES."""
    return lo * base + hi


_VERTEX_HINT = "# vertices:"


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated vertex pairs; '#' comments, blanks ignored.

    A `# vertices: N` comment, when present, pins the vertex count so
    graphs with trailing isolated vertices round-trip. The text is read in
    blocks (see `blockio`); a block that is not plainly well formed is
    read line by line, and the first bad line raises.
    """
    hinted = 0
    blocks: list[np.ndarray] = []
    for offset, block in text_blocks(text):
        parsed = _edge_block(block)
        if parsed is None:
            parsed = _scan_edge_lines(block.splitlines(), first_line_no(text, offset))
        rows, hint = parsed
        blocks.append(rows)
        hinted = hinted if hint is None else hint
    return Graph.build(hinted, np.concatenate(blocks) if blocks else ())


def _edge_block(block: str) -> tuple[np.ndarray, int | None] | None:
    """Pairs and last vertex-count hint of a block, or None unless every
    line of it is plainly well formed."""
    body, comments = split_comments(block)
    rows = int_rows(body, 2)
    if rows is None or (rows[:, 0] == rows[:, 1]).any() or (rows < 0).any():
        return None
    hints = [_hint_count(c) for c in comments if c.startswith(_VERTEX_HINT)]
    if None in hints:
        return None
    return rows, hints[-1] if hints else None


def _hint_count(comment: str) -> int | None:
    """N of a `# vertices: N` comment, or None unless N is an integer >= 0."""
    try:
        count = int(comment[len(_VERTEX_HINT):].strip())
    except ValueError:
        return None
    return count if count >= 0 else None


def _scan_edge_lines(lines: list[str], first: int) -> tuple[np.ndarray, int | None]:
    """Pairs and last vertex-count hint of lines read one by one, numbered
    from first; raises at the first malformed line."""
    pairs: list[tuple[int, int]] = []
    hinted = None
    for line_no, raw in enumerate(lines, start=first):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_VERTEX_HINT):
                hinted = _hint_count(line)
                if hinted is None:
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
    # Python integers: an id beyond int64 raises in Graph.build, after
    # every line has been checked.
    return np.array(pairs, dtype=object).reshape(-1, 2), hinted


def load_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def _edge_list_text(g: Graph) -> Iterator[str]:
    yield f"{_VERTEX_HINT} {g.vertex_count}\n"
    yield from format_rows(g.edges)


def format_edge_list(g: Graph) -> str:
    return "".join(_edge_list_text(g))


def write_edge_list(g: Graph, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_edge_list_text(g))


def _check_generated_size(n: int) -> None:
    """Refuse a generated vertex count that a graph may not have, before
    any per-vertex or per-pair array is allocated."""
    if n > MAX_VERTICES:
        raise ValueError(f"n = {n} is above MAX_VERTICES = {MAX_VERTICES}")


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair kept independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_generated_size(n)
    rng = stream(seed, TAG_GNP)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    return Graph(vertex_count=n, edges=pairs.astype(np.int64))


# Pairing attempts of the random regular generator before it gives up.
REGULAR_ATTEMPTS = 200


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
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
    _check_generated_size(n)
    rng = stream(seed, TAG_REGULAR)

    for _ in range(REGULAR_ATTEMPTS):
        placed = np.empty(0, dtype=np.int64)   # keys lo * n + hi of the edges, ascending
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        while stubs.size:
            rng.shuffle(stubs)
            lo = np.minimum(stubs[0::2], stubs[1::2])
            hi = np.maximum(stubs[0::2], stubs[1::2])
            keys, first = _first_of_keys(lo * n + hi)
            ok = (lo[first] != hi[first]) & ~_in_sorted(placed, keys)
            fresh = np.zeros(lo.size, dtype=bool)
            fresh[first[ok]] = True
            new = keys[ok]
            placed = np.insert(placed, np.searchsorted(placed, new), new)
            # Clashing pairs keep their order, so the next shuffle draws
            # the same values as a pair-by-pair repair would.
            stubs = np.stack([lo[~fresh], hi[~fresh]], axis=1).ravel()
            if stubs.size and not new.size and not _has_suitable(placed, stubs, n):
                break   # dead end: restart the attempt
        else:
            return Graph(vertex_count=n, edges=np.stack([placed // n, placed % n], axis=1))
    raise RetryExhausted("random-regular", [], REGULAR_ATTEMPTS)


def _first_of_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the index of each one's first
    occurrence in keys."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    return ordered[starts], np.minimum.reduceat(order, starts)


def _in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which of keys occur in the ascending array sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def _has_suitable(placed: np.ndarray, stubs: np.ndarray, n: int) -> bool:
    """Whether any pair of remaining stubs can still form a fresh edge."""
    uniq = np.unique(stubs)
    i, j = np.triu_indices(uniq.size, k=1)
    return not _in_sorted(placed, uniq[i] * n + uniq[j]).all()
