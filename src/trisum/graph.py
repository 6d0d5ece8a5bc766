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

from .blockio import LineNumbers, format_rows, read_rows, text_blocks
from .errors import EdgeListParseError, SelfLoopError
from .rng import TAG_GNP, TAG_REGULAR, stream


# Largest vertex count a graph may have: ids lie in [0, MAX_VERTICES).
# Per-vertex arrays are sized by the largest id, so the bound keeps a
# stray huge id in an input file from asking for gigabytes.
MAX_VERTICES = 2**24

# Largest count 2m of edge ends a graph's CSR may hold: its neighbour and
# edge ids are int32. A graph at the bound has 2^30 edges, whose edge list
# alone takes 16 GiB.
MAX_INCIDENCES = 2**31 - 1

# Pair coins `gen_gnp` draws per call into its keep mask, and ids
# `gather` casts per step.
COIN_CHUNK = 2**16
GATHER_CHUNK = 2**16


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. No self-loops, no parallel edges.

    `edges` and `neighbors(v)` are int64; the CSR behind `neighbors`
    stores its per-incidence ids as int32 (see `_csr`).
    """

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
        deg += np.bincount(self.edges[:, 0], minlength=self.vertex_count)
        deg += np.bincount(self.edges[:, 1], minlength=self.vertex_count)
        return deg

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbor ids, incident edge ids), neighbors ascending.

        indptr is int64; the two per-incidence arrays are int32, 8 bytes
        per edge each. A graph with more than MAX_INCIDENCES edge ends is
        refused, so no id wraps.
        """
        n, m = self.vertex_count, self.edge_count
        if 2 * m > MAX_INCIDENCES:
            raise ValueError(f"{2 * m} edge ends do not fit the CSR's 32-bit ids; "
                             f"at most MAX_INCIDENCES = {MAX_INCIDENCES}")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=indptr[1:])
        # Entry k of the flat edge list is an end of edge k // 2, whose
        # other end is entry k ^ 1. The edges are sorted, so each vertex's
        # entries come smaller neighbours first, each half ascending: a
        # stable sort by vertex alone (a radix sort on small ids) gives
        # the CSR order.
        ends = self.edges.ravel().astype(np.min_scalar_type(n - 1))
        order = np.argsort(ends, kind="stable")
        order ^= 1
        nbrs = np.empty(2 * m, dtype=np.int32)
        nbrs[:] = ends[order]
        del ends
        order >>= 1
        return indptr, nbrs, order.astype(np.int32)

    def neighbors(self, v: int) -> np.ndarray:
        """v's neighbours, ascending, as a fresh int64 array."""
        indptr, nbrs, _ = self._csr
        return nbrs[indptr[v]:indptr[v + 1]].astype(np.int64)

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.vertex_count else 0

    def min_degree(self) -> int:
        return int(self.degrees.min()) if self.vertex_count else 0


def gather(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """values[ids] for the CSR's int32 ids, cast to intp a chunk at a time:
    numpy indexes with a non-intp array several times slower, and casting
    the whole array at once would take 8 bytes an id."""
    out = np.empty(ids.size, dtype=values.dtype)
    for start in range(0, ids.size, GATHER_CHUNK):
        part = ids[start:start + GATHER_CHUNK]
        out[start:start + part.size] = values[part.astype(np.intp)]
    return out


def group_by(keys: np.ndarray, values: np.ndarray, n: int) -> list[np.ndarray]:
    """For each key k in 0..n-1, the values paired with k, in their given
    order: callers pass values that are ascending within each key, so one
    stable sort by key (a radix sort on small ids, as in `Graph._csr`)
    keeps them ascending."""
    order = np.argsort(keys.astype(np.min_scalar_type(n - 1)), kind="stable")
    values = values[order]
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=starts[1:])
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
    line_nos = LineNumbers(text)
    for offset, block in text_blocks(text):
        parsed = _edge_block(block)
        if parsed is None:
            parsed = _scan_edge_lines(block.splitlines(), line_nos.at(offset))
        rows, hint = parsed
        blocks.append(rows)
        hinted = hinted if hint is None else hint
    return Graph.build(hinted, np.concatenate(blocks) if blocks else ())


def _edge_block(block: str) -> tuple[np.ndarray, int | None] | None:
    """Pairs and last vertex-count hint of a block, or None unless every
    line of it is plainly well formed. `read_rows` takes no sign, so it
    gives no negative id: of the line scan's checks on a pair, only the
    self-loop one is left."""
    rows, comments = read_rows(block, 2)
    if rows is None or (rows[:, 0] == rows[:, 1]).any():
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


def write_edge_list(g: Graph, path: str | Path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_edge_list_text(g))


def _check_generated_size(n: int) -> None:
    """Refuse a generated vertex count that a graph may not have, before
    any per-vertex or per-pair array is allocated."""
    if n > MAX_VERTICES:
        raise ValueError(f"n = {n} is above MAX_VERTICES = {MAX_VERTICES}")


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair kept independently with probability p.

    Pair k of the row-major upper triangle gets the k-th coin of the
    stream. The coins are drawn COIN_CHUNK at a time into one keep mask,
    a byte per pair, and the kept pairs are decoded chunk by chunk
    straight into the edge rows.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_generated_size(n)
    rng = stream(seed, TAG_GNP)
    pairs = n * (n - 1) // 2
    keep = np.empty(pairs, dtype=bool)
    coins = np.empty(min(pairs, COIN_CHUNK))
    for start in range(0, pairs, COIN_CHUNK):
        part = coins[:min(COIN_CHUNK, pairs - start)]
        rng.random(out=part)
        np.less(part, p, out=keep[start:start + part.size])
    # Row i of the triangle holds the pairs (i, i + 1), ..., (i, n - 1).
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    edges = np.empty((int(np.count_nonzero(keep)), 2), dtype=np.int64)
    filled = 0
    for start in range(0, pairs, COIN_CHUNK):
        k = np.flatnonzero(keep[start:start + COIN_CHUNK]) + start
        i = np.searchsorted(row_start, k, side="right") - 1
        rows_out = edges[filled:filled + k.size]
        rows_out[:, 0] = i
        rows_out[:, 1] = k - row_start[i] + i + 1
        filled += k.size
    return Graph(vertex_count=n, edges=edges)


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via stub pairing with per-round repair, in
    one pass.

    Clashing stubs (loops / repeated pairs) are re-paired among themselves
    until none remain. A round that places no stub, when no two remaining
    stubs could form a fresh edge, is a dead end: each leftover pair is
    then placed by a switch (`_switch_in`). The switch slightly biases the
    result away from the pairing model's distribution; with every draw
    from the one stream, the output is still deterministic per seed.
    """
    if d < 0 or n < 0:
        raise ValueError("n and d must be non-negative")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError("d must be smaller than n")
    _check_generated_size(n)
    rng = stream(seed, TAG_REGULAR)

    placed = np.empty(0, dtype=np.int64)   # keys lo * n + hi of the edges, ascending
    # The shuffle's draws depend on the stub count alone, not on its dtype.
    stubs = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), d)
    while stubs.size:
        rng.shuffle(stubs)
        lo = np.minimum(stubs[0::2], stubs[1::2])
        hi = np.maximum(stubs[0::2], stubs[1::2])
        keys = lo.astype(np.int64)
        keys *= n
        keys += hi
        keys, first = _first_of_keys(keys)
        ok = (lo[first] != hi[first]) & ~_in_sorted(placed, keys)
        fresh = np.zeros(lo.size, dtype=bool)
        fresh[first[ok]] = True
        new = keys[ok]
        placed = np.insert(placed, np.searchsorted(placed, new), new)
        # Clashing pairs keep their order, so the next shuffle draws
        # the same values as a pair-by-pair repair would.
        stubs = np.stack([lo[~fresh], hi[~fresh]], axis=1).ravel()
        if stubs.size and not new.size and not _has_suitable(placed, stubs, n):
            for a, b in stubs.reshape(-1, 2).tolist():
                placed = _switch_in(placed, a, b, n, rng)
            break
    edges = np.empty((placed.size, 2), dtype=np.int64)
    np.divmod(placed, n, out=(edges[:, 0], edges[:, 1]))
    return Graph(vertex_count=n, edges=edges)


def _switch_in(placed: np.ndarray, a: int, b: int, n: int, rng) -> np.ndarray:
    """The keys placed with the stub pair (a, b) added by a switch: a placed
    edge (x, y), drawn uniformly among the oriented edges that allow it,
    is replaced by (a, x) and (b, y).

    Called at a dead end, where every two vertices with a stub left are
    adjacent; a switch then exists whenever d < n. Vertex a has a stub
    left, so deg a < d <= n - 1 and a has a non-neighbour x != a. Every
    non-neighbour x of a is at full degree d, or (a, x) would be a fresh
    pair of stubs.
    - a != b: N(x) holds d vertices and not a, while N(b) | {b} holds at
      most d vertices, a among them (a and b are adjacent). So x has a
      neighbour y outside N(b) | {b}.
    - a == b: a has two stubs left, so N(a) holds at most d - 2 vertices.
      So x has a neighbour y outside N(a) | {a}: the non-neighbours of a
      span an edge.
    Either way (a, x) and (b, y) are fresh, distinct and loop-free. The
    removed edge has the full-degree end x, so every two vertices with a
    stub left stay adjacent, and the argument holds for the next pair.
    """
    lo, hi = placed // n, placed % n
    x, y = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    allowed = np.flatnonzero(~_closed_neighbourhood(lo, hi, a, n)[x]
                             & ~_closed_neighbourhood(lo, hi, b, n)[y])
    pick = allowed[rng.integers(allowed.size)]
    x, y = int(x[pick]), int(y[pick])
    placed = np.delete(placed, np.searchsorted(placed, min(x, y) * n + max(x, y)))
    new = np.sort([min(a, x) * n + max(a, x), min(b, y) * n + max(b, y)])
    return np.insert(placed, np.searchsorted(placed, new), new)


def _closed_neighbourhood(lo: np.ndarray, hi: np.ndarray, v: int, n: int) -> np.ndarray:
    """Mask over 0..n-1 of v and its neighbours in the edges (lo, hi)."""
    mask = np.zeros(n, dtype=bool)
    mask[v] = True
    mask[hi[lo == v]] = True
    mask[lo[hi == v]] = True
    return mask


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
    uniq = np.unique(stubs).astype(np.int64)
    i, j = np.triu_indices(uniq.size, k=1)
    return not _in_sorted(placed, uniq[i] * n + uniq[j]).all()
