import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LINE_ENDS, format_edge_list, traced_peak
from trisum import blockio
from trisum import graph as graph_module
from trisum.errors import EdgeListParseError, SelfLoopError
from trisum.graph import (
    Graph,
    gather,
    gen_gnp,
    gen_random_regular,
    group_by,
    load_edge_list,
    parse_edge_list,
    write_edge_list,
)
from trisum.rng import TAG_GNP, TAG_REGULAR, stream

_VERTEX_HINT = "# vertices:"


def reference_parse_edge_list(text: str) -> Graph:
    """The line-by-line parser the block reader replaced: the oracle for
    its results and for the type, message and line of its errors."""
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
    return reference_build(hinted, pairs)


def reference_build(vertex_count: int, pairs) -> Graph:
    """Graph.build as it was, with np.unique(axis=0) over sorted rows, and
    the same MAX_VERTICES refusals."""
    bound = graph_module.MAX_VERTICES
    if vertex_count > bound:
        raise ValueError(f"vertex count {vertex_count} is above MAX_VERTICES = {bound}")
    try:
        arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise ValueError(f"a vertex id does not fit in int64; ids must be "
                         f"below MAX_VERTICES = {bound}") from None
    if arr.size:
        if (arr[:, 0] == arr[:, 1]).any():
            bad = arr[arr[:, 0] == arr[:, 1]][0]
            raise SelfLoopError(f"self-loop at vertex {bad[0]}")
        if arr.min() < 0:
            raise ValueError("negative vertex id")
        if arr.max() >= bound:
            raise ValueError(f"vertex id {arr.max()} is not below MAX_VERTICES = {bound}")
        arr = np.unique(np.sort(arr, axis=1), axis=0)
        vertex_count = max(vertex_count, int(arr.max()) + 1)
    return Graph(vertex_count=int(vertex_count), edges=arr)


def reference_format_edge_list(g: Graph) -> str:
    lines = [f"{_VERTEX_HINT} {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def reference_format_rows(rows: np.ndarray):
    """blockio.format_rows as it was: one `%` over a tuple of each block's
    values, the oracle for the bytes the digit-table writer gives."""
    line = " ".join(["%d"] * rows.shape[1]) + "\n"
    for start in range(0, rows.shape[0], blockio.BLOCK_ROWS):
        block = rows[start:start + blockio.BLOCK_ROWS]
        yield (line * block.shape[0]) % tuple(block.ravel().tolist())


def reference_split_comments(block: str) -> tuple[str, list[str]]:
    """blockio.split_comments as it was used on every block: the block
    without its '#' lines, and those lines, stripped."""
    kept, comments = [], []
    for line in block.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            comments.append(stripped)
        else:
            kept.append(line)
    return "\n".join(kept), comments


def reference_read_rows(block: str, k: int):
    body, comments = reference_split_comments(block)
    return int_rows(body, k), comments


def int_rows(block: str, k: int):
    """`blockio._int_rows` of a block's UTF-8 bytes, as `read_rows` hands
    them over."""
    return blockio._int_rows(block.encode("utf-8", "surrogatepass"), k)


def reference_gen_gnp(n: int, p: float, seed: int) -> Graph:
    """gen_gnp as it was: one coin per pair of `triu_indices`, drawn in one
    call. The oracle for the chunked draw and the decoded rows."""
    rng = stream(seed, TAG_GNP)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    return Graph(vertex_count=n, edges=pairs.astype(np.int64))


def reference_gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Pair-by-pair stub pairing, the oracle for the array rounds: clashing
    pairs are re-paired until none remain, and at a dead end each leftover
    pair is placed by a switch drawn from the same stream."""
    rng = stream(seed, TAG_REGULAR)
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
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
        if leftovers and placed == 0 and not reference_has_suitable(edges, leftovers):
            for a, b in zip(leftovers[0::2], leftovers[1::2]):
                reference_switch_in(edges, a, b, rng)
            break
        stubs = np.asarray(leftovers, dtype=np.int64)
    return reference_build(n, edges)


def reference_switch_in(edges: set[tuple[int, int]], a: int, b: int, rng) -> None:
    """Replace a placed edge (x, y) by (a, x) and (b, y), drawn uniformly
    among the oriented edges, forward ones first, that keep edges simple."""
    def fresh(u: int, v: int) -> bool:
        return u != v and (min(u, v), max(u, v)) not in edges

    ordered = sorted(edges)
    oriented = ordered + [(v, u) for u, v in ordered]
    allowed = [(x, y) for x, y in oriented if fresh(a, x) and fresh(b, y)]
    x, y = allowed[int(rng.integers(len(allowed)))]
    edges.remove((min(x, y), max(x, y)))
    edges.add((min(a, x), max(a, x)))
    edges.add((min(b, y), max(b, y)))


def reference_has_suitable(edges: set[tuple[int, int]], stubs: list[int]) -> bool:
    uniq = sorted(set(stubs))
    for i, a in enumerate(uniq):
        for b in uniq[i + 1:]:
            if (a, b) not in edges:
                return True
    return False


def reference_csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Graph._csr as it was, with a two-key lexsort over 2m entries."""
    n, m = g.vertex_count, g.edge_count
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    eid = np.concatenate([np.arange(m), np.arange(m)])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], eid[order]


def reference_group_by(keys: np.ndarray, values: np.ndarray, n: int) -> list[np.ndarray]:
    """group_by as it was: a two-key lexsort, then a search for each key."""
    order = np.lexsort((values, keys))
    values = values[order]
    starts = np.searchsorted(keys[order], np.arange(n + 1))
    return [values[starts[k]:starts[k + 1]] for k in range(n)]


def outcome(parse, text: str):
    """What a parser does with text: its graph, or its error's type,
    message and line number."""
    try:
        g = parse(text)
    except Exception as exc:  # compared, never swallowed: see callers
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    return ("graph", g.vertex_count, g.edges.dtype, g.edges.tolist())


def assert_same_graph(g: Graph, ref: Graph) -> None:
    assert g.vertex_count == ref.vertex_count
    assert g.edges.dtype == ref.edges.dtype and g.edges.shape == ref.edges.shape
    assert np.array_equal(g.edges, ref.edges)


class TestParseEdgeList:
    def test_path_on_three_vertices(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert g.degrees.tolist() == [1, 2, 1]

    def test_duplicate_lines_collapse(self):
        g = parse_edge_list("0 1\n0 1")
        assert g.vertex_count == 2
        assert g.edge_count == 1

    def test_reversed_duplicate_collapses(self):
        g = parse_edge_list("0 1\n1 0")
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            parse_edge_list("0 0")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\nnope nope\n2 3")
        assert exc.value.line_no == 2

    def test_wrong_token_count(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 1 2")

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# a comment\n\n0 1\n  \n# another\n1 2\n")
        assert g.edge_count == 2

    def test_vertex_hint_round_trip(self):
        g = gen_gnp(5, 0.0, seed=1)
        text = format_edge_list(g)
        back = parse_edge_list(text)
        assert back.vertex_count == 5
        assert back.edge_count == 0


class TestGenerators:
    def test_gnp_p_one_is_complete(self):
        g = gen_gnp(5, 1.0, seed=3)
        assert g.edge_count == 10
        assert (g.degrees == 4).all()

    def test_gnp_p_zero_is_empty(self):
        g = gen_gnp(5, 0.0, seed=3)
        assert g.edge_count == 0
        assert g.vertex_count == 5

    def test_gnp_deterministic(self):
        a = gen_gnp(200, 0.5, seed=7)
        b = gen_gnp(200, 0.5, seed=7)
        assert np.array_equal(a.edges, b.edges)

    def test_gnp_seed_changes_graph(self):
        a = gen_gnp(200, 0.5, seed=7)
        b = gen_gnp(200, 0.5, seed=8)
        assert not np.array_equal(a.edges, b.edges)

    def test_gnp_p_out_of_range(self):
        with pytest.raises(ValueError):
            gen_gnp(5, 1.5, seed=0)

    def test_regular_k4(self):
        g = gen_random_regular(4, 3, seed=0)
        assert g.edge_count == 6
        assert (g.degrees == 3).all()

    def test_regular_two_regular_is_cycles(self):
        g = gen_random_regular(6, 2, seed=5)
        assert (g.degrees == 2).all()
        assert g.edge_count == 6

    def test_regular_degree_audit(self):
        g = gen_random_regular(100, 10, seed=1)
        assert (g.degrees == 10).all()

    def test_regular_deterministic(self):
        a = gen_random_regular(60, 6, seed=4)
        b = gen_random_regular(60, 6, seed=4)
        assert np.array_equal(a.edges, b.edges)

    def test_regular_odd_product_rejected(self):
        with pytest.raises(ValueError):
            gen_random_regular(5, 3, seed=0)

    def test_regular_d_too_large(self):
        with pytest.raises(ValueError):
            gen_random_regular(4, 4, seed=0)

    @pytest.mark.parametrize("gen, args", [(gen_gnp, (0.5,)), (gen_random_regular, (4,))],
                             ids=["gnp", "regular"])
    def test_above_max_vertices_refused_before_allocating(self, monkeypatch, gen, args):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        assert gen(10, *args, 0).vertex_count == 10
        # the refusal comes before the first draw, so no array was sized by n
        monkeypatch.setattr(graph_module, "stream", None)
        with pytest.raises(ValueError, match="n = 12 is above MAX_VERTICES = 10"):
            gen(12, *args, 0)

    @pytest.mark.parametrize("n, d, seed", [
        (600, 80, 2), (50, 7, 3), (20, 19, 1), (10, 3, 5), (30, 4, 11),
        (0, 0, 1), (5, 0, 2), (4, 3, 0), (6, 2, 5),
        (40, 39, 3), (1000, 3, 9), (300, 150, 4), (10, 3, 26),
    ])
    def test_regular_matches_reference(self, n, d, seed):
        assert_same_graph(gen_random_regular(n, d, seed), reference_gen_random_regular(n, d, seed))

    def test_regular_dead_end_switches_in_first_pass(self, monkeypatch):
        # (10, 3, 26), also a case above, reaches a dead end: the leftover
        # pairs are placed by switches and the pass returns, with no
        # further round.
        events = []

        def spy_suitable(placed, stubs, n):
            events.append(("suitable", has_suitable(placed, stubs, n)))
            return events[-1][1]

        def spy_switch(placed, a, b, n, rng):
            events.append(("switch", a, b))
            return switch_in(placed, a, b, n, rng)

        has_suitable, switch_in = graph_module._has_suitable, graph_module._switch_in
        monkeypatch.setattr(graph_module, "_has_suitable", spy_suitable)
        monkeypatch.setattr(graph_module, "_switch_in", spy_switch)
        assert (gen_random_regular(10, 3, 26).degrees == 3).all()
        dead = events.index(("suitable", False))
        assert events[dead + 1:] and all(e[0] == "switch" for e in events[dead + 1:])

    def test_regular_reference_instance_pinned(self):
        # sha256 of the reference generator's edges for the ROADMAP's
        # 400-regular graph on 2000 vertices, gen-seed 7. Its pairing
        # reaches a dead end once, placed by one switch.
        g = gen_random_regular(2000, 400, 7)
        assert g.edges.dtype == np.int64 and g.edges.shape == (400_000, 2)
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
            "e3038383574b70c9becaefe0223172668a36e1d57502a0764296bf85722d93cc")


@st.composite
def regular_specs(draw):
    """(n, d) with 1 <= n <= 24, 0 <= d < n and n * d even, drawn half the
    time from the dense corners d = n - 2 and n - 3, where the fewest
    switches are allowed."""
    n = draw(st.integers(1, 24))
    degrees = [d for d in range(n) if n * d % 2 == 0]
    dense = [d for d in (n - 2, n - 3) if d in degrees]
    if dense and draw(st.booleans()):
        return n, draw(st.sampled_from(dense))
    return n, draw(st.sampled_from(degrees))


@settings(max_examples=150, deadline=None)
@given(regular_specs(), st.integers(0, 10_000))
def test_regular_simple_sorted_and_deterministic(spec, seed):
    n, d = spec
    g = gen_random_regular(n, d, seed)
    assert g.vertex_count == n and g.edges.shape == (n * d // 2, 2)
    assert (g.edges[:, 0] < g.edges[:, 1]).all()
    keys = g.edges[:, 0] * n + g.edges[:, 1]
    assert (keys[1:] > keys[:-1]).all()   # sorted, so no edge repeats
    assert (g.degrees == d).all()
    assert np.array_equal(g.edges, gen_random_regular(n, d, seed).edges)
    assert np.array_equal(g.edges, reference_gen_random_regular(n, d, seed).edges)


@st.composite
def gnp_specs(draw):
    """(n, coin chunk or None for the default): small n under tiny chunks,
    and n from 360 to 800, whose 64,620-319,600 pairs span one to five
    chunks of the default 65,536 coins."""
    if draw(st.booleans()):
        return draw(st.integers(0, 30)), draw(st.sampled_from([None, 1, 2, 7, 64]))
    return draw(st.integers(360, 800)), None


@settings(max_examples=60, deadline=None)
@given(gnp_specs(), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_gnp_matches_reference(spec, p, seed):
    n, chunk = spec
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(graph_module, "COIN_CHUNK", chunk)
        g = gen_gnp(n, p, seed)
    assert_same_graph(g, reference_gen_gnp(n, p, seed))


def test_gnp_reference_instance_matches_reference():
    # G(1500, 0.5), gen-seed 42: 1,124,250 pairs, 18 chunks of coins
    g = gen_gnp(1500, 0.5, 42)
    assert g.edge_count == 562_411
    assert_same_graph(g, reference_gen_gnp(1500, 0.5, 42))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_degree_identities(n, p, seed):
    g = gen_gnp(n, p, seed)
    for v in range(n):
        assert g.neighbors(v).size == int(g.degrees[v])
    assert g.degrees.sum() == 2 * g.edge_count


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 25), st.integers(0, 10_000), st.data())
def test_cut_size_identity(n, seed, data):
    g = gen_gnp(n, 0.5, seed)
    split = data.draw(st.integers(1, n - 1))
    crossing = sum(
        1 for u, v in g.edges if (u < split) != (v < split)
    )
    assert crossing == sum(int((g.neighbors(v) >= split).sum()) for v in range(split))


def test_adjacency_symmetric(k3):
    for u, v in k3.edges:
        assert v in k3.neighbors(u)
        assert u in k3.neighbors(v)


class TestBuild:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 12),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
           st.booleans())
    def test_matches_reference(self, hint, pairs, as_array):
        pairs = [(u, v) for u, v in pairs if u != v]
        arg = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
        g, ref = Graph.build(hint, arg), reference_build(hint, pairs)
        assert g.vertex_count == ref.vertex_count
        assert g.edges.dtype == ref.edges.dtype and g.edges.shape == ref.edges.shape
        assert np.array_equal(g.edges, ref.edges)

    def test_sorted_input_kept(self):
        edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        assert np.array_equal(Graph.build(0, edges).edges, edges)

    def test_unsorted_and_duplicate_input(self):
        g = Graph.build(0, np.array([[2, 1], [0, 2], [1, 2], [2, 0]]))
        assert g.edges.tolist() == [[0, 2], [1, 2]]
        assert g.vertex_count == 3

    def test_errors(self):
        with pytest.raises(SelfLoopError, match="self-loop at vertex 3"):
            Graph.build(0, np.array([[0, 1], [3, 3]]))
        with pytest.raises(ValueError, match="negative vertex id"):
            Graph.build(0, [(0, -1)])
        for pairs in ([], [(0, 1)]):
            with pytest.raises(ValueError, match="vertex count -5 is negative"):
                Graph.build(-5, pairs)

    def test_ids_beyond_max_vertices_refused(self, monkeypatch):
        bound = graph_module.MAX_VERTICES
        for big in (bound, 2**62, 2**70):
            with pytest.raises(ValueError, match=f"MAX_VERTICES = {bound}"):
                Graph.build(0, [(0, 1), (big, 1)])
        with pytest.raises(ValueError, match=f"MAX_VERTICES = {bound}"):
            Graph.build(0, np.array([[0, 2**70]], dtype=object))
        with pytest.raises(ValueError, match="vertex count 100000000000 is above"):
            Graph.build(10**11, [(0, 1)])
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        assert Graph.build(10, [(0, 9)]).vertex_count == 10
        with pytest.raises(ValueError, match="vertex id 10 is not below MAX_VERTICES = 10"):
            Graph.build(0, [(0, 9), (10, 3)])
        with pytest.raises(ValueError, match="vertex count 11 is above MAX_VERTICES = 10"):
            Graph.build(11, [])


# Lines for the differential tests: well-formed pairs written in the
# syntaxes int() accepts, and odd lines: every kind of malformed line,
# and unusual whitespace, line breaks, digits and integer syntax.
_SEP = st.sampled_from([" ", "  ", "\t", " \t "])
_SIGN = st.sampled_from(["", "+", "0"])
_EDGE_LINE = st.builds(
    lambda pad, pair, signs, sep: f"{pad}{signs[0]}{pair[0]}{sep}{signs[1]}{pair[1]}{pad}",
    st.sampled_from(["", " ", "\t"]),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda p: p[0] != p[1]),
    st.tuples(_SIGN, _SIGN), _SEP)
_ODD_LINE = st.sampled_from([
    "0", "0 1 2", "a b", "1 x", "1.5 2", "0x1 2", "3 3", "-1 2", "2 -1", "-2 -2",
    "# vertices: x", "1_0 2", "0 1 # trailing", "\u0663 1", "1\xa02",
    f"{2**70} 1", "0\x0c1 2", "  # vertices: 3", "4 5\r", "2\x1f3", "1\x0b2 3",
    "5 6\x1c", "\u20283 4", "0\x1f1 2", "0\x0c1", "5\x1d6", "7\x1e8", "3\x0b4",
    # the longest token converted in C (18 digits), one digit more, the
    # int64 bounds and a zero-padded 19-digit id
    "100000000000000000 1", "999999999999999999 2", "1000000000000000000 3",
    "9223372036854775807 4", "9223372036854775808 5", "0000000000000000001 2",
    # lines, and with BLOCK_CHARS small whole blocks, of only whitespace or
    # only comments
    " \t\x0b\x0c ", "\x0b", "# only\n# comments",
    # comments of any text, some holding a line break beyond bytes 10 to
    # 13, and lone surrogates, which no UTF-8 decoder gives
    "# caf\xe9", "# a\x85b", "# a\u2028b", "\ud800 2", "# \ud800",
])
_OTHER_LINE = st.one_of(
    st.sampled_from(["", "   ", "# a comment", "#", "# vertices: 12", "\t# x"]),
    st.integers(0, 20).map(lambda n: f"# vertices: {n}"),
)


@st.composite
def edge_list_texts(draw, odd=True):
    kinds = [_EDGE_LINE, _EDGE_LINE, _EDGE_LINE, _OTHER_LINE]
    if odd:
        kinds.append(_ODD_LINE)
    lines = draw(st.lists(st.one_of(*kinds), max_size=30))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestParseAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts(), st.sampled_from([None, 1, 7, 40]))
    def test_same_result_or_error(self, text, block_chars):
        with pytest.MonkeyPatch.context() as mp:
            if block_chars is not None:
                mp.setattr(blockio, "BLOCK_CHARS", block_chars)
            got = outcome(parse_edge_list, text)
        assert got == outcome(reference_parse_edge_list, text)

    @settings(max_examples=100, deadline=None)
    @given(edge_list_texts())
    def test_same_result_or_error_under_small_bound(self, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "MAX_VERTICES", 8)
            got = outcome(parse_edge_list, text)
            assert got == outcome(reference_parse_edge_list, text)

    @settings(max_examples=100, deadline=None)
    @given(edge_list_texts(odd=False))
    def test_well_formed_texts_parse(self, text):
        assert outcome(parse_edge_list, text)[0] == "graph"

    def test_first_error_in_second_block(self):
        lines = ["# vertices: 5000"] + [f"{i} {i + 1}" for i in range(90_000)]
        assert len("\n".join(lines)) > blockio.BLOCK_CHARS
        lines[80_000] = "7 x"
        lines[85_000] = "7 7"
        text = "\r\n".join(lines) + "\r\n"
        got = outcome(parse_edge_list, text)
        assert got == ("error", EdgeListParseError, "line 80001: non-integer id in '7 x'", 80001)
        assert got == outcome(reference_parse_edge_list, text)

    def test_line_numbers_count_every_line_break(self):
        text = "0 1\r1 2\x0c2 3\r\n3 4\n5 5\n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blockio, "BLOCK_CHARS", 1)
            got = outcome(parse_edge_list, text)
        assert got == ("error", SelfLoopError, "line 5: self-loop at vertex 5", 5)
        assert got == outcome(reference_parse_edge_list, text)

    @pytest.mark.parametrize("bad", [1500, 2999], ids=["middle-block", "last-block"])
    def test_line_numbers_over_many_fallback_blocks(self, bad):
        # signed ids send every block to the line scan; the line ends cycle
        # through every break str.splitlines() knows
        lines = [f"+{i} +{i + 1}" for i in range(3000)]
        lines[bad] = "7 x"
        text = "".join(
            line + LINE_ENDS[i % len(LINE_ENDS)] for i, line in enumerate(lines))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blockio, "BLOCK_CHARS", 1)
            assert len(list(blockio.text_blocks(text))) >= 100
            got = outcome(parse_edge_list, text)
        assert got == ("error", EdgeListParseError,
                       f"line {bad + 1}: non-integer id in '7 x'", bad + 1)
        assert got == outcome(reference_parse_edge_list, text)

    @pytest.mark.parametrize("text, line_no", [
        ("# vertices: -5\n", 1),
        ("# vertices: -5\n0 1\n", 1),
        ("0 1\n1 2\n# vertices: 4\n# vertices: -1\n", 4),
    ], ids=["hint-only", "hint-with-edges", "after-a-good-hint"])
    def test_negative_vertex_hint(self, text, line_no):
        want = ("error", EdgeListParseError, f"line {line_no}: bad vertex-count hint", line_no)
        assert outcome(parse_edge_list, text) == want
        # the line scan gives the same error as a whole block read
        for block_chars in (1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(blockio, "BLOCK_CHARS", block_chars)
                assert outcome(parse_edge_list, text) == want
        with pytest.raises(EdgeListParseError) as exc:
            graph_module._scan_edge_lines(text.splitlines(), 1)
        assert (str(exc.value), exc.value.line_no) == want[2:]

    def test_negative_vertex_hint_in_second_block(self):
        lines = ["# vertices: 5000"] + [f"{i} {i + 1}" for i in range(90_000)]
        lines[80_000] = "# vertices: -2"
        text = "\n".join(lines) + "\n"
        assert len(text) > blockio.BLOCK_CHARS
        assert outcome(parse_edge_list, text) == (
            "error", EdgeListParseError, "line 80001: bad vertex-count hint", 80001)

    def test_many_blocks_parse(self):
        g = gen_gnp(900, 0.5, seed=3)
        text = format_edge_list(g)
        assert len(text) > 2 * blockio.BLOCK_CHARS
        back = parse_edge_list(text)
        assert back.vertex_count == g.vertex_count
        assert np.array_equal(back.edges, g.edges)

    def test_id_beyond_int64_raises_after_every_line(self):
        assert outcome(parse_edge_list, f"0 {2**70}\n1 2\n") == outcome(
            reference_parse_edge_list, f"0 {2**70}\n1 2\n")
        assert outcome(parse_edge_list, f"0 {2**70}\n1 1\n")[3] == 2


_INT64_MAX = np.iinfo(np.int64).max


class TestIntRows:
    @pytest.mark.parametrize("block", ["", "\n", " \t\r\n\x0b\x0c ", "\n\n\n"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_block_without_tokens(self, block, k):
        # np.fromstring alone reads such a block as [0]
        rows = int_rows(block, k)
        assert rows.shape == (0, k) and rows.dtype == np.int64

    @pytest.mark.parametrize("token, taken", [
        ("999999999999999999", True),
        ("000000000000000001", True),
        ("0000000000000000001", False),
        ("1000000000000000000", False),
        (str(_INT64_MAX), False),
        (str(_INT64_MAX + 1), False),
        (str(2**70), False),
    ])
    def test_token_length(self, token, taken):
        rows = int_rows(f"0 {token}\n1 2\n", 2)
        if taken:
            assert rows.tolist() == [[0, int(token)], [1, 2]]
        else:
            assert rows is None

    @pytest.mark.parametrize("block", [
        "+1 2\n", "-1 2\n", "1_0 2\n", "\u0663 1\n", "1\xa02\n", "1\x1c2\n",
        "1\x1d2\n", "1\x1e2\n", "1\x1f2\n", "0x1 2\n", "1.5 2\n", "1 2 # c\n",
        "1 2\n3\n", "1 2 3\n",
    ])
    def test_other_blocks_go_to_the_line_scan(self, block):
        assert int_rows(block, 2) is None

    def test_full_block_matches_int(self):
        rng = np.random.default_rng(11)
        rows = blockio.BLOCK_ROWS
        values = rng.integers(0, 10**18, size=(rows, 3))
        values[::7] = rng.integers(0, 10, size=(len(values[::7]), 3))
        seps = rng.choice([" ", "\t", "  ", " \t "], size=(rows, 2))
        ends = rng.choice(["\n", "\r\n", "\r", "\x0c", "\n\n"], size=rows)
        block = "".join(
            f"{a}{s0}{b}{s1}{c}{end}"
            for (a, b, c), (s0, s1), end in zip(values.tolist(), seps, ends))
        got = int_rows(block, 3)
        want = np.array(list(map(int, block.split())), dtype=np.int64).reshape(-1, 3)
        assert got.shape == (rows, 3) and np.array_equal(got, want)


# Values at the edges of the writer's four-digit groups, up to the
# largest vertex id.
_GROUP_EDGES = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10_000, 10_001, 99_999,
                100_000, 10**6, 10**7 - 1, 10**7, graph_module.MAX_VERTICES - 1]


@st.composite
def id_rows(draw):
    """(rows, k) arrays of vertex ids: 0 rows, 1 row, a few, or about one,
    two or three blocks, of values up to a drawn digit count, with values
    at the group edges mixed in."""
    k = draw(st.sampled_from([2, 3]))
    block = blockio.BLOCK_ROWS
    r = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 40),
                       st.sampled_from([block - 1, block, block + 1, 2 * block + 7])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = min(10 ** draw(st.integers(1, 8)), graph_module.MAX_VERTICES)
    rows = rng.integers(0, top, size=(r, k))
    mixed = rng.random((r, k)) < draw(st.sampled_from([0.0, 0.1, 0.9]))
    rows[mixed] = rng.choice(_GROUP_EDGES, size=int(mixed.sum()))
    return rows


def read_all_rows(text: str, k: int) -> np.ndarray:
    parts = [blockio.read_rows(block, k)[0] for _, block in blockio.text_blocks(text)]
    return np.concatenate(parts) if parts else np.empty((0, k), dtype=np.int64)


class TestFormatRows:
    @settings(max_examples=60, deadline=None)
    @given(id_rows())
    def test_bytes_match_reference(self, rows):
        got = list(blockio.format_rows(rows))
        assert got == list(reference_format_rows(rows))
        assert len(got) == -(-rows.shape[0] // blockio.BLOCK_ROWS)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, graph_module.MAX_VERTICES - 1), min_size=k, max_size=k),
        min_size=1, max_size=20)))
    def test_small_blocks_match_reference(self, values):
        rows = np.array(values, dtype=np.int64)
        assert list(blockio.format_rows(rows)) == list(reference_format_rows(rows))

    def test_values_beyond_vertex_ids_match_reference(self):
        rows = np.array([[0, 2**63 - 1, 10**18], [10**12, 10**16 - 1, 10**16]],
                        dtype=np.int64)
        assert list(blockio.format_rows(rows)) == list(reference_format_rows(rows))

    @pytest.mark.parametrize("values", [
        [[-1, 0, 5], [7, 8, 12]],
        [[0, 1, 5], [7, -(2**63), 12]],
    ], ids=["first", "later"])
    def test_negative_value_is_refused(self, values):
        rows = np.array(values, dtype=np.int64)
        with pytest.raises(ValueError, match="non-negative values only"):
            list(blockio.format_rows(rows))

    @settings(max_examples=40, deadline=None)
    @given(id_rows())
    def test_read_of_written_rows(self, rows):
        back = read_all_rows("".join(blockio.format_rows(rows)), rows.shape[1])
        assert back.dtype == np.int64 and np.array_equal(back, rows)


# Lines of a block for the comment tests: rows, blanks, and comments of
# any text at any indent, with every line break of bytes 10 to 13.
_BLOCK_LINE = st.one_of(
    st.sampled_from(["0 1", "12 3", "7  8", "\t4\t5 ", "", " ", "\t"]),
    st.sampled_from(["#", "# vertices: 5", "  # x", "\t# y  ", " \t#z#", "#\t",
                     "# 0 1", "0 1 # tail", "1 #2", "x # y", "# caf\xe9 \u2603\xa0",
                     "\t# \ud800\x1f"]),
)
_BLOCK_END = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c"])


@st.composite
def commented_blocks(draw):
    lines = draw(st.lists(_BLOCK_LINE, max_size=12))
    ends = [draw(_BLOCK_END) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]   # a last line without a line break
    return text


def same_read(got, want) -> bool:
    (rows, comments), (want_rows, want_comments) = got, want
    if rows is None or want_rows is None:
        return rows is want_rows and comments == want_comments
    return np.array_equal(rows, want_rows) and comments == want_comments


class TestReadRows:
    # scanned: the block is left to the line scan, as one with a line break
    # beyond bytes 10 to 13, or one whose '#' line the array pass does not
    # see as a comment ("\x1f" before the '#'), is
    @pytest.mark.parametrize("block, scanned", [
        ("# vertices: 4\n0 1\n2 3\n", False),
        ("0 1\n# middle\n2 3\n", False),
        ("0 1\n2 3\n# end", False),
        ("0 1\n2 3\n# end\n", False),
        ("  # x\n0 1\n\t# y\n", False),
        ("# a\r\n0 1\r\n# b\r\n2 3", False),
        ("0 1\x0b# a\x0c2 3\x0c# b\x0b", False),
        ("0 1\r# a\r2 3", False),
        ("#\n#\n", False),
        ("0 1 # tail\n", False),
        ("0 1\n1 #2\n", False),
        ("# vertices: 3\x1f\n0 1\n", False),
        ("\x1f# x\n0 1\n", True),
        ("# a\x1c0 1\n", True),
        ("# caf\xe9\n0 1\n", False),
        ("0 1\n2 3", False),
        ("# a\x85b\n0 1\n", True),
        ("# a\u2028b\n0 1\n", True),
        ("# \ud800\n0 1\n", False),
        ("0 1\n\ud800 2\n", False),
    ], ids=["header", "middle", "end-no-break", "end", "indented", "crlf",
            "vt-ff", "cr", "only-comments", "trailing-hash", "hash-in-row",
            "unit-separator-in-comment", "unit-separator-before-hash",
            "file-separator", "non-ascii-comment", "no-comment",
            "next-line-in-comment", "line-separator-in-comment",
            "surrogate-in-comment", "surrogate-in-row"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_reference(self, block, scanned, k):
        want = (None, []) if scanned else reference_read_rows(block, k)
        assert same_read(blockio.read_rows(block, k), want)
        assert outcome(parse_edge_list, block) == outcome(reference_parse_edge_list, block)

    @settings(max_examples=400, deadline=None)
    @given(commented_blocks(), st.sampled_from([1, 2, 3]))
    def test_matches_reference_on_drawn_blocks(self, block, k):
        assert same_read(blockio.read_rows(block, k), reference_read_rows(block, k))

    def assert_read_in_one_pass(self, monkeypatch, header):
        # every block of a written edge list, its header comments too, is
        # read by the array pass: the line scan is never called, and every
        # comment is cut out of the block's bytes
        g = gen_gnp(300, 0.5, seed=6)
        text = header + format_edge_list(g)
        cut = []
        cut_comments = blockio._cut_comments

        def recorded(data):
            body, comments = cut_comments(data)
            cut.extend(comments)
            return body, comments

        monkeypatch.setattr(graph_module, "_scan_edge_lines", None)
        monkeypatch.setattr(blockio, "_cut_comments", recorded)
        back = parse_edge_list(text)
        assert back.vertex_count == g.vertex_count
        assert np.array_equal(back.edges, g.edges)
        assert cut == [c for c in text.splitlines() if c.startswith("#")]

    def test_header_block_has_no_line_loop(self, monkeypatch):
        self.assert_read_in_one_pass(monkeypatch, "")

    def test_non_ascii_header_block_has_no_line_loop(self, monkeypatch):
        self.assert_read_in_one_pass(monkeypatch, "# graphe de Jos\xe9\n")


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))), max_size=30))
    return Graph.build(n, [(u, v) for u, v in pairs if u != v])


def assert_csr_matches_reference(g: Graph) -> None:
    # indptr is int64; neighbour and edge ids are stored as int32, and
    # neighbors() hands them out as int64
    dtypes = (np.int64, np.int32, np.int32)
    for got, want, dtype in zip(g._csr, reference_csr(g), dtypes, strict=True):
        assert got.dtype == dtype
        assert np.array_equal(got, want)
    for v in range(g.vertex_count):
        assert g.neighbors(v).dtype == np.int64


class TestCsr:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_matches_reference(self, g):
        assert_csr_matches_reference(g)

    @pytest.mark.parametrize("make", [
        lambda: Graph.build(0, []),
        lambda: Graph.build(1, []),
        lambda: Graph.build(9, [(0, 1), (2, 3)]),
        lambda: Graph.build(2, [(0, 1)]),
        lambda: gen_gnp(30, 1.0, seed=1),
        lambda: gen_random_regular(60, 59, seed=2),
        lambda: gen_gnp(400, 0.3, seed=8),
    ], ids=["empty", "one-vertex", "trailing-isolated", "k2", "k30",
            "complete-regular", "gnp-400"])
    def test_matches_reference_on_edge_cases(self, make):
        assert_csr_matches_reference(make())

    def test_more_edge_ends_than_int32_ids_refused(self, monkeypatch):
        assert graph_module.MAX_INCIDENCES == np.iinfo(np.int32).max
        monkeypatch.setattr(graph_module, "MAX_INCIDENCES", 870)
        assert_csr_matches_reference(gen_gnp(30, 1.0, seed=1))   # 435 edges
        monkeypatch.setattr(graph_module, "MAX_INCIDENCES", 869)
        g = gen_gnp(30, 1.0, seed=1)
        with pytest.raises(ValueError, match="870 edge ends .* MAX_INCIDENCES = 869"):
            g.neighbors(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 200), st.sampled_from([1, 3, 64, None]), st.data())
def test_gather_matches_fancy_index(n, size, chunk, data):
    values = np.arange(n, dtype=np.int64) * 7 - 3
    ids = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)),
                   dtype=np.int32)
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(graph_module, "GATHER_CHUNK", chunk)
        got = gather(values, ids)
        assert got.dtype == values.dtype and got.tolist() == values[ids].tolist()
        assert gather(values > 0, ids).tolist() == (values > 0)[ids].tolist()


class TestMemoryBudget:
    """tracemalloc peaks in bytes per edge, on G(1500, 0.5), gen-seed 0
    (560,925 edges): int64 temporaries of the pair or incidence count
    would exceed them."""

    def test_gnp_peak(self):
        g, peak = traced_peak(lambda: gen_gnp(1500, 0.5, 0))
        assert g.edge_count == 560_925
        assert peak <= 40 * g.edge_count

    def test_csr_build_peak_and_size(self):
        g = gen_gnp(1500, 0.5, 0)
        (_, nbrs, eids), peak = traced_peak(lambda: g._csr)
        assert peak <= 40 * g.edge_count
        assert nbrs.nbytes + eids.nbytes == 16 * g.edge_count


class TestEdgeListRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_format_parse_round_trip(self, g):
        text = format_edge_list(g)
        assert text == reference_format_edge_list(g)
        back = parse_edge_list(text)
        assert back.vertex_count == g.vertex_count
        assert back.edges.dtype == g.edges.dtype
        assert np.array_equal(back.edges, g.edges)

    def test_empty_graph(self):
        g = Graph.build(0, [])
        assert format_edge_list(g) == "# vertices: 0\n"
        assert parse_edge_list(format_edge_list(g)).vertex_count == 0

    def test_trailing_isolated_vertices(self):
        g = Graph.build(9, [(0, 1), (2, 3)])
        assert parse_edge_list(format_edge_list(g)).vertex_count == 9

    @settings(max_examples=40, deadline=None)
    @given(id_rows().filter(lambda rows: rows.shape[1] == 2), st.integers(0, 3))
    def test_round_trip_up_to_max_vertices(self, rows, extra):
        rows = rows[rows[:, 0] != rows[:, 1]]
        n = min(int(rows.max(initial=0)) + 1 + extra, graph_module.MAX_VERTICES)
        g = Graph.build(n, rows)
        text = format_edge_list(g)
        assert text == "".join([f"# vertices: {g.vertex_count}\n",
                                *reference_format_rows(g.edges)])
        back = parse_edge_list(text)
        assert back.vertex_count == g.vertex_count
        assert np.array_equal(back.edges, g.edges)

    def test_written_file_matches_format(self, tmp_path):
        g = gen_gnp(500, 0.6, seed=5)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_bytes() == reference_format_edge_list(g).encode()
        back = load_edge_list(path)
        assert np.array_equal(back.edges, g.edges)


@st.composite
def keyed_values(draw):
    """(keys, values, n): keys in 0..n-1 in any order, values ascending
    within each key as group_by's callers pass them; n up to past 256, so
    keys are sorted both as uint8 and as uint16."""
    n = draw(st.sampled_from([0, 1, 2, 7, 256, 257, 700]))
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0
    size = draw(st.integers(0, 60))
    keys = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)),
                    dtype=np.int64)
    values = np.array(draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size)),
                      dtype=np.int64)
    order = np.argsort(values, kind="stable")
    return keys[order], values[order], n


@settings(max_examples=300, deadline=None)
@given(keyed_values())
def test_group_by_matches_lexsort_reference(case):
    keys, values, n = case
    got, want = group_by(keys, values, n), reference_group_by(keys, values, n)
    assert len(got) == len(want) == n
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
