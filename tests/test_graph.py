import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import blockio
from trisum import graph as graph_module
from trisum.errors import EdgeListParseError, RetryExhausted, SelfLoopError
from trisum.graph import (
    Graph,
    format_edge_list,
    gen_gnp,
    gen_random_regular,
    load_edge_list,
    parse_edge_list,
    write_edge_list,
)
from trisum.rng import TAG_REGULAR, stream

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


def reference_gen_random_regular(n: int, d: int, seed: int, max_attempts: int = 200) -> Graph:
    """The pair-by-pair stub pairing the array rounds replaced."""
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
            if leftovers and placed == 0 and not reference_has_suitable(edges, leftovers):
                dead = True
                break
            stubs = np.asarray(leftovers, dtype=np.int64)
        if not dead and not stubs.size:
            return reference_build(n, edges)
    raise RetryExhausted("random-regular", [], max_attempts)


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


def outcome(parse, text: str):
    """What a parser does with text: its graph, or its error's type,
    message and line number."""
    try:
        g = parse(text)
    except Exception as exc:  # compared, never swallowed: see callers
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    return ("graph", g.vertex_count, g.edges.dtype, g.edges.tolist())


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
        g = gen_random_regular(n, d, seed)
        ref = reference_gen_random_regular(n, d, seed)
        assert g.vertex_count == ref.vertex_count
        assert g.edges.dtype == ref.edges.dtype
        assert g.edges.shape == ref.edges.shape
        assert np.array_equal(g.edges, ref.edges)

    def test_regular_dead_ends_restart(self, monkeypatch):
        # (10, 3, 26), also a case above, reaches a dead end five times
        # before a pairing completes (found by scanning seeds with the
        # reference generator).
        verdicts = []

        def spy(placed, stubs, n):
            verdicts.append(has_suitable(placed, stubs, n))
            return verdicts[-1]

        has_suitable = graph_module._has_suitable
        monkeypatch.setattr(graph_module, "_has_suitable", spy)
        assert (gen_random_regular(10, 3, 26).degrees == 3).all()
        assert verdicts.count(False) == 5

    def test_regular_reference_instance_pinned(self):
        # sha256 of the reference generator's edges for the ROADMAP's
        # 400-regular graph on 2000 vertices, gen-seed 7.
        g = gen_random_regular(2000, 400, 7)
        assert g.edges.dtype == np.int64 and g.edges.shape == (400_000, 2)
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
            "3d5d4bd6cfc098b317e5625414bb02f8eed43a858618ed5c42677bd448eda31c")

    def test_regular_retry_exhausted(self, monkeypatch):
        monkeypatch.setattr("trisum.graph.REGULAR_ATTEMPTS", 0)
        with pytest.raises(RetryExhausted):
            gen_random_regular(600, 80, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_degree_identities(n, p, seed):
    g = gen_gnp(n, p, seed)
    for v in range(n):
        assert g.neighbors(v).size == g.degree(v)
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


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))), max_size=30))
    return Graph.build(n, [(u, v) for u, v in pairs if u != v])


def assert_csr_matches_reference(g: Graph) -> None:
    for got, want in zip(g._csr, reference_csr(g), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


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

    def test_written_file_matches_format(self, tmp_path):
        g = gen_gnp(500, 0.6, seed=5)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_bytes() == reference_format_edge_list(g).encode()
        back = load_edge_list(path)
        assert np.array_equal(back.edges, g.edges)
