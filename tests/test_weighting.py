import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blow_up_is_locally_irregular
from trisum import blockio
from trisum.errors import WeightingCoverageError
from trisum.graph import MAX_VERTICES, Graph, gen_gnp
from trisum.weighting import (
    EdgeWeighting,
    conflicts,
    format_weighting,
    load_weighting,
    parse_weighting,
    weighted_degrees,
    write_weighting,
)


def reference_parse_weighting(g: Graph, text: str, max_weight: int = 3) -> EdgeWeighting:
    """The line-by-line parser with a pair dict that the block reader
    replaced: the oracle for its results and for its error messages."""
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


def reference_format_weighting(g: Graph, weighting: EdgeWeighting) -> str:
    w = weighting.weights
    lines = [f"{u} {v} {w[e]}" for e, (u, v) in enumerate(g.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


def weighting_outcome(g: Graph, text: str, parse, max_weight: int = 3):
    """A parser's weights, or its error's type and message."""
    try:
        w = parse(g, text, max_weight)
    except Exception as exc:  # compared, never swallowed: see callers
        return ("error", type(exc), str(exc))
    return ("weights", w.max_weight, w.weights.dtype, w.weights.tolist())


def weighting_by_pairs(g: Graph, mapping: dict, max_weight: int = 3) -> EdgeWeighting:
    w = np.zeros(g.edge_count, dtype=np.int64)
    for e, (u, v) in enumerate(g.edges):
        w[e] = mapping[(int(u), int(v))]
    return EdgeWeighting(weights=w, max_weight=max_weight)


def naive_sums(g: Graph, w: EdgeWeighting) -> list[int]:
    sums = [0] * g.vertex_count
    for e, (u, v) in enumerate(g.edges):
        sums[u] += int(w.weights[e])
        sums[v] += int(w.weights[e])
    return sums


class TestWeightedDegrees:
    def test_k3_hand_sum(self, k3):
        w = weighting_by_pairs(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
        assert weighted_degrees(k3, w).tolist() == [4, 3, 5]

    def test_all_ones_gives_degrees(self):
        g = gen_gnp(20, 0.4, seed=2)
        w = EdgeWeighting(weights=np.ones(g.edge_count, dtype=np.int64), max_weight=1)
        assert np.array_equal(weighted_degrees(g, w), g.degrees)

    def test_p3(self, p3):
        w = weighting_by_pairs(p3, {(0, 1): 1, (1, 2): 2})
        assert weighted_degrees(p3, w).tolist() == [1, 3, 2]

    def test_coverage_error(self, k3):
        with pytest.raises(WeightingCoverageError):
            weighted_degrees(k3, np.ones(2, dtype=np.int64))


class TestConflicts:
    def test_single_edge_always_conflicts(self, k2):
        for wt in (1, 2, 3):
            w = EdgeWeighting(weights=np.array([wt]), max_weight=3)
            assert conflicts(k2, w).tolist() == [0]

    def test_k3_123_clean(self, k3):
        w = weighting_by_pairs(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
        assert conflicts(k3, w).tolist() == []

    def test_c4_all_ones_all_conflict(self, c4):
        w = EdgeWeighting(weights=np.ones(4, dtype=np.int64), max_weight=1)
        assert conflicts(c4, w).tolist() == [0, 1, 2, 3]

    def test_result_sorted(self):
        g = gen_gnp(15, 0.5, seed=9)
        w = EdgeWeighting(weights=np.ones(g.edge_count, dtype=np.int64), max_weight=1)
        out = conflicts(g, w)
        assert np.array_equal(out, np.sort(out))


class TestBlowUp:
    def test_k3_123_irregular(self, k3):
        w = weighting_by_pairs(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
        assert blow_up_is_locally_irregular(k3, w)

    def test_single_edge_weight3_not(self, k2):
        w = EdgeWeighting(weights=np.array([3]), max_weight=3)
        assert not blow_up_is_locally_irregular(k2, w)

    def test_c4_1122(self, c4):
        # cycle order 01, 12, 23, 30 weighted 1, 1, 2, 2
        w = weighting_by_pairs(c4, {(0, 1): 1, (1, 2): 1, (2, 3): 2, (0, 3): 2})
        assert weighted_degrees(c4, w).tolist() == [3, 2, 3, 4]
        assert blow_up_is_locally_irregular(c4, w)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10_000), st.data())
def test_equivalence_and_naive_match(n, seed, data):
    g = gen_gnp(n, 0.5, seed)
    if g.edge_count == 0:
        return
    weights = np.asarray(
        data.draw(
            st.lists(st.integers(1, 3), min_size=g.edge_count, max_size=g.edge_count)
        ),
        dtype=np.int64,
    )
    w = EdgeWeighting(weights=weights, max_weight=3)
    assert weighted_degrees(g, w).tolist() == naive_sums(g, w)
    assert blow_up_is_locally_irregular(g, w) == (conflicts(g, w).size == 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 16), st.integers(0, 10_000), st.data())
def test_monotone_shift(n, seed, data):
    g = gen_gnp(n, 0.6, seed)
    if g.edge_count == 0:
        return
    weights = np.ones(g.edge_count, dtype=np.int64)
    e = data.draw(st.integers(0, g.edge_count - 1))
    before = weighted_degrees(g, EdgeWeighting(weights, 3))
    bumped = weights.copy()
    bumped[e] += 1
    after = weighted_degrees(g, EdgeWeighting(bumped, 3))
    diff = after - before
    u, v = g.edges[e]
    assert diff[u] == 1 and diff[v] == 1
    assert diff.sum() == 2


class TestSerialization:
    def test_round_trip(self, k3):
        w = weighting_by_pairs(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3})
        text = format_weighting(k3, w)
        back = parse_weighting(k3, text)
        assert np.array_equal(back.weights, w.weights)

    def test_missing_edge_rejected(self, k3):
        with pytest.raises(WeightingCoverageError):
            parse_weighting(k3, "0 1 1\n1 2 2\n")

    def test_non_edge_rejected(self, p3):
        with pytest.raises(WeightingCoverageError):
            parse_weighting(p3, "0 1 1\n1 2 1\n0 2 1\n")

    def test_weight_range_is_max_weight(self, p3):
        with pytest.raises(WeightingCoverageError, match="line 2: weight 4"):
            parse_weighting(p3, "0 1 1\n1 2 4\n")
        assert parse_weighting(p3, "0 1 1\n1 2 4\n", max_weight=4).max_weight == 4

    def test_weight_bounds_enforced(self):
        with pytest.raises(ValueError):
            EdgeWeighting(weights=np.array([0]), max_weight=3)
        with pytest.raises(ValueError):
            EdgeWeighting(weights=np.array([4]), max_weight=3)


@st.composite
def weighted_graphs(draw):
    g = gen_gnp(draw(st.integers(0, 9)), draw(st.floats(0.0, 1.0)), draw(st.integers(0, 1000)))
    weights = draw(st.lists(st.integers(1, 3), min_size=g.edge_count, max_size=g.edge_count))
    return g, EdgeWeighting(weights=np.array(weights, dtype=np.int64), max_weight=3)


_SEP = st.sampled_from([" ", "  ", "\t"])
# Malformed lines, and lines in unusual whitespace, digits or syntax.
_ODD_FIELDS = st.sampled_from([
    "0 1", "0 1 2 3", "a 1 1", "0 1 x", "0 1 1.5", "0 1 0", "0 1 4", "0 1 -1",
    "0 0 1", "-1 2 1", "0 9 1", f"0 {2**70} 1", f"0 1 {2**70}", "0 1 1 # c",
    "+0 1 +1", "0 1 \u0663", "0\xa01 1", "0\x0c1 1 1", "0\x1f1 1", "0 1\x1e1 1",
    "0\x1f1 2 3", "0 1\x0c1", "0\x1c1 1", "0 1\x1d1", "0 1\x0b1",
])


@st.composite
def weighting_texts(draw):
    """A graph and a weighting text for it: its edges in any order and
    orientation, some repeated or left out, among comments, blanks and
    malformed lines."""
    g, weighting = draw(weighted_graphs())
    rows = []
    for e in draw(st.permutations(range(g.edge_count))):
        u, v = g.edges[e].tolist()
        if draw(st.booleans()):
            u, v = v, u
        wt = int(weighting.weights[e])
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2]))):
            shown = draw(st.sampled_from([wt, wt, 1, 2, 3]))
            rows.append(f"{u}{draw(_SEP)}{v}{draw(_SEP)}{draw(st.sampled_from(['', '+']))}{shown}")
    for _ in range(draw(st.integers(0, 4))):
        noise = draw(st.one_of(_ODD_FIELDS, st.sampled_from(["", "  ", "# note", "\t# x"])))
        rows.insert(draw(st.integers(0, len(rows))), noise)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return g, end.join(rows) + draw(st.sampled_from(["", end]))


class TestParseWeightingAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(weighting_texts(), st.sampled_from([None, 1, 9, 40]), st.sampled_from([2, 3, 4]))
    def test_same_result_or_error(self, case, block_chars, max_weight):
        g, text = case
        with pytest.MonkeyPatch.context() as mp:
            if block_chars is not None:
                mp.setattr(blockio, "BLOCK_CHARS", block_chars)
            got = weighting_outcome(g, text, parse_weighting, max_weight)
        assert got == weighting_outcome(g, text, reference_parse_weighting, max_weight)

    def test_first_error_in_second_block(self):
        g = gen_gnp(500, 0.6, seed=2)
        w = EdgeWeighting(weights=(np.arange(g.edge_count) % 3 + 1), max_weight=3)
        lines = format_weighting(g, w).splitlines()
        assert len("\n".join(lines[:60_000])) > blockio.BLOCK_CHARS
        u, v, wt = lines[10].split()
        lines.insert(60_000, f"{v} {u} {int(wt) % 3 + 1}")
        lines.insert(65_000, "0 1 9")
        text = "\n".join(lines)
        got = weighting_outcome(g, text, parse_weighting)
        assert got == ("error", WeightingCoverageError,
                       f"line 60001: conflicting weight for ({u}, {v})")
        assert got == weighting_outcome(g, text, reference_parse_weighting)

    def test_missing_edge_after_many_blocks(self):
        g = gen_gnp(500, 0.6, seed=2)
        w = EdgeWeighting(weights=np.full(g.edge_count, 2), max_weight=3)
        lines = format_weighting(g, w).splitlines()
        del lines[70_000]
        text = "\n".join(lines)
        assert weighting_outcome(g, text, parse_weighting) == (
            "error", WeightingCoverageError, "no weight given for edge id 70000")

    def test_values_beyond_int64(self, p3):
        for text in (f"0 1 1\n1 {2**70} 1\n", f"0 1 {2**70}\n", f"{-2**70} 1 1\n"):
            assert weighting_outcome(p3, text, parse_weighting) == weighting_outcome(
                p3, text, reference_parse_weighting)

    def test_vertex_ids_up_to_max_vertices(self):
        top = MAX_VERTICES - 1
        g = Graph.build(0, [(0, top), (1, top)])
        text = f"{top} 0 2\n1 {top} 3\n"
        assert parse_weighting(g, text).weights.tolist() == [2, 3]
        with pytest.raises(ValueError, match=f"MAX_VERTICES = {MAX_VERTICES}"):
            Graph.build(0, [(0, top + 1)])
        assert weighting_outcome(g, "0 1 1\n", parse_weighting) == (
            "error", WeightingCoverageError, "line 1: (0, 1) is not an edge")


class TestWeightingRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs())
    def test_format_parse_round_trip(self, case):
        g, w = case
        text = format_weighting(g, w)
        assert text == reference_format_weighting(g, w)
        back = parse_weighting(g, text)
        assert back.weights.dtype == w.weights.dtype
        assert np.array_equal(back.weights, w.weights)

    def test_written_file_matches_format(self, tmp_path):
        g = gen_gnp(500, 0.6, seed=4)
        w = EdgeWeighting(weights=np.random.default_rng(4).integers(1, 4, g.edge_count),
                          max_weight=3)
        path = tmp_path / "w.txt"
        write_weighting(g, w, path)
        assert path.read_bytes() == reference_format_weighting(g, w).encode()
        assert np.array_equal(load_weighting(g, path).weights, w.weights)
