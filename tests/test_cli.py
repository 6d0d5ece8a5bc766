import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import graph as graph_module
from trisum.cli import EXPERIMENT_COLUMNS, main
from trisum.graph import Graph, format_edge_list, gen_gnp, load_edge_list
from trisum.weighting import EdgeWeighting, format_weighting


@pytest.fixture
def runner():
    return CliRunner()


def write_k3(tmp_path):
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "k3.txt"
    path.write_text(format_edge_list(g))
    return g, path


class TestConstants:
    def test_report(self, runner):
        result = runner.invoke(main, ["constants", "--grid", "5"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert 0.023 < data["dbar_closed_form"] < 0.024
        assert abs(data["dbar_closed_form"] - data["dbar_quadrature"]) < 1e-9
        assert len(data["r_table"]) == 5
        assert data["a1"] < data["a2"] < 1.9


class TestGen:
    def test_gnp_round_trip(self, runner, tmp_path):
        out = tmp_path / "g.txt"
        result = runner.invoke(
            main, ["gen", "--gen", "gnp:30,0.4", "--seed", "3", "--out", str(out)]
        )
        assert result.exit_code == 0
        g = load_edge_list(out)
        assert g.vertex_count == 30

    def test_gen_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            runner.invoke(
                main, ["gen", "--gen", "reg:20,4", "--seed", "5", "--out", str(out)]
            )
        assert a.read_text() == b.read_text()

    def test_bad_spec(self, runner, tmp_path):
        result = runner.invoke(
            main, ["gen", "--gen", "tree:5", "--out", str(tmp_path / "x.txt")]
        )
        assert result.exit_code != 0


class TestVerify:
    def test_valid_weighting_exits_zero(self, runner, tmp_path):
        g, gpath = write_k3(tmp_path)
        w = EdgeWeighting(weights=np.array([1, 3, 2]), max_weight=3)
        wpath = tmp_path / "w.txt"
        wpath.write_text(format_weighting(g, w))
        result = runner.invoke(
            main, ["verify", "--graph", str(gpath), "--weights", str(wpath)]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["ok"] is True

    def test_conflicting_weighting_exits_one(self, runner, tmp_path):
        g, gpath = write_k3(tmp_path)
        w = EdgeWeighting(weights=np.array([1, 1, 1]), max_weight=3)
        wpath = tmp_path / "w.txt"
        wpath.write_text(format_weighting(g, w))
        result = runner.invoke(
            main, ["verify", "--graph", str(gpath), "--weights", str(wpath)]
        )
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["conflict_edges"] == [0, 1, 2]

    @pytest.mark.parametrize("text, message", [
        ("0 1 7\n1 2 9\n", "weight 7 outside [1, 3]"),
        ("0 1 0\n1 2 1\n", "weight 0 outside [1, 3]"),
        ("0 1 x\n1 2 1\n", "non-integer value"),
    ])
    def test_malformed_weights_give_json_error(self, runner, tmp_path, text, message):
        # out-of-range weights on P3 must not verify as ok
        gpath = tmp_path / "p3.txt"
        gpath.write_text(format_edge_list(Graph.build(3, [(0, 1), (1, 2)])))
        wpath = tmp_path / "w.txt"
        wpath.write_text(text)
        result = runner.invoke(
            main, ["verify", "--graph", str(gpath), "--weights", str(wpath)]
        )
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"].startswith("line 1: ")
        assert message in err["error"]
        assert '"ok"' not in result.stdout


    @pytest.mark.parametrize("graph, weights, message", [
        ("0 99999999999999999999\n", "0 99999999999999999999 1\n",
         "a vertex id does not fit in int64; ids must be below MAX_VERTICES = 10"),
        ("0 10\n", "0 10 1\n", "vertex id 10 is not below MAX_VERTICES = 10"),
        ("# vertices: 11\n0 1\n", "0 1 1\n", "vertex count 11 is above MAX_VERTICES = 10"),
    ])
    def test_vertex_bound_gives_json_error(self, runner, tmp_path, monkeypatch,
                                           graph, weights, message):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        gpath, wpath = tmp_path / "g.txt", tmp_path / "w.txt"
        gpath.write_text(graph)
        wpath.write_text(weights)
        result = runner.invoke(
            main, ["verify", "--graph", str(gpath), "--weights", str(wpath)]
        )
        assert_structured(result)
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == message


class TestOracleCommand:
    def test_min_k(self, runner, tmp_path):
        g = Graph.build(3, [(0, 1), (1, 2)])
        path = tmp_path / "p3.txt"
        path.write_text(format_edge_list(g))
        result = runner.invoke(
            main, ["oracle", "--graph", str(path), "--k-max", "3"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["min_k"] == 1

    def test_malformed_graph_gives_json_error(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 2 3\n")
        result = runner.invoke(main, ["oracle", "--graph", str(path)])
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"].startswith("line 2: ")

    def test_graph_above_edge_bound_gives_json_error(self, runner, tmp_path):
        path = tmp_path / "g60.txt"
        path.write_text(format_edge_list(gen_gnp(60, 0.9, 1)))
        result = runner.invoke(main, ["oracle", "--graph", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"].startswith("graph has 1595 edges; the exact search takes at most ")

    def test_sweep_csv(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main, ["oracle", "--sweep", "--n-max", "4", "--k", "3",
                   "--out", str(out)]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["checked"] == 42
        assert payload["counterexamples"] == []
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 42
        assert set(rows[0]) == {"graph_id", "n", "m", "min_k"}


class TestWeightCommand:
    def test_failure_writes_outcome_and_error_json(self, runner, tmp_path):
        # a single edge fails the precheck; stderr carries machine-readable
        # JSON and the outcome file is still written
        g = Graph.build(2, [(0, 1)])
        gpath = tmp_path / "k2.txt"
        gpath.write_text(format_edge_list(g))
        result = runner.invoke(
            main,
            ["weight", "--graph", str(gpath), "--seed", "1",
             "--out", str(tmp_path / "run")],
        )
        assert result.exit_code != 0
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert "error" in err
        outcome = json.loads((tmp_path / "run.outcome.json").read_text())
        assert outcome["status"] == "failure"
        assert outcome["stage"] == "precheck"

    def test_unknown_profile_field_gives_json_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["weight", "--gen", "gnp:30,0.5", "--set", "bogus=1",
             "--out", str(tmp_path / "run")],
        )
        assert json_error(result) == "unknown profile fields: bogus"
        path = tmp_path / "bogus.json"
        path.write_text('{"bogus": 1}')
        result = runner.invoke(
            main,
            ["weight", "--gen", "gnp:30,0.5", "--profile", str(path),
             "--out", str(tmp_path / "run")],
        )
        assert json_error(result) == "unknown profile fields: bogus"

    def test_success_writes_verified_weighting(self, runner, tmp_path):
        # crafted profile tolerant enough that some small instance succeeds
        # end to end is not guaranteed; instead assert the contract that a
        # written weighting always verifies
        result = runner.invoke(
            main,
            ["weight", "--gen", "reg:600,80", "--gen-seed", "2", "--seed", "0",
             "--set", "p_u=0.3", "--set", "eps_u=0.15", "--set", "p_fw=0.5",
             "--set", "eps_fw=0.3", "--set", "m_levels=4", "--set", "eps_fu=0.45",
             "--set", "frac_nu=1.0", "--set", "eps_loc=0.26",
             "--set", "eps_len=0.5", "--set", "min_delta_ratio=0",
             "--out", str(tmp_path / "run")],
        )
        outcome = json.loads((tmp_path / "run.outcome.json").read_text())
        weights_path = tmp_path / "run.weights.txt"
        if outcome["status"] == "success":
            from trisum.graph import gen_random_regular
            from trisum.weighting import conflicts, load_weighting

            assert result.exit_code == 0
            g = gen_random_regular(600, 80, seed=2)
            w = load_weighting(g, weights_path)
            assert conflicts(g, w).size == 0
        else:
            assert result.exit_code != 0
            assert not weights_path.exists()


def json_error(result) -> str:
    """The message of the JSON error a command wrote to stderr."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    return json.loads(result.stderr.strip().splitlines()[-1])["error"]


class TestExperiment:
    def test_csv_contract(self, runner, tmp_path):
        out = tmp_path / "runs.csv"
        result = runner.invoke(
            main,
            ["experiment", "--gen", "reg:600,80", "--gen-seed", "2",
             "--seeds", "0,1,2",
             "--set", "p_u=0.3", "--set", "eps_u=0.15", "--set", "p_fw=0.5",
             "--set", "eps_fw=0.3", "--set", "m_levels=4", "--set", "eps_fu=0.45",
             "--set", "eps_loc=0.26", "--set", "eps_len=0.5",
             "--set", "min_delta_ratio=0",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            assert reader.fieldnames == EXPERIMENT_COLUMNS
        assert len(rows) == 3
        assert [r["seed"] for r in rows] == ["0", "1", "2"]
        for r in rows:
            assert r["status"] in ("success", "failure")
            assert float(r["wall_ms"]) >= 0

    def test_duplicate_seeds_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["experiment", "--gen", "gnp:30,0.5", "--seeds", "1,1",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize("seeds", ["a,b", "1,x", "1.5"])
    def test_non_integer_seeds_rejected(self, runner, tmp_path, seeds):
        result = runner.invoke(
            main,
            ["experiment", "--gen", "gnp:30,0.5", "--seeds", seeds,
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "seeds must be integers" in result.output

    def test_malformed_graph_gives_json_error(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 2 3\n")
        result = runner.invoke(
            main,
            ["experiment", "--graph", str(path), "--seeds", "0",
             "--out", str(tmp_path / "x.csv")],
        )
        assert json_error(result).startswith("line 2: ")
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_profile_field_gives_json_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["experiment", "--gen", "gnp:30,0.5", "--set", "bogus=1",
             "--out", str(tmp_path / "x.csv")],
        )
        assert json_error(result) == "unknown profile fields: bogus"


class TestStructuredErrors:
    """Bad arguments and unwritable outputs end in one JSON error, exit 2."""

    @pytest.mark.parametrize("args", [
        ["gen", "--gen", "gnp:10,0.5"],
        ["weight", "--gen", "gnp:10,0.5"],
        ["experiment", "--gen", "gnp:10,0.5", "--seeds", "0"],
        ["oracle", "--sweep", "--n-max", "3"],
    ], ids=["gen", "weight", "experiment", "oracle-sweep"])
    def test_unwritable_out(self, runner, args):
        result = runner.invoke(main, args + ["--out", "/nonexistent/x"])
        assert "No such file or directory" in json_error(result)

    @pytest.mark.parametrize("args, target", [
        (["weight", "--gen", "gnp:10,0.5"], "run_pipeline"),
        (["experiment", "--gen", "gnp:10,0.5", "--seeds", "0"], "run_pipeline"),
        (["oracle", "--sweep", "--n-max", "3"], "sweep_small_graphs"),
    ], ids=["weight", "experiment", "oracle-sweep"])
    def test_out_opened_before_work(self, runner, monkeypatch, args, target):
        calls = []
        monkeypatch.setattr(f"trisum.cli.{target}", lambda *a: calls.append(a))
        result = runner.invoke(main, args + ["--out", "/nonexistent/d/x"])
        assert "No such file or directory" in json_error(result)
        assert calls == []

    @pytest.mark.parametrize("args, message", [
        (["weight", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["weight", "--gen-seed", "-3"], "--gen-seed must be non-negative, got -3"),
        (["experiment", "--seeds", "1,-2"], "--seeds must be non-negative, got -2"),
        (["gen", "--seed", "-1"], "--seed must be non-negative, got -1"),
    ], ids=["weight-seed", "weight-gen-seed", "experiment-seeds", "gen-seed"])
    def test_negative_seed_names_option(self, runner, tmp_path, monkeypatch,
                                        args, message):
        calls = []
        monkeypatch.setattr("trisum.cli.run_pipeline", lambda *a: calls.append(a))
        result = runner.invoke(main, args[:1] + ["--gen", "gnp:40,0.9"] + args[1:]
                               + ["--out", str(tmp_path / "x")])
        assert json_error(result) == message
        assert calls == []
        assert not (tmp_path / "x").exists()

    def test_reserved_residues_not_settable(self, runner, tmp_path):
        result = runner.invoke(main, ["weight", "--gen", "gnp:40,0.9",
                                      "--set", "reserved_residues=0,1",
                                      "--out", str(tmp_path / "run")])
        assert json_error(result) == "unknown profile fields: reserved_residues"

    @pytest.mark.parametrize("spec, n", [("gnp:11,0.5", 11), ("reg:12,4", 12)])
    def test_generator_above_max_vertices(self, runner, tmp_path, monkeypatch, spec, n):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        result = runner.invoke(main, ["gen", "--gen", spec,
                                      "--out", str(tmp_path / "g.txt")])
        assert json_error(result).endswith(f"n = {n} is above MAX_VERTICES = 10")
        assert not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 400. TiB"),
         "out of memory: Unable to allocate 400. TiB"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_is_one_json_error(self, runner, tmp_path, monkeypatch,
                                            exc, message):
        def too_big(*args):
            raise exc

        monkeypatch.setattr("trisum.cli.gen_gnp", too_big)
        result = runner.invoke(main, ["gen", "--gen", "gnp:10000000,0.5",
                                      "--out", str(tmp_path / "g.txt")])
        assert json_error(result) == message
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("text", ["# vertices: -5\n", "# vertices: -5\n0 1\n"],
                             ids=["hint-only", "hint-with-edges"])
    def test_negative_vertex_hint(self, runner, tmp_path, text):
        gpath, wpath = tmp_path / "g.txt", tmp_path / "w.txt"
        gpath.write_text(text)
        wpath.write_text("0 1 1\n")
        result = runner.invoke(
            main, ["verify", "--graph", str(gpath), "--weights", str(wpath)]
        )
        assert json_error(result) == "line 1: bad vertex-count hint"
        assert len(result.stderr.strip().splitlines()) == 1

    def test_sweep_n_max_above_budget(self, runner):
        result = runner.invoke(main, ["oracle", "--sweep", "--n-max", "9"])
        assert json_error(result).startswith("n_max above 8")

    def test_sweep_k_zero(self, runner):
        result = runner.invoke(main, ["oracle", "--sweep", "--k", "0"])
        assert json_error(result) == "k_max must be at least 1"

    def test_sweep_n_max_below_three(self, runner):
        result = runner.invoke(main, ["oracle", "--sweep", "--n-max", "2"])
        assert json_error(result) == "n_max below 3 checks no graph, got 2"
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [
        ["--k", "0"], ["--n-max", "9"], ["--n-max", "2"], ["--n-max", "-5"],
    ], ids=["k-zero", "n-max-nine", "n-max-two", "n-max-negative"])
    def test_bad_sweep_args_leave_no_out_file(self, runner, tmp_path, args):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["oracle", "--sweep", *args, "--out", str(out)])
        json_error(result)
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()

    def test_negative_grid(self, runner):
        result = runner.invoke(main, ["constants", "--grid", "-1"])
        assert "-1" in json_error(result)

    @pytest.mark.parametrize("args, message", [
        (["gen", "--gen", "gnp:5,0.5", "--seed", "abc", "--out", "z.txt"],
         "Invalid value for '--seed': 'abc' is not a valid integer."),
        (["gen", "--gen", "gnp:5,0.5", "--bogus", "--out", "z.txt"],
         "No such option '--bogus'"),
        (["--bogus", "gen"], "No such option '--bogus'."),
        (["nosuch"], "No such command 'nosuch'."),
        (["gen", "--out", "z.txt"], "Missing option '--gen'."),
        (["verify", "--graph", "/nonexistent", "--weights", "/nonexistent"],
         "Invalid value for '--graph': Path '/nonexistent' does not exist."),
    ], ids=["wrong-type", "unknown-option", "unknown-group-option",
            "unknown-command", "missing-option", "missing-file"])
    def test_usage_error_is_json(self, runner, args, message):
        with runner.isolated_filesystem():
            result = runner.invoke(main, args)
            assert not Path("z.txt").exists()
        assert_structured(result)
        assert json_error(result).startswith(message)
        assert "Usage:" not in result.output

    @pytest.mark.parametrize("args", [[], ["--help"], ["gen", "--help"]],
                             ids=["bare", "help", "gen-help"])
    def test_help_stays_text(self, runner, args):
        # a bare `trisum` exits 0 before click 8.2 and 2 from then on
        result = runner.invoke(main, args)
        assert result.output.startswith("Usage:")
        assert result.exit_code == 0 or not args


# Exit-code properties: every generated input ends in exit 0, exit 1 with
# the conflicts (verify) or exit 2 with one JSON object on stderr.

_token = st.one_of(
    st.integers(-1, 7).map(str),
    st.sampled_from(["x", "1.5", "+2", "#", "# vertices: 9", "# vertices: x"]),
)
_line = st.lists(_token, min_size=0, max_size=4).map(" ".join)


@st.composite
def _graph_case(draw, n: int = 7):
    """(edge-list text, edges) on vertices below n: sparse or near-complete,
    sometimes with one random, often malformed, line inserted."""
    every = [(u, v) for u in range(n) for v in range(u + 1, n)]
    dropped = draw(st.sets(st.sampled_from(every), max_size=len(every)))
    if draw(st.booleans()):
        dropped = set(every) - dropped
    edges = [e for e in every if e not in dropped]
    lines = [f"{u} {v}" for u, v in draw(st.permutations(edges))]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_line))
    return "".join(line + "\n" for line in lines), edges


@st.composite
def _weighting_text(draw, edges):
    """Weights 1..3 on every edge, sometimes one of them out of range,
    missing, repeated or followed by a random line."""
    rows = [[u, v, draw(st.integers(1, 3))] for u, v in edges]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["range", "missing", "repeat", "line"]))
        if fault == "range":
            rows[i][2] = draw(st.sampled_from([0, 4, 7]))
        elif fault == "missing":
            del rows[i]
        elif fault == "repeat":
            rows.append([rows[i][1], rows[i][0], draw(st.integers(1, 3))])
        else:
            rows.append(draw(_line).split())
    return "".join(" ".join(map(str, r)) + "\n" for r in draw(st.permutations(rows)))


def assert_structured(result, verify: bool = False) -> None:
    """exit 0, exit 1 with a conflict list (verify only), or exit 2 with
    exactly one JSON object on stderr; never a traceback."""
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exception
    )
    if result.exit_code in (0, 1) and verify:
        report = json.loads(result.stdout)
        assert report["ok"] is (result.exit_code == 0)
        assert bool(report["conflict_edges"]) is (result.exit_code == 1)
        return
    if result.exit_code == 0:
        return
    assert result.exit_code == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, result.stderr
    assert isinstance(json.loads(lines[0])["error"], str)


def _files(directory: str, **texts: str) -> dict[str, str]:
    paths = {}
    for name, text in texts.items():
        path = Path(directory) / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


# Profile overrides: a loose set that lets runs on 7 vertices pass the
# precheck and reach the later stages, or a few single ones, some invalid.
_LOOSE = ["min_delta_ratio=0", "eps_u=0.45", "p_fw=0.5", "eps_fw=1",
          "eps_fu=1", "eps_len=0.5", "eps_loc=0.5"]
_overrides = st.one_of(
    st.just(_LOOSE),
    st.lists(st.sampled_from(_LOOSE + [
        "p_u=2", "m_levels=x", "bogus=1", "p_u", "modulus_m=3",
    ]), max_size=3),
)


class TestExitCodeProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_verify(self, data):
        graph_text, edges = data.draw(_graph_case())
        weights_text = data.draw(_weighting_text(edges))
        with tempfile.TemporaryDirectory() as tmp:
            paths = _files(tmp, graph=graph_text, weights=weights_text)
            result = CliRunner().invoke(
                main, ["verify", "--graph", paths["graph"], "--weights", paths["weights"]]
            )
        assert_structured(result, verify=True)

    @settings(max_examples=30, deadline=None)
    @given(_graph_case(), st.integers(-2, 2**64), _overrides)
    def test_weight(self, graph, seed, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            paths = _files(tmp, graph=graph[0])
            args = ["weight", "--graph", paths["graph"], "--seed", str(seed),
                    "--out", str(Path(tmp) / "run")]
            for pair in overrides:
                args += ["--set", pair]
            result = CliRunner().invoke(main, args)
        assert_structured(result)

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(_graph_case().map(lambda c: ("--graph", c[0])), st.sampled_from([
            "gnp:7,0.9", "gnp:-1,0.5", "gnp:5,2", "reg:7,4", "reg:5,3", "reg:4,4",
            "gnp:5", "tree:4",
        ]).map(lambda spec: ("--gen", spec))),
        st.one_of(
            st.lists(st.integers(-2, 9), max_size=3).map(lambda s: ",".join(map(str, s))),
            st.text("0123456789,-x. ", max_size=8),
        ),
        _overrides,
        st.booleans(),
    )
    def test_experiment(self, source, seeds, overrides, writable):
        with tempfile.TemporaryDirectory() as tmp:
            kind, value = source
            if kind == "--graph":
                value = _files(tmp, graph=value)["graph"]
            out = Path(tmp) / "runs.csv" if writable else Path(tmp) / "missing" / "runs.csv"
            args = ["experiment", kind, value, "--seeds", seeds, "--out", str(out)]
            for pair in overrides:
                args += ["--set", pair]
            result = CliRunner().invoke(main, args)
        assert_structured(result)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["gnp:7,0.9", "reg:6,3", "reg:5,3", "gnp:x"]),
        st.one_of(st.integers(-2, 99).map(str), st.text("0123456789-x.", max_size=4)),
        st.sampled_from([[], ["--bogus"], ["--out"], ["extra"]]),
    )
    def test_gen(self, spec, seed, extra):
        with tempfile.TemporaryDirectory() as tmp:
            args = ["gen", "--gen", spec, "--seed", seed, "--out", str(Path(tmp) / "g.txt")]
            result = CliRunner().invoke(main, args + extra)
        assert_structured(result)

    @settings(max_examples=40, deadline=None)
    @given(_graph_case(n=6), st.integers(-1, 4))
    def test_oracle_graph(self, graph, k_max):
        # six vertices keep the exact search at sweep size
        with tempfile.TemporaryDirectory() as tmp:
            paths = _files(tmp, graph=graph[0])
            result = CliRunner().invoke(
                main, ["oracle", "--graph", paths["graph"], "--k-max", str(k_max)]
            )
        assert_structured(result)
