"""Command-line front end: generators, pipeline, verifier, oracle, experiments."""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path

import click

from . import analytic
from .errors import TrisumError
from .graph import Graph, gen_gnp, gen_random_regular, load_edge_list, write_edge_list
from .oracle import check_sweep_args, min_k_weighting, sweep_small_graphs
from .pipeline import run as run_pipeline
from .profiles import check_field_names, resolve_profile
from .weighting import conflicts, load_weighting, write_weighting

EXPERIMENT_COLUMNS = [
    "seed", "status", "stage", "resamples_partition", "resamples_wstage", "wall_ms",
]


def _fail(message: str, code: int = 2):
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    sys.exit(code)


# Click 8.2 and later show the help of a bare `trisum` as a usage error.
_SHOW_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


@contextmanager
def _json_errors():
    """Report a bad input, a bad argument, an unwritable output, a usage
    error (an option value of the wrong type, an unknown option or command,
    a missing input file) or an input too large for memory as one JSON
    error on stderr with exit status 2."""
    try:
        yield
    except _SHOW_HELP:
        raise
    except click.UsageError as exc:
        _fail(exc.format_message())
    except (TrisumError, OSError, ValueError) as exc:
        _fail(str(exc))
    except MemoryError as exc:
        _fail(f"out of memory: {exc}" if str(exc) else "out of memory")


class _JsonErrorGroup(click.Group):
    """A command group whose own and whose commands' errors go through
    `_json_errors`: parsing in `make_context`, the command in `invoke`."""

    def make_context(self, *args, **kwargs):
        with _json_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _json_errors():
            return super().invoke(ctx)


def _check_seeds(option: str, seeds) -> None:
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"{option} must be non-negative, got {seed}")


def _parse_gen(spec: str, seed: int) -> Graph:
    """gnp:n,p or reg:n,d."""
    try:
        kind, args = spec.split(":", 1)
        parts = args.split(",")
        if kind == "gnp":
            n, p = int(parts[0]), float(parts[1])
            return gen_gnp(n, p, seed)
        if kind == "reg":
            n, d = int(parts[0]), int(parts[1])
            return gen_random_regular(n, d, seed)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown generator kind in {spec!r}")


def _load_graph(graph: str | None, gen: str | None, gen_seed: int) -> Graph:
    if (graph is None) == (gen is None):
        raise ValueError("provide exactly one of --graph and --gen")
    if graph is not None:
        return load_edge_list(graph)
    _check_seeds("--gen-seed", [gen_seed])
    return _parse_gen(gen, gen_seed)


def _parse_overrides(pairs: tuple[str, ...]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        check_field_names([key])
        if key in ("m_levels", "modulus_m"):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out


@click.group(cls=_JsonErrorGroup)
def main():
    """Vertex-distinguishing 3-weightings: construction, oracle, verification."""


@main.command()
@click.option("--gen", required=True, help="Generator spec: gnp:n,p or reg:n,d")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(path_type=Path))
def gen(gen: str, seed: int, out: Path):
    """Generate a graph and write it as an edge list."""
    _check_seeds("--seed", [seed])
    g = _parse_gen(gen, seed)
    write_edge_list(g, out)
    click.echo(f"wrote {g.vertex_count} vertices, {g.edge_count} edges to {out}")


@main.command()
@click.option("--graph", type=click.Path(exists=True), default=None)
@click.option("--gen", "gen_spec", default=None, help="Generator spec instead of a file")
@click.option("--gen-seed", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--profile", "profile_spec", default=None,
              help="Builtin name (desk, full-scale) or JSON file [default: desk]")
@click.option("--set", "overrides", multiple=True,
              help="Profile override key=value; repeatable")
@click.option("--out", required=True, help="Output prefix for .weights.txt / .outcome.json")
def weight(graph, gen_spec, gen_seed, seed, profile_spec, overrides, out):
    """Run the full construction; write the weighting only on verified success."""
    _check_seeds("--seed", [seed])
    g = _load_graph(graph, gen_spec, gen_seed)
    profile = resolve_profile(profile_spec, _parse_overrides(overrides))
    with open(f"{out}.outcome.json", "w") as fh:
        outcome = run_pipeline(g, profile, seed)
        fh.write(json.dumps(outcome.to_dict(), indent=2, default=str) + "\n")
    if outcome.success:
        write_weighting(g, outcome.weighting, f"{out}.weights.txt")
        click.echo(f"success: weighting written to {out}.weights.txt")
    else:
        _fail(f"stage {outcome.stage}: {outcome.reason}")


@main.command()
@click.option("--graph", required=True, type=click.Path(exists=True))
@click.option("--weights", required=True, type=click.Path(exists=True))
def verify(graph, weights):
    """Check a (graph, weighting) pair for adjacent equal sums."""
    g = load_edge_list(graph)
    w = load_weighting(g, weights)
    bad = conflicts(g, w)
    report = {
        "edges": g.edge_count,
        "max_weight": int(w.weights.max()) if g.edge_count else 0,
        "conflict_edges": bad.tolist(),
        "ok": not bad.size,
    }
    click.echo(json.dumps(report, indent=2))
    sys.exit(0 if not bad.size else 1)


@main.command()
@click.option("--graph", type=click.Path(exists=True), default=None)
@click.option("--k-max", type=int, default=3, show_default=True)
@click.option("--sweep", is_flag=True, default=False, help="Sweep all small graphs")
@click.option("--n-max", type=int, default=5, show_default=True)
@click.option("--k", type=int, default=3, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="CSV report path for --sweep")
def oracle(graph, k_max, sweep, n_max, k, out):
    """Exact minimum-k search, or a sweep over all small connected graphs."""
    if sweep:
        check_sweep_args(n_max, k)
        with open(out, "w", newline="") if out is not None else nullcontext() as fh:
            report = sweep_small_graphs(n_max, k)
            if fh is not None:
                writer = csv.writer(fh)
                writer.writerow(["graph_id", "n", "m", "min_k"])
                for row in report.rows:
                    writer.writerow([row.graph_id, row.n, row.m,
                                     row.min_k if row.min_k is not None else ""])
        click.echo(json.dumps({
            "checked": report.total_checked,
            "counterexamples": [r.graph_id for r in report.counterexamples],
        }))
        sys.exit(0 if not report.counterexamples else 1)
    if graph is None:
        raise ValueError("provide --graph or --sweep")
    result = min_k_weighting(load_edge_list(graph), k_max)
    click.echo(json.dumps({
        "min_k": result.min_k,
        "nodes_explored": result.nodes_explored,
    }))


@main.command()
@click.option("--grid", type=int, default=9, show_default=True,
              help="Number of r-table points")
def constants(grid):
    """Print the analytic constants report as JSON."""
    click.echo(json.dumps(analytic.constants_report(grid), indent=2))


def _experiment_task(args: tuple) -> dict:
    g, profile, seed = args
    outcome = run_pipeline(g, profile, seed)
    return {
        "seed": seed,
        "status": outcome.status,
        "stage": outcome.stage or "",
        "resamples_partition": outcome.stats.get("resamples_partition", 0),
        "resamples_wstage": outcome.stats.get("resamples_wstage", 0),
        "wall_ms": round(outcome.stats.get("wall_ms", 0.0), 3),
    }


@main.command()
@click.option("--graph", type=click.Path(exists=True), default=None)
@click.option("--gen", "gen_spec", default=None)
@click.option("--gen-seed", type=int, default=0, show_default=True)
@click.option("--seeds", default="0,1,2,3,4,5,6,7,8,9",
              show_default=True, help="Comma-separated distinct run seeds")
@click.option("--profile", "profile_spec", default=None)
@click.option("--set", "overrides", multiple=True)
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--jobs", type=int, default=1, show_default=True)
def experiment(graph, gen_spec, gen_seed, seeds, profile_spec, overrides, out, jobs):
    """Fan the pipeline out over seeds and aggregate results into CSV."""
    try:
        seed_list = [int(s) for s in seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ValueError(f"seeds must be integers, got {seeds!r}") from None
    if len(set(seed_list)) != len(seed_list):
        raise ValueError("seeds must be distinct")
    _check_seeds("--seeds", seed_list)
    g = _load_graph(graph, gen_spec, gen_seed)
    profile = resolve_profile(profile_spec, _parse_overrides(overrides))
    tasks = [(g, profile, seed) for seed in seed_list]
    with open(out, "w", newline="") as fh:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_experiment_task, tasks))
        else:
            rows = [_experiment_task(t) for t in tasks]
        writer = csv.DictWriter(fh, fieldnames=EXPERIMENT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    successes = sum(1 for r in rows if r["status"] == "success")
    click.echo(json.dumps({
        "runs": len(rows),
        "successes": successes,
        "success_rate": successes / len(rows) if rows else 0.0,
        "csv": str(out),
    }))


if __name__ == "__main__":
    main()
