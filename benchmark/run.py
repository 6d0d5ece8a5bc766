#!/usr/bin/env python3
"""Benchmark of trisum's construction, reference-instance runs and oracle sweep.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload bip_weight --seed 1 --seconds 15 --trace 0

Workloads are bip_weight, ref_experiment and oracle_sweep (README.md says
what each one exercises and why). The seed fixes every generated input.
Set-up is repeated SETUP_REPEATS times; operations then run in whole
rounds until --seconds have passed. Every output is checked by
benchmark/checks.py, which shares no code with trisum.

--trace 0 reports the end-to-end metrics. --trace 1 runs every operation
twice, untraced and then traced, and reports per-layer metrics from spans
recorded around calls into trisum's public functions. --small shrinks the
inputs so that the benchmark's own tests run in seconds.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_out"

SETUP_REPEATS = 3

# Input sizes. The bipartite size cannot shrink in the reduced mode: the
# desk profile needs min degree >= 30 ln(max degree), which a 1:3
# bipartite graph meets only from about 400 x 1200 at p = 0.7.
FULL = {
    "bip": (400, 1200, 0.7), "bip_graphs": 2,
    "gnp": (1500, 0.5, 42), "reg": (2000, 400, 7),
    "oracle_n": 6, "oracle_sample": 50,
}
SMALL = {
    "bip": (400, 1200, 0.7), "bip_graphs": 1,
    "gnp": (500, 0.5, 42), "reg": (500, 180, 7),
    "oracle_n": 5, "oracle_sample": 20,
}
BRUTE_MAX_EDGES = 9


def import_trisum():
    """Import trisum from this checkout's sources, never from elsewhere."""
    if not (SRC / "trisum" / "__init__.py").is_file():
        sys.exit(f"benchmark: no trisum sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import trisum

    return trisum


def op_seed(seed: int, j: int) -> int:
    return int(np.random.default_rng([seed, 1, j]).integers(2**31))


@dataclass
class Op:
    """Result of one operation: phase times, the timed main call, outcome
    identity, and the reason it failed (None when it did not)."""

    times: dict[str, float]
    main_s: float
    fingerprint: str | None
    error: str | None


class Workload:
    """Set-up, rounds of operations and checks for one workload."""

    def __init__(self, trisum, size: dict, seed: int, checks):
        self.t = trisum
        self.size = size
        self.seed = seed
        self.checks = checks
        self.report: dict = {}

    def span_call(self, tracer, name: str, fn, *args):
        with tracer.span(name):
            return fn(*args)


class BipWeight(Workload):
    """`trisum weight` then `trisum verify` on 1:3 random bipartite graphs."""

    def setup(self, tracer) -> None:
        a, b, p = self.size["bip"]
        self.graphs, self.paths = [], []
        for gi in range(self.size["bip_graphs"]):
            mask = np.random.default_rng([self.seed, 0, gi]).random((a, b)) < p
            left, right = np.nonzero(mask)   # row-major, so already sorted
            edges = np.stack([left, right + a], axis=1).astype(np.int64)
            g = self.t.Graph(vertex_count=a + b, edges=edges)
            path = WORK / f"bip{gi}.edges"
            self.span_call(tracer, "graph.write", self.t.write_edge_list, g, path)
            with tracer.span("graph.csr"):
                g.degrees
                g.neighbors(0)
            self.graphs.append(g)
            self.paths.append(path)

    def check_setup(self) -> None:
        self.report["graphs"] = []
        for g in self.graphs:
            self.checks.check_simple(g.vertex_count, g.edges)
            lo, hi, needed = self.checks.degree_regime(
                g.vertex_count, g.edges, self.t.DESK.min_delta_ratio, 0.0)
            self.report["graphs"].append(
                {"n": g.vertex_count, "m": g.edge_count, "min_degree": lo,
                 "max_degree": hi, "regime_floor": round(needed, 1)})
        self.report["verified_weightings"] = 0

    def round(self, r: int) -> list:
        count = self.size["bip_graphs"]
        return [(gi, op_seed(self.seed, r * count + gi)) for gi in range(count)]

    def op(self, spec, tracer) -> Op:
        gi, seed = spec
        g, path = self.graphs[gi], self.paths[gi]
        wpath = WORK / "bip.weights"
        t0 = perf_counter()
        out = self.span_call(tracer, "pipeline.run", self.t.run, g, self.t.DESK, seed)
        t1 = perf_counter()
        if not out.success:
            return Op({}, t1 - t0, None, f"seed {seed}: {out.stage}: {out.reason}")
        self.span_call(tracer, "weighting.format", self.t.weighting.write_weighting,
                       g, out.weighting, wpath)
        t2 = perf_counter()
        g2 = self.span_call(tracer, "graph.parse", self.t.load_edge_list, path)
        w2 = self.span_call(tracer, "weighting.parse", self.t.weighting.load_weighting, g2, wpath)
        bad = self.span_call(tracer, "weighting.conflicts", self.t.conflicts, g2, w2)
        t3 = perf_counter()
        times = {"op_s": t3 - t0, "run_s": t1 - t0, "export_s": t2 - t1, "verify_s": t3 - t2}
        sums = self.checks.check_weighting(g.vertex_count, g.edges, out.weighting.weights)
        if not np.array_equal(sums, out.s3):
            return Op(times, t1 - t0, None, f"seed {seed}: reported sums differ from recount")
        if g2.vertex_count != g.vertex_count or not np.array_equal(g2.edges, g.edges):
            return Op(times, t1 - t0, None, f"seed {seed}: reloaded graph differs")
        if not np.array_equal(w2.weights, out.weighting.weights):
            return Op(times, t1 - t0, None, f"seed {seed}: reloaded weighting differs")
        if bad.size:
            return Op(times, t1 - t0, None, f"seed {seed}: verify finds {bad.size} conflicts")
        self.report["verified_weightings"] += 1
        return Op(times, t1 - t0, out.fingerprint(), None)


class RefExperiment(Workload):
    """One experiment row, run(g, DESK, seed), on each ROADMAP reference instance."""

    def setup(self, tracer) -> None:
        n, p, gseed = self.size["gnp"]
        rn, rd, rseed = self.size["reg"]
        gnp = self.span_call(tracer, "graph.gen", self.t.gen_gnp, n, p, gseed)
        reg = self.span_call(tracer, "graph.gen", self.t.gen_random_regular, rn, rd, rseed)
        with tracer.span("graph.csr"):
            for g in (gnp, reg):
                g.degrees
                g.neighbors(0)
        self.instances = [gnp, reg]

    def check_setup(self) -> None:
        gnp, reg = self.instances
        n, p, _ = self.size["gnp"]
        rn, rd, _ = self.size["reg"]
        if gnp.vertex_count != n or reg.vertex_count != rn:
            raise self.checks.CheckFailed("reference instance has the wrong vertex count")
        self.checks.check_simple(n, gnp.edges)
        self.checks.check_gnp_edge_count(n, p, gnp.edge_count)
        self.checks.check_regular(rn, reg.edges, rd)
        desk = self.t.DESK
        floor = max(1.0 / desk.eps_u, 1.0 / (desk.eps_fw * desk.p_u),
                    1.0 / (desk.eps_fu * (1.0 - desk.p_fw) * desk.p_u))
        self.report["instances"] = []
        for g in self.instances:
            lo, hi, needed = self.checks.degree_regime(
                g.vertex_count, g.edges, desk.min_delta_ratio, floor)
            self.report["instances"].append(
                {"n": g.vertex_count, "m": g.edge_count, "min_degree": lo,
                 "max_degree": hi, "regime_floor": round(needed, 1)})
        self.report["stages"] = {}
        self.report["attempts"] = 0

    def round(self, r: int) -> list:
        return [(0, op_seed(self.seed, 2 * r)), (1, op_seed(self.seed, 2 * r + 1))]

    def op(self, spec, tracer) -> Op:
        gi, seed = spec
        g = self.instances[gi]
        t0 = perf_counter()
        out = self.span_call(tracer, "pipeline.run", self.t.run, g, self.t.DESK, seed)
        dt = perf_counter() - t0
        stage = "success" if out.success else str(out.stage)
        self.report["stages"][stage] = self.report["stages"].get(stage, 0) + 1
        self.report["attempts"] += out.stats.get("restarts", 0) + 1
        where = f"instance {gi} seed {seed}"
        if out.success:
            sums = self.checks.check_weighting(g.vertex_count, g.edges, out.weighting.weights)
            if not np.array_equal(sums, out.s3):
                return Op({}, dt, None, f"{where}: reported sums differ from recount")
        elif not out.stage or not out.reason or out.weighting is not None or out.s3 is not None:
            return Op({}, dt, None, f"{where}: malformed failure {out.to_dict()}")
        elif out.stage in ("precheck", "verify"):
            return Op({}, dt, None, f"{where}: failed at {out.stage}: {out.reason}")
        return Op({"op_s": dt, "run_s": dt}, dt, out.fingerprint(), None)


class OracleSweep(Workload):
    """sweep_small_graphs over every connected labelled graph on 3..n vertices."""

    def setup(self, tracer) -> None:
        # Warm-up: the same code paths on one vertex fewer.
        self.span_call(tracer, "oracle.warmup", self.t.sweep_small_graphs,
                       self.size["oracle_n"] - 1, 3, False)

    def check_setup(self) -> None:
        counts = self.checks.connected_labelled_counts(self.size["oracle_n"])
        self.report["expected_graphs"] = sum(c for n, c in counts.items() if n >= 3)
        self.report["brute_force_checked"] = 0

    def round(self, r: int) -> list:
        return [r]

    def op(self, spec, tracer) -> Op:
        n_max = self.size["oracle_n"]
        t0 = perf_counter()
        rep = self.span_call(tracer, "oracle.sweep", self.t.sweep_small_graphs, n_max, 3)
        dt = perf_counter() - t0
        times = {"op_s": dt, "run_s": dt, "oracle_graphs_per_s": rep.total_checked / dt}
        self.checks.check_sweep(n_max, rep.total_checked, [row.n for row in rep.rows],
                                len(rep.counterexamples))
        if any(row.min_k not in (1, 2, 3) for row in rep.rows):
            return Op(times, dt, None, "a swept graph has no min k in 1..3")
        small = [row for row in rep.rows if row.m <= BRUTE_MAX_EDGES]
        rng = np.random.default_rng([self.seed, 2, spec])
        for i in rng.choice(len(small), size=self.size["oracle_sample"], replace=False):
            row = small[int(i)]
            edges = self.checks.graph_from_mask(row.n, row.graph_id)
            if edges.shape[0] != row.m or not self.checks.is_connected(row.n, edges):
                return Op(times, dt, None, f"graph {row.graph_id} on {row.n} mislabelled")
            want = self.checks.brute_min_k(row.n, edges, 3)
            if want != row.min_k:
                return Op(times, dt, None,
                          f"graph {row.graph_id} on {row.n}: min k {row.min_k}, brute force {want}")
            self.report["brute_force_checked"] += 1
        sample = [(row.graph_id, row.min_k) for row in rep.rows[::97]]
        ident = json.dumps([rep.total_checked, sample])
        return Op(times, dt, ident, None)


WORKLOADS = {"bip_weight": BipWeight, "ref_experiment": RefExperiment,
             "oracle_sweep": OracleSweep}

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def trace_targets(trisum) -> list:
    """(module, attribute, span name, counts) for every wrapped public function."""
    pipe = trisum.pipeline
    return [
        (pipe, "sample_partition", "partition.sample",
         lambda res, kw: {"resamples": kw["stats"].resampled}),
        (pipe, "audit_partition", "partition.audit", None),
        (pipe, "resample_w_stage", "wstage.resample",
         lambda res, kw: {"resamples": res.resampled}),
        (pipe, "choose_sum_additions", "wstage.additions", None),
        (pipe, "apply_additions", "wstage.apply", None),
        (pipe, "build_estar", "ustage.estar", None),
        (pipe, "estar_bounds_hold", "ustage.estar_bounds", None),
        (pipe, "finalize_u", "ustage.finalize", None),
        (pipe, "final_verify", "ustage.verify", None),
        (trisum.oracle, "min_k_weighting", "oracle.search",
         lambda res, kw: {"nodes": res.nodes_explored}),
    ]


def layer_metrics(tracer, setups: list[str], ops: list[str], overhead: list[float]) -> dict:
    """Per-layer metrics: medians of seconds per set-up or per operation,
    means of counts per operation."""

    def span_time(name):
        return lambda rec, kids: tracer.duration(rec) if rec["name"] == name else 0.0

    def self_time(name):
        return lambda rec, kids: tracer.self_time(rec, kids) if rec["name"] == name else 0.0

    def span_count(name):
        return lambda rec, kids: 1.0 if rec["name"] == name else 0.0

    def counter(name, key):
        return lambda rec, kids: rec["counts"].get(key, 0) if rec["name"] == name else 0.0

    m = {
        "graph.gen_s": tracer.median_per_unit(setups, span_time("graph.gen")),
        "graph.csr_s": tracer.median_per_unit(setups, span_time("graph.csr")),
        "graph.write_s": tracer.median_per_unit(setups, span_time("graph.write")),
        "graph.parse_s": tracer.median_per_unit(ops, span_time("graph.parse")),
        "pipeline.self_s": tracer.median_per_unit(ops, self_time("pipeline.run")),
        "pipeline.attempts": tracer.mean_per_unit(ops, span_count("partition.sample")),
        "partition.resamples": tracer.mean_per_unit(ops, counter("partition.sample", "resamples")),
        "wstage.resamples": tracer.mean_per_unit(ops, counter("wstage.resample", "resamples")),
        "oracle.calls": tracer.mean_per_unit(ops, span_count("oracle.search")),
        "oracle.nodes": tracer.mean_per_unit(ops, counter("oracle.search", "nodes")),
        "oracle.enumerate_s": tracer.median_per_unit(ops, self_time("oracle.sweep")),
        "trace.overhead_s": statistics.median(overhead) if overhead else 0.0,
    }
    for name in ("partition.sample", "partition.audit", "wstage.resample", "wstage.additions",
                 "wstage.apply", "ustage.estar", "ustage.estar_bounds", "ustage.finalize",
                 "ustage.verify", "weighting.format", "weighting.parse", "weighting.conflicts",
                 "oracle.search"):
        m[name + "_s"] = tracer.median_per_unit(ops, span_time(name))
    return m


LAYER_UNITS = {"pipeline.attempts": "count", "partition.resamples": "count",
               "wstage.resamples": "count", "oracle.calls": "count", "oracle.nodes": "count"}


def machine() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": np.__version__,
             "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for key in ("LEVEL1_DCACHE", "LEVEL2_CACHE", "LEVEL3_CACHE"):
        try:
            facts[key.lower() + "_bytes"] = os.sysconf("SC_" + key + "_SIZE")
        except (ValueError, OSError):
            pass
    return facts


def measure(wl: Workload, args, tracer) -> tuple[dict, dict]:
    """Set up, run rounds for args.seconds, and return (metrics, accounting)."""
    from tracing import NullTracer

    plain = NullTracer()
    setup_times, setups = [], []
    for i in range(SETUP_REPEATS):
        unit = f"setup{i}"
        t0 = perf_counter()
        with tracer.span("setup", unit=unit):
            wl.setup(tracer)
        setup_times.append(perf_counter() - t0)
        setups.append(unit)
    wl.check_setup()

    attempted, errors, phases, ops, overhead = 0, [], {}, [], []
    first = None

    def attempt(spec, traced: bool) -> Op:
        nonlocal attempted
        attempted += 1
        try:
            if not traced:
                op = wl.op(spec, plain)
            else:
                unit = f"op{attempted}"
                with tracer.patched(trace_targets(wl.t)), tracer.span("op", unit=unit):
                    op = wl.op(spec, tracer)
                ops.append(unit)
        except Exception:
            # run() raising, or a check rejecting an output, fails the operation.
            op = Op({}, 0.0, None, traceback.format_exc(limit=4))
        if op.error:
            errors.append(op.error)
        return op

    def untraced(spec) -> Op:
        op = attempt(spec, False)
        if op.error is None:
            for key, value in op.times.items():
                phases.setdefault(key, []).append(value)
        return op

    t_start = perf_counter()
    r = 0
    while True:
        for i, spec in enumerate(wl.round(r)):
            # Traced runs alternate which copy of an operation goes first.
            traced_first = args.trace and (r + i) % 2 == 1
            traced = attempt(spec, True) if traced_first else None
            op = untraced(spec)
            if first is None:
                first = (spec, op)
            if args.trace:
                traced = traced or attempt(spec, True)
                overhead.append(traced.main_s - op.main_s)
                if op.error is None and traced.fingerprint != op.fingerprint:
                    errors.append(f"traced and untraced outcomes differ for {spec}")
        r += 1
        if perf_counter() - t_start >= args.seconds:
            break
    if not args.trace and isinstance(wl, BipWeight) and first[1].error is None:
        # Same graph and seed again: the weights must be identical.
        again = untraced(first[0])
        if again.error is None and again.fingerprint != first[1].fingerprint:
            errors.append(f"repeated {first[0]} gave a different outcome")

    accounting = {"attempted": attempted, "failed": len(errors), "errors": errors[:5],
                  "rounds": r, "setup_times_s": setup_times, **wl.report}
    if args.trace:
        problems = tracer.check_nesting()
        if problems:
            raise RuntimeError("span nesting: " + "; ".join(problems[:3]))
        metrics = layer_metrics(tracer, setups, ops, overhead)
        units = {k: LAYER_UNITS.get(k, "s") for k in metrics}
    else:
        if "op_s" not in phases:
            raise RuntimeError("no operation succeeded: " + errors[0])
        metrics = {"setup_s": statistics.median(setup_times),
                   "op_s": statistics.median(phases["op_s"]),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = dict(END_TO_END)
        accounting["phases"] = {k: {"median": statistics.median(v), "samples": len(v)}
                                for k, v in phases.items()}
        accounting["op_times_s"] = [round(v, 4) for v in phases["op_s"]]
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, accounting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs for quick tests")
    args = ap.parse_args(argv)

    trisum = import_trisum()
    sys.path.insert(0, str(HERE))
    import checks
    from tracing import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    wl = WORKLOADS[args.workload](trisum, SMALL if args.small else FULL, args.seed, checks)
    WORK.mkdir(exist_ok=True)
    correct = True
    try:
        checks.self_test()
        metrics, accounting = measure(wl, args, tracer)
    except (checks.CheckFailed, RuntimeError) as exc:
        # A checker that accepts a planted fault, a wrong set-up or a broken
        # trace: report and give no metrics.
        print(f"check failed: {exc}", file=sys.stderr)
        correct, metrics, accounting = False, {}, {"attempted": 1, "failed": 0}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        tracer.write(SPANS / f"{args.workload}-seed{args.seed}.spans.jsonl")

    print("machine " + json.dumps(machine()))
    print("accounting " + json.dumps(accounting, default=str))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, ph in accounting.get("phases", {}).items():
        print(f"phase {name} = {ph['median']:.6g} (median of {ph['samples']})")
    print(json.dumps({"correct": correct, "attempted": accounting["attempted"],
                      "failed": accounting["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
