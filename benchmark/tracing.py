"""In-memory spans recorded around calls into trisum's layers.

The program is not edited: `Tracer.patched` swaps the module attributes
that `trisum.pipeline` and `trisum.oracle` look up at call time for
wrappers that open a span, and restores them on exit. Spans are kept in
a list and written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Stand-in for untimed layers: spans cost one context manager each."""

    def span(self, name: str, unit: str | None = None):
        return nullcontext({})


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, unit: str | None = None):
        """Open a span; `unit` names the operation or set-up it belongs to."""
        parent = self._stack[-1] if self._stack else None
        if unit is None and parent is not None:
            unit = self.spans[parent]["unit"]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "unit": unit,
               "start": perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, targets):
        """Wrap `module.attr` for each (module, attr, span name, count fn).

        `count(result)` returns a dict of counts stored on the span.
        """
        saved = []
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["counts"].update(count(result, kwargs))
                return result
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- derived quantities ------------------------------------------------

    def duration(self, rec: dict) -> float:
        return rec["end"] - rec["start"]

    def children(self) -> dict[int, list[dict]]:
        kids: dict[int, list[dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                kids.setdefault(rec["parent"], []).append(rec)
        return kids

    def self_time(self, rec: dict, kids: dict[int, list[dict]]) -> float:
        return self.duration(rec) - sum(self.duration(k) for k in kids.get(rec["id"], []))

    def check_nesting(self) -> list[str]:
        """Children lie inside their parent and do not overlap each other."""
        problems = []
        for pid, kids in self.children().items():
            parent = self.spans[pid]
            end = parent["start"]
            for k in kids:
                if k["start"] < end or k["end"] > parent["end"]:
                    problems.append(f"span {k['id']} {k['name']} escapes or overlaps in {pid}")
                end = k["end"]
            if self.self_time(parent, {pid: kids}) < 0.0:
                problems.append(f"span {pid} {parent['name']} has negative self time")
        return problems

    def per_unit(self, units: list[str], value) -> list[float]:
        """For each unit, the sum of `value(rec, kids)` over its spans."""
        kids = self.children()
        totals = {u: 0.0 for u in units}
        for rec in self.spans:
            if rec["unit"] in totals:
                totals[rec["unit"]] += value(rec, kids)
        return [totals[u] for u in units]

    def median_per_unit(self, units: list[str], value) -> float:
        return statistics.median(self.per_unit(units, value)) if units else 0.0

    def mean_per_unit(self, units: list[str], value) -> float:
        return statistics.fmean(self.per_unit(units, value)) if units else 0.0
