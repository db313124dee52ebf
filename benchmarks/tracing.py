"""Spans and small statistics helpers for the sectorpack benchmark.

A span records one call into a library module: its name, start and end
(``perf_counter_ns``), the span that was open when it started, and a trace
identifier shared by the spans of one request (for example, one sector of
the sweep grid).  Spans stay in memory and are written out once, when the
run ends, so writing them costs nothing inside the timed region.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace=None, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "trace": trace,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start_ns"] = perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = perf_counter_ns()
            self._open.pop()

    def seconds(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``, in seconds."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e9
            for s in self.spans
            if s["name"] == name and "end_ns" in s
        ]

    def per_item(self, name: str) -> list[float]:
        """Seconds per item for each ``name`` span that carries ``items``."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e9 / s["items"]
            for s in self.spans
            if s["name"] == name and "end_ns" in s
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """Stands in for Tracer in untraced runs; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, trace=None, **attrs):
        return self._null


NULL_TRACER = NullTracer()


def percentile(values, pct: int) -> float:
    """The pct-th percentile (inclusive method); needs at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
