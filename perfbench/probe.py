"""Spans and counters recorded around the benchmark's calls into arnnlab.

A :class:`Probe` wraps each call the benchmark makes into one of arnnlab's
public functions.  Untraced, it only forwards the call.  Traced, it keeps a
span per call in memory (layer, name, start, end, parent span, operation id)
and the per-layer figures are derived from those spans when the run ends.
Counters (``count``) are kept in both modes because they cost one dict
update and the end-to-end figures need some of them.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter

#: Layers are arnnlab's modules.  ``microcode`` is reached only through
#: ``compilers`` and ``errors`` does no work, so neither is a layer.
LAYERS = ("network", "exact", "compilers", "langcodec", "degrees", "formats", "spikes", "cli")


class Probe:
    """Forwards calls; when ``traced``, records one span per call."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: list[tuple] = []  # (id, layer, name, start, end, parent, op)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.failures: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.op_id: object = "setup"

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the slot so ids follow start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, layer, name, start, end, parent, self.op_id)

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one operation (traced runs only)."""
        self.op_id = op_id
        if self.traced:
            self._stack.append(len(self.spans))
            self.spans.append(None)
            self._op_start = perf_counter()

    def end_op(self) -> None:
        if self.traced:
            span_id = self._stack.pop()
            self.spans[span_id] = (
                span_id, "bench", "op", self._op_start, perf_counter(), None, self.op_id
            )

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def fail(self, layer: str) -> None:
        self.failures[layer] += 1

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "layer", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: span durations minus the time their children cover.

    Children of one span never overlap (one caller), so the covered time is
    the sum of the children's durations.
    """
    child_time: defaultdict[int, float] = defaultdict(float)
    for span in spans:
        if span[5] is not None:
            child_time[span[5]] += span[4] - span[3]
    out: defaultdict[str, float] = defaultdict(float)
    for span in spans:
        out[span[1]] += (span[4] - span[3]) - child_time[span[0]]
    return out


def percentile(latencies: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile ``q`` and the number of samples beyond it."""
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, max(0, math.ceil(len(ordered) * q / 100) - 1))
    return ordered[index], len(ordered) - 1 - index
