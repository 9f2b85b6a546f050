"""In-memory span recorder for the benchmark's calls into charops.

A span covers one call from a benchmark file into a public charops function.
It is named ``<module>.<function>``, records start and end (perf_counter
seconds), the span that was open when it started, and the op it belongs to.
Spans stay in memory and are written out once, when the run ends.

``NullTracer`` is the untraced twin: it makes the same calls with no
bookkeeping, so end-to-end numbers are measured with tracing off.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    enabled = False
    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # (name, start, end, parent index or -1, op id)
        self.spans = []
        self.counts = defaultdict(int)
        self.op_id = None
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def count(self, name, n=1):
        self.counts[name] += n

    def self_seconds(self, scale):
        """Span self time per name (duration minus the time its children
        cover, times scale(op id)) and span count per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * scale(op_id)
            calls[name] += 1
        return out, calls

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
