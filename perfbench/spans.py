"""In-memory span recorder for the traced benchmark run.

A span is opened around each public call the benchmark makes into the
package.  Spans are kept in a list and written out once the run ends, so
recording costs two clock reads and one tuple per call.  The untraced
run uses ``NullTracer``, whose spans do nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.records)
        tr.records.append([self.name, time.perf_counter(), None, parent,
                           tr.workload])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.records[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Records (name, start, end, parent index, workload) per span.

    The module a span belongs to is the part of its name before the
    first dot, e.g. ``chaos.jn_exp_time_mc`` belongs to ``chaos``.
    """

    def __init__(self):
        self.records = []
        self.stack = []
        self.workload = None

    def span(self, name):
        return _Span(self, name)

    def durations(self, name):
        return [r[2] - r[1] for r in self.records if r[0] == name]

    def self_time_by_module(self):
        """Span duration minus the time its child spans cover, summed
        per module.  Children of one span never overlap (one operation
        runs at a time), so their durations add."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.records):
            out[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return dict(out)

    def to_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "workload": w}
            for n, s, e, p, w in self.records
        ]


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    _span = _NullSpan()

    def span(self, name):
        return self._span
