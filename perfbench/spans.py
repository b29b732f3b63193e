"""In-memory timing spans recorded around the benchmark's own calls into qpigeon.

A span holds its name, start and end (``perf_counter_ns``), the index of the
span open when it started (its parent) and the op id it belongs to.  Spans are
only kept in memory while the benchmark runs and written out once at the end.
The untraced run uses ``Untraced``, whose ``call`` is a plain function call.
"""

import json
import time
from contextlib import contextmanager, nullcontext


class Untraced:
    """Same interface as ``Tracer``; records nothing."""

    def call(self, name, fn, *args, work=None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, work=None):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None

    @contextmanager
    def span(self, name, work=None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter_ns(), "end": None,
                  "parent": parent, "op": self.op, "work": work}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name, fn, *args, work=None, **kwargs):
        with self.span(name, work):
            return fn(*args, **kwargs)

    def self_times(self):
        """Map span name -> list of (self ns, work): duration minus direct children."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s, children in zip(self.spans, child_ns):
            out.setdefault(s["name"], []).append((s["end"] - s["start"] - children, s["work"]))
        return out

    def write(self, path):
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s) + "\n")
