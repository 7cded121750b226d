"""In-memory span recorder for the traced pass.

A span is one call into a layer: name (``<layer>.<what>_s``), start,
end, the span that caused it (its parent on the same thread) and the
run id. Spans are kept in memory and written out as Chrome trace-event
JSON when the pass ends. Calls too fine-grained to record one by one
(``read_into`` per buffer, ``get_field_buffer`` per key) are timed with
``perf_counter`` by the caller and folded into the enclosing span with
:meth:`Tracer.add` — a named child *aggregate* with a count.

Self time of a span = its duration minus its child spans and
aggregates. The main thread's self times are the run's blocking path:
they sum, with the root's own self time (``bench.unattributed_s``), to
the traced wall. Spans on other threads (I/O workers) are busy time
*beside* the wait they cause, and are reported as such.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

ROOT = "bench.run"


class _Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "children_s",
                 "aggregates")

    def __init__(self, name: str, start: float,
                 parent: Optional["_Span"], tid: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.children_s = 0.0
        #: name -> [seconds, count] of calls folded in by Tracer.add.
        self.aggregates: Dict[str, List[float]] = {}


class Tracer:
    """Records spans per thread; one instance per traced run."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[_Span] = []
        self._stack = threading.local()
        self._main = threading.get_ident()

    def _open_spans(self) -> List[_Span]:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._open_spans()
        span = _Span(name, time.perf_counter(),
                     stack[-1] if stack else None, threading.get_ident())
        self.spans.append(span)          # list.append is atomic
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.children_s += span.end - span.start

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold ``count`` calls totalling ``seconds`` into the current
        span as a child aggregate called ``name``."""
        stack = self._open_spans()
        if not stack:
            raise RuntimeError("Tracer.add outside any span")
        span = stack[-1]
        entry = span.aggregates.setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += count
        span.children_s += seconds

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name totals, split by where the time was spent.

        ``blocking``: self seconds on the main thread (the root's own
        self time is ``bench.unattributed_s``); ``busy``: self seconds
        on every other thread; ``inclusive``: whole durations, children
        included, over all threads; ``counts``: calls per name;
        ``wall_s``: the root span's duration.
        """
        blocking: Dict[str, float] = {}
        busy: Dict[str, float] = {}
        inclusive: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        wall = 0.0
        for span in self.spans:
            where = blocking if span.tid == self._main else busy
            duration = span.end - span.start
            if span.name == ROOT:
                wall = duration
                name = "bench.unattributed_s"
            else:
                name = span.name
            where[name] = where.get(name, 0.0) + duration - span.children_s
            inclusive[name] = inclusive.get(name, 0.0) + duration
            counts[name] = counts.get(name, 0) + 1
            for child, (seconds, count) in span.aggregates.items():
                where[child] = where.get(child, 0.0) + seconds
                inclusive[child] = inclusive.get(child, 0.0) + seconds
                counts[child] = counts.get(child, 0) + count
        inclusive["bench.unattributed_s"] = blocking.get(
            "bench.unattributed_s", 0.0)
        return {"wall_s": wall, "blocking": blocking, "busy": busy,
                "inclusive": inclusive, "counts": counts}

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (``ph: X``)."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        ids = {id(span): index for index, span in enumerate(self.spans)}
        events = []
        for index, span in enumerate(self.spans):
            parent = None if span.parent is None else ids[id(span.parent)]
            args = {"id": index, "parent": parent, "run": self.run_id}
            for child, (seconds, count) in span.aggregates.items():
                args[child] = {"seconds": seconds, "count": count}
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": span.tid,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": args,
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


class NullTracer:
    """The untraced runs' tracer: every call is a no-op."""

    enabled = False

    def __init__(self) -> None:
        self._nothing = nullcontext()

    def span(self, name: str):
        return self._nothing

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        pass
