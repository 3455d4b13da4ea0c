"""In-memory spans recorded from outside the program, and small statistics.

A span is ``{name, start, end, parent, op}``: ``parent`` is the index of the
span that caused it and ``op`` the identifier every span of one operation
(one pipeline iteration, one request) shares.  Spans are kept in a list while
the benchmark runs and written once, as a Chrome trace-event file, when it
ends.  A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (a union, because the pipelined engine runs
child spans on several threads at once).
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence


def median(values: Iterable[float]) -> float:
    """Median, 0.0 for an empty sample (a layer the workload never entered)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return float(ordered[max(0, min(len(ordered) - 1, rank))])


def timed(func: Callable[[], object]) -> float:
    """Wall seconds of one call (the result is consumed by being returned)."""
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def median_ms(func: Callable[[], object], repeats: int) -> float:
    """Median wall milliseconds of ``repeats`` calls after one warm-up call."""
    func()
    return median(timed(func) for _ in range(repeats)) * 1e3


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Innermost open span of the thread that opened the operation; spans
        #: started on threads with no open span of their own attach to it.
        self._adopt: Optional[int] = None
        self._owner: Optional[int] = None
        self._op: Optional[object] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span under the innermost open span of this thread.

        A thread with no open span (a stage worker of the pipelined engine)
        parents its spans to the innermost span open on the thread that
        started the operation.
        """
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt
        owner = threading.get_ident() == self._owner
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": parent,
            "op": self._op,
            "tid": threading.get_ident(),
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        if owner:
            self._adopt = index
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if owner:
                self._adopt = parent

    @contextmanager
    def operation(self, name: str, op: object) -> Iterator[None]:
        """The root span of one operation, started on the calling thread."""
        self._op = op
        self._owner = threading.get_ident()
        try:
            with self.span(name):
                yield
        finally:
            self._op = self._owner = self._adopt = None

    def add(self, name: str, start: float, end: float, parent: Optional[int], op: object) -> int:
        """Record a span from timestamps taken elsewhere (client-side stamps)."""
        record = {
            "name": name, "start": start, "end": end, "parent": parent,
            "op": op, "tid": threading.get_ident(),
        }
        with self._lock:
            self.spans.append(record)
            return len(self.spans) - 1

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    # -- aggregation ---------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Durations (seconds) of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        children: Dict[int, List[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = _union_length(
                (max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in children.get(index, ())
            )
            own = (span["end"] - span["start"]) - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + max(0.0, own)
        return totals

    def coverage(self, root_name: str) -> float:
        """Share of the ``root_name`` operations' wall that child spans explain."""
        wall = sum(self.durations(root_name))
        if wall <= 0:
            return 0.0
        return 1.0 - self.self_times().get(root_name, 0.0) / wall

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a complete (``ph: X``) Chrome trace event."""
        if not self.spans:
            return
        origin = min(s["start"] for s in self.spans)
        tids = {tid: n for n, tid in enumerate(dict.fromkeys(s["tid"] for s in self.spans))}
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 1,
                "tid": tids[s["tid"]],
                "args": {"op": s["op"], "parent": s["parent"], "span": i},
            }
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _union_length(intervals: Iterable[tuple]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total
