"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start_ns, end_ns, parent, count]``: ``parent`` is the
index of the enclosing span in the same list (-1 for a root) and ``count``
is an optional amount of work measured at the boundary (records, bytes,
samples), or ``None``.  Spans are only opened by the benchmark's own files,
around calls into the package's public functions; nothing inside the
package is instrumented.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded list's last slot takes a count."""
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1, None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record[2] = time.perf_counter_ns()

    def wrap(self, fn, count=None):
        """``fn`` with a span named ``<module>.<function>`` around each call.

        ``count(result, args)`` gives the span's work count.
        """
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[4] = count(result, args)
                return result

        return traced

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another process, re-basing parents."""
        offset = len(self.spans)
        for name, start, end, parent, count in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, count])

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed count.

    Self time is a span's duration minus the durations of its direct
    children, which are nested inside it and never overlap each other.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _, count), inner in zip(spans, child_ns):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) * 1e-9
        entry["self_s"] += (end - start - inner) * 1e-9
        entry["count"] += count or 0
    return out
