"""In-memory spans recorded around the benchmark's calls into the package.

A span holds its name, start and end (``perf_counter_ns``), the index of the
span that was open when it started, and the query id it served (``None``
during set-up).  Spans stay in a list until the run ends; ``write_jsonl``
dumps them.  Self time is a span's duration minus the time its child spans
cover; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root
    query: str | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class NoTrace:
    """Calls straight through; used by every timed run."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per ``call``; nested calls become child spans."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.query: str | None = None
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        slot = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(slot)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[slot] = Span(name, start, end, parent, self.query)

    def self_times_ns(self) -> list[int]:
        own = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration_ns
        return own

    def by_name(self, queries_only: bool) -> dict[str, list[tuple[Span, int]]]:
        """(span, self time) per span name, for query spans or set-up spans."""
        grouped: dict[str, list[tuple[Span, int]]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_times_ns()):
            if (span.query is not None) == queries_only:
                grouped[span.name].append((span, own))
        return grouped

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "parent": s.parent,
                            "query": s.query,
                        }
                    )
                    + "\n"
                )
