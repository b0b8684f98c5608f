"""Spans and counters recorded from outside lhvsim.

The benchmark times each layer by wrapping the calls it makes into that
layer.  A span has a name, a start and an end, the span that caused it and
the job it belongs to; spans stay in memory and are written out once, when
the benchmark ends.  Counters sit at the same boundaries, so ratios such as
rejection-sampler acceptance are measured where the work happens.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    job: Optional[str]
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one traced run."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, Optional[str]]] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, job: Optional[str] = None):
        sid = next(self._ids)
        parent, parent_job = self._stack[-1] if self._stack else (None, None)
        job = job if job is not None else parent_job
        self._stack.append((sid, job))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, job, start, end))

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": [asdict(s) for s in self.spans], "counters": dict(self.counters)}
        path.write_text(json.dumps(doc) + "\n")


class NullTracer:
    """Tracing off: spans and counters cost one call and record nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, job: Optional[str] = None):
        return self._null

    def count(self, key: str, amount: float = 1.0) -> None:
        pass
