"""In-memory spans and counts recorded around calls into the package."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Spans as (name, start, end, parent index) plus named counters.

    Spans nest by call order: a span opened while another is open names it
    as parent. Nothing is written until :meth:`dump`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, *names: str) -> float:
        """Summed duration of every span carrying one of ``names``."""
        wanted = set(names)
        return sum((end - start for name, start, end, _ in self.spans if name in wanted), 0.0)

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh)
