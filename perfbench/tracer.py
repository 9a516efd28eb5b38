"""perfbench's own in-memory tracer.

Spans are recorded from the benchmark's side of each call into vitex (spans
inside ``src/`` are a later change): name, start, end, the span that was
open when it began, and the workload/run it belongs to.  Nothing is written
until the run ends.  A span's *self time* is its duration minus the part
its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        #: name, start, end, parent index (-1 for a root span)
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index``; returns its duration."""
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._open.remove(index)
        return span[2] - span[1]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------ reading

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals

    def dump(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        origin = self.spans[0][1] if self.spans else 0.0
        payload: Dict[str, Any] = {
            "workload": self.workload,
            "run": self.run_id,
            "self_time_s": self.self_times(),
            "counts": self.counts,
            "spans": [
                {
                    "id": index,
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "parent": parent if parent >= 0 else None,
                }
                for index, (name, start, end, parent) in enumerate(self.spans)
            ],
        }
        if extra:
            payload.update(extra)
        return payload
