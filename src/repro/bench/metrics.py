"""Measurement utilities: wall-clock timers, peak memory, engine-state meters.

The paper reports three kinds of numbers; each has a meter here:

* elapsed seconds (total and SAX-parsing-only) → :class:`Timer` and
  :func:`time_parse_only` / :func:`time_evaluation`;
* memory requirement ("stable at 1 MB") → :func:`measure_peak_memory`
  (tracemalloc-based) and the engine's own ``peak_stack_entries`` /
  ``peak_candidate_count`` counters, which are allocation-independent;
* throughput (MB/s) derived from the above.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from ..core.engine import TwigMEvaluator
from ..core.results import ResultSet
from ..xmlstream.reader import TextSource
from ..xmlstream.sax import event_batches


@dataclass
class Timer:
    """A simple accumulating wall-clock timer."""

    elapsed: float = 0.0
    _started: Optional[float] = field(default=None, repr=False)

    def start(self) -> None:
        """Start (or restart) the timer."""
        self._started = time.perf_counter()

    def stop(self) -> float:
        """Stop the timer, accumulate and return the last lap."""
        if self._started is None:
            raise RuntimeError("timer was not started")
        lap = time.perf_counter() - self._started
        self.elapsed += lap
        self._started = None
        return lap

    @contextmanager
    def measure(self) -> Iterator["Timer"]:
        """Context manager form: ``with timer.measure(): ...``."""
        self.start()
        try:
            yield self
        finally:
            self.stop()


@contextmanager
def stopwatch() -> Iterator[Callable[[], float]]:
    """Context manager yielding a callable that returns the elapsed seconds."""
    start = time.perf_counter()
    elapsed = {"value": 0.0}

    def read() -> float:
        return elapsed["value"] if elapsed["value"] else time.perf_counter() - start

    try:
        yield read
    finally:
        elapsed["value"] = time.perf_counter() - start


@dataclass
class MemoryReport:
    """Peak memory observed while running a workload."""

    #: Peak bytes allocated during the run as seen by tracemalloc.
    peak_bytes: int
    #: Bytes allocated and still live at the end of the run.
    retained_bytes: int

    @property
    def peak_megabytes(self) -> float:
        """Peak allocation in MiB."""
        return self.peak_bytes / (1024 * 1024)


def measure_peak_memory(action: Callable[[], object]) -> Tuple[object, MemoryReport]:
    """Run ``action`` under tracemalloc and report its peak allocation."""
    tracemalloc.start()
    try:
        baseline_current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = action()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, MemoryReport(
        peak_bytes=max(0, peak - baseline_current),
        retained_bytes=max(0, current - baseline_current),
    )


@dataclass
class RunMeasurement:
    """Full measurement of one (query, document) evaluation."""

    query: str
    dataset: str
    #: Seconds spent producing and consuming SAX events without any query work.
    parse_seconds: float
    #: Seconds for the full evaluation (parsing + TwigM).
    total_seconds: float
    #: Document size in bytes (UTF-8).
    document_bytes: int
    #: Number of solutions found.
    solutions: int
    #: Engine counters (peak stack entries, pushes, ...).
    engine_counters: Dict[str, int] = field(default_factory=dict)
    #: Peak memory of the evaluation phase, when measured.
    peak_memory_bytes: Optional[int] = None

    @property
    def query_seconds(self) -> float:
        """Time attributable to the TwigM machine itself (total - parse)."""
        return max(0.0, self.total_seconds - self.parse_seconds)

    @property
    def throughput_mb_per_s(self) -> float:
        """End-to-end throughput in MB/s."""
        if self.total_seconds <= 0:
            return float("inf")
        return (self.document_bytes / (1024 * 1024)) / self.total_seconds

    def as_row(self) -> Dict[str, object]:
        """Flatten into a report-table row."""
        row: Dict[str, object] = {
            "dataset": self.dataset,
            "query": self.query,
            "doc_mb": round(self.document_bytes / (1024 * 1024), 3),
            "parse_s": round(self.parse_seconds, 4),
            "total_s": round(self.total_seconds, 4),
            "twigm_s": round(self.query_seconds, 4),
            "solutions": self.solutions,
            "throughput_mb_s": round(self.throughput_mb_per_s, 2),
        }
        if self.peak_memory_bytes is not None:
            row["peak_mem_mb"] = round(self.peak_memory_bytes / (1024 * 1024), 3)
        for key in ("peak_stack_entries", "peak_candidate_count", "pushes", "pops"):
            if key in self.engine_counters:
                row[key] = self.engine_counters[key]
        return row


def document_byte_size(chunks: Iterable[str]) -> int:
    """UTF-8 size of a document supplied as text chunks (without storing it)."""
    return sum(len(chunk.encode("utf-8")) for chunk in chunks)


def time_parse_only(source: TextSource, parser: str = "native") -> Tuple[float, int]:
    """Time a pure parsing pass (no query); returns (seconds, event count).

    Consumes event *batches* rather than a per-event generator so the number
    reflects tokenizer throughput, not generator-resumption overhead.
    """
    count = 0
    start = time.perf_counter()
    for batch in event_batches(source, parser=parser):
        count += len(batch)
    return time.perf_counter() - start, count


def time_evaluation(
    query: str,
    source: TextSource,
    parser: str = "native",
) -> Tuple[float, ResultSet, TwigMEvaluator]:
    """Time a full streaming evaluation; returns (seconds, results, evaluator)."""
    evaluator = TwigMEvaluator(query)
    start = time.perf_counter()
    results = evaluator.evaluate(source, parser=parser)
    return time.perf_counter() - start, results, evaluator


def measure_run(
    query: str,
    dataset_name: str,
    make_source: Callable[[], TextSource],
    parser: str = "native",
    measure_memory: bool = False,
) -> RunMeasurement:
    """Measure one (query, dataset) pair: parse-only time, total time, counters.

    ``make_source`` is called once per pass so that streaming sources
    (generator chunk iterables) can be re-created for the second pass.
    """
    sizing_source = make_source()
    if isinstance(sizing_source, str):
        document_bytes = len(sizing_source.encode("utf-8"))
    elif isinstance(sizing_source, bytes):
        document_bytes = len(sizing_source)
    else:
        document_bytes = document_byte_size(sizing_source)
    # Collect before each timed pass, so a full collection of whatever
    # earlier work left on the heap does not land inside one of them.
    gc.collect()
    parse_seconds, _ = time_parse_only(make_source(), parser=parser)
    peak_memory: Optional[int] = None
    gc.collect()
    if measure_memory:
        def run() -> Tuple[float, ResultSet, TwigMEvaluator]:
            return time_evaluation(query, make_source(), parser=parser)

        (total_seconds, results, evaluator), memory = measure_peak_memory(run)
        peak_memory = memory.peak_bytes
    else:
        total_seconds, results, evaluator = time_evaluation(query, make_source(), parser=parser)
    return RunMeasurement(
        query=query,
        dataset=dataset_name,
        parse_seconds=parse_seconds,
        total_seconds=total_seconds,
        document_bytes=document_bytes,
        solutions=len(results),
        engine_counters=evaluator.statistics.as_dict(),
        peak_memory_bytes=peak_memory,
    )
