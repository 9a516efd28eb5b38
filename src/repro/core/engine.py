"""The one-query front ends: one subscription on the subscription engine.

:func:`evaluate` (whole document → :class:`~repro.core.results.ResultSet`),
:func:`stream_evaluate` (each solution as soon as it is known, the paper's
"incrementally produce and distribute query results") and the 1.x class
:class:`TwigMEvaluator` each run a
:class:`~repro.core.multi.MultiQueryEvaluator` whose one query has a machine
of its own, never a containment family or a shared machine.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Iterator, List, Union

from ..errors import StreamStateError
from ..xmlstream.events import (
    Characters,
    EndElement,
    Event,
    StartElement,
    as_event_iterable,
)
from ..xmlstream.reader import DEFAULT_CHUNK_SIZE, TextSource
from ..xmlstream.sax import iter_events
from ..xmlstream.serializer import serialize_events
from ..xpath.ast import QueryTree
from .machine import TwigMachine
from .multi import MultiQueryEvaluator
from .results import ResultSet, Solution
from .statistics import EngineStatistics


class TwigMEvaluator:
    """One XPath query (string or normalized
    :class:`~repro.xpath.ast.QueryTree`) on a one-subscription engine;
    ``machine``, ``query``, ``statistics`` and ``collector`` are its
    runtime's.

    ``capture_fragments`` gives element solutions their serialized XML
    (:attr:`Solution.fragment`), buffering the events of open potential
    solutions, so it gives up constant memory.  ``eager_emission`` emits a
    solution as soon as no remaining ancestor carries a predicate (same
    answers, lower latency and peak candidates).  ``collect_statistics=False``
    leaves ``statistics`` zeroed and spares the counters' per-event cost.
    """

    def __init__(
        self,
        query: Union[str, QueryTree],
        capture_fragments: bool = False,
        eager_emission: bool = False,
        collect_statistics: bool = True,
    ) -> None:
        engine = self._engine = MultiQueryEvaluator(collect_statistics=collect_statistics)
        subscription = self._subscription = engine._subscribe(query)
        # Release the compiled-cache reference with the evaluator.
        weakref.finalize(self, engine.close)
        runtime = self._runtime = subscription.runtime
        runtime.eager = eager_emission
        self.machine: TwigMachine = runtime.machine
        self.query: QueryTree = self.machine.query
        self.capture_fragments = capture_fragments
        self.eager_emission = eager_emission
        self.collect_statistics = collect_statistics
        # Fragment capture state: one event buffer per open potential solution
        # element, keyed by that element's pre-order index.
        self._capture_buffers: Dict[int, List[Event]] = {}
        self._capture_levels: Dict[int, int] = {}
        self._fragments: Dict[int, str] = {}
        if capture_fragments:
            engine._kernel.fragments = self._fragments
        self._refresh()

    def _refresh(self) -> None:
        """Re-read the runtime's statistics and collector (a reset
        replaces them)."""
        runtime = self._runtime
        statistics = runtime.statistics
        self.statistics = statistics if statistics is not None else EngineStatistics()
        self.collector = runtime.collector

    def _check_open(self) -> None:
        if self._runtime.finished:
            raise StreamStateError("evaluator already finished; call reset() first")

    def feed(self, event: Event) -> List[Solution]:
        """Process one event; return solutions that became known with it."""
        self._check_open()
        if self.capture_fragments:
            self._capture(event, self._engine._element_order)
        return [match.solution for match in self._engine.push(event)]

    def finish(self) -> ResultSet:
        """Declare the stream complete and return the accumulated result set."""
        return self._runtime.finish(self._subscription.source)

    def reset(self) -> None:
        """Reset the evaluator so the same query can run over another document."""
        self._engine.reset()
        self._capture_buffers.clear()
        self._capture_levels.clear()
        self._fragments.clear()
        self._refresh()

    def stream(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[Solution]:
        """Yield solutions incrementally while consuming ``source``
        (:meth:`MultiQueryEvaluator.stream`; event by event with fragment
        capture)."""
        self._check_open()
        if not self.capture_fragments:
            for match in self._engine.stream(source, parser=parser, chunk_size=chunk_size):
                yield match.solution
            return
        events = as_event_iterable(source)
        if events is None:
            events = iter_events(source, parser=parser, chunk_size=chunk_size)
        for event in events:
            yield from self.feed(event)

    def evaluate(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> ResultSet:
        """Evaluate the query over a complete document and return all
        solutions (:meth:`MultiQueryEvaluator.evaluate` picks the source;
        fragment capture runs :meth:`stream`)."""
        self._check_open()
        if self.capture_fragments:
            for _ in self.stream(source, parser=parser, chunk_size=chunk_size):
                pass
            return self.finish()
        try:
            results = self._engine.evaluate(source, parser=parser, chunk_size=chunk_size)
        finally:
            self._refresh()
        return results[self._subscription.name]

    def _capture(self, event: Event, order: int) -> None:
        """Buffer ``event`` into every open potential solution element's
        fragment; open a buffer at a start tag the machine may output and
        serialize the buffers an end tag completes."""
        if not isinstance(event, (StartElement, EndElement, Characters)):
            return
        buffers = self._capture_buffers
        for buffer in buffers.values():
            if buffer and buffer[-1] is not event:
                buffer.append(event)
        if isinstance(event, StartElement):
            if any(node.is_output for node in self.machine.nodes_matching(event.name)):
                buffers[order] = [event]
                self._capture_levels[order] = event.level
        elif isinstance(event, EndElement):
            levels = self._capture_levels
            for start in [start for start, level in levels.items() if level == event.level]:
                del levels[start]
                self._fragments[start] = serialize_events(buffers.pop(start))


def evaluate(
    query: Union[str, QueryTree],
    source: Union[TextSource, Iterable[Event]],
    parser: str = "native",
    capture_fragments: bool = False,
    eager_emission: bool = False,
    collect_statistics: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ResultSet:
    """Evaluate ``query`` over ``source`` and return the full result set."""
    evaluator = TwigMEvaluator(query, capture_fragments, eager_emission, collect_statistics)
    return evaluator.evaluate(source, parser=parser, chunk_size=chunk_size)


def stream_evaluate(
    query: Union[str, QueryTree],
    source: Union[TextSource, Iterable[Event]],
    parser: str = "native",
    capture_fragments: bool = False,
    eager_emission: bool = False,
    collect_statistics: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[Solution]:
    """Yield solutions of ``query`` over ``source`` incrementally."""
    evaluator = TwigMEvaluator(query, capture_fragments, eager_emission, collect_statistics)
    return evaluator.stream(source, parser=parser, chunk_size=chunk_size)
