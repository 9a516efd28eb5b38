"""The ViteX evaluation engine: query + XML stream → solutions.

:class:`TwigMEvaluator` wires the pieces of the paper's architecture figure
together: the XPath parser and TwigM builder run once per query, then SAX
events (from either parser back-end) drive the TwigM machine's transition
functions.  Three calling styles are offered:

* :meth:`TwigMEvaluator.evaluate` — run a whole document and return a
  :class:`~repro.core.results.ResultSet`;
* :meth:`TwigMEvaluator.stream` — a generator that yields each solution as
  soon as it is known (the paper's "incrementally produce and distribute
  query results" requirement);
* :meth:`TwigMEvaluator.feed` / :meth:`TwigMEvaluator.finish` — push-style
  event-at-a-time driving, used when the caller already owns the event loop.

Module-level helpers :func:`evaluate` and :func:`stream_evaluate` cover the
common one-shot cases.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Union

from ..errors import StreamStateError
from ..xmlstream.events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartDocument,
    StartElement,
    as_event_iterable,
)
from ..xmlstream.reader import DEFAULT_CHUNK_SIZE, StreamReader, TextSource
from ..xmlstream.sax import event_batches, iter_events
from ..xmlstream.serializer import serialize_events
from ..xpath.ast import QueryTree
from .builder import build_machine
from .fastpath import FusedExpatDriver, StreamShape, fused_pure_multi_evaluate
from .machine import TwigMachine
from .queryindex import InterestSets
from .results import ResultCollector, ResultSet, Solution
from .statistics import EngineStatistics
from .transitions import (
    process_characters,
    process_end_element,
    process_start_element,
)


class TwigMEvaluator:
    """Streaming XPath evaluator built around a TwigM machine.

    Parameters
    ----------
    query:
        XPath expression string or an already-normalized
        :class:`~repro.xpath.ast.QueryTree`.
    capture_fragments:
        When True, element solutions carry their serialized XML fragment in
        :attr:`Solution.fragment`.  This requires buffering the events of
        currently-open potential solution elements, so it trades the
        constant-memory property for convenience; it is off by default and
        never enabled by the benchmarks.
    eager_emission:
        When True, solutions whose remaining ancestors carry no predicates are
        emitted as soon as they are confirmed instead of being bookkept up to
        the machine root.  This never changes the answer set (verified by the
        property-based tests); it lowers result latency and peak candidate
        counts for queries such as ``/feed//update[...]`` whose root step is
        unconstrained.  Off by default to match the paper's description.
    collect_statistics:
        When False, the :class:`EngineStatistics` counters are not maintained
        during the run (``self.statistics`` stays at its zeroed state).  The
        counters cost a measurable fraction of the per-event transition work,
        so latency-critical deployments can switch them off; benchmarks and
        tests keep them on (the default).
    """

    def __init__(
        self,
        query: Union[str, QueryTree],
        capture_fragments: bool = False,
        eager_emission: bool = False,
        collect_statistics: bool = True,
    ) -> None:
        self.machine: TwigMachine = build_machine(query)
        self.query: QueryTree = self.machine.query
        self.capture_fragments = capture_fragments
        self.eager_emission = eager_emission
        self.collect_statistics = collect_statistics
        self.statistics = EngineStatistics()
        self.collector = ResultCollector()
        self._element_order = 0
        self._finished = False
        self._started = False
        # Fragment capture state: one event buffer per open potential solution
        # element, keyed by that element's pre-order index.
        self._capture_buffers: Dict[int, List[Event]] = {}
        self._capture_levels: Dict[int, int] = {}
        self._fragments: Dict[int, str] = {}

    # ------------------------------------------------------------ push API

    def feed(self, event: Event) -> List[Solution]:
        """Process one event; return solutions that became known with it.

        Dispatch is keyed on the exact event class first (the ``is`` checks
        below, ordered by stream frequency) with an ``isinstance`` ladder as
        the fallback for subclassed events; per-event isinstance chains were
        ~40% of the seed engine's runtime.
        """
        if self._finished:
            raise StreamStateError("evaluator already finished; call reset() first")
        statistics = self.statistics if self.collect_statistics else None
        if statistics is not None:
            statistics.events += 1
        cls = event.__class__
        if cls is StartElement:
            self._started = True
            order = self._element_order
            self._element_order = order + 1
            if self.capture_fragments:
                self._capture_start(event, order)
            process_start_element(
                self.machine,
                event.name,
                event.level,
                event.attributes,
                event.line,
                order,
                statistics,
            )
            return []
        if cls is EndElement:
            if self.capture_fragments:
                self._capture_end(event)
            return process_end_element(
                self.machine,
                event.name,
                event.level,
                statistics,
                self.collector,
                fragments=self._fragments if self.capture_fragments else None,
                eager_emission=self.eager_emission,
            )
        if cls is Characters:
            if self.capture_fragments:
                self._capture_event(event)
            process_characters(self.machine, event.text, event.level, statistics)
            return []
        return self._feed_uncommon(event, statistics)

    def _feed_uncommon(
        self, event: Event, statistics: Optional[EngineStatistics]
    ) -> List[Solution]:
        """Slow-path dispatch for rare event kinds and event subclasses."""
        if isinstance(event, StartDocument):
            self._started = True
            return []
        if isinstance(event, StartElement):
            self._started = True
            order = self._element_order
            self._element_order = order + 1
            if self.capture_fragments:
                self._capture_start(event, order)
            process_start_element(
                self.machine,
                event.name,
                event.level,
                event.attributes,
                event.line,
                order,
                statistics,
            )
            return []
        if isinstance(event, Characters):
            if self.capture_fragments:
                self._capture_event(event)
            process_characters(self.machine, event.text, event.level, statistics)
            return []
        if isinstance(event, EndElement):
            if self.capture_fragments:
                self._capture_end(event)
            return process_end_element(
                self.machine,
                event.name,
                event.level,
                statistics,
                self.collector,
                fragments=self._fragments if self.capture_fragments else None,
                eager_emission=self.eager_emission,
            )
        if isinstance(event, EndDocument):
            self._finished = True
            if not self.machine.stacks_empty():
                raise StreamStateError(
                    "machine stacks are not empty at end of document; "
                    "the event stream was not well-nested"
                )
            return []
        if isinstance(event, (Comment, ProcessingInstruction)):
            return []
        raise StreamStateError(f"unknown event type {type(event).__name__}")

    def finish(self) -> ResultSet:
        """Declare the stream complete and return the accumulated result set."""
        if not self._finished:
            if not self.machine.stacks_empty():
                raise StreamStateError(
                    "finish() called while elements are still open"
                )
            self._finished = True
        return ResultSet.from_collector(self.query.source, self.collector)

    def reset(self) -> None:
        """Reset the evaluator so the same query can run over another document."""
        self.machine.reset()
        self.statistics = EngineStatistics()
        self.collector = ResultCollector()
        self._element_order = 0
        self._finished = False
        self._started = False
        self._capture_buffers.clear()
        self._capture_levels.clear()
        self._fragments.clear()

    # ------------------------------------------------------------ pull API

    def stream(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[Solution]:
        """Yield solutions incrementally while consuming ``source``.

        ``source`` may be anything :func:`repro.xmlstream.iter_events`
        accepts, or an already-produced iterable of events.
        """
        for event in self._events_for(source, parser, chunk_size):
            solutions = self.feed(event)
            if solutions:
                yield from solutions

    def evaluate(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> ResultSet:
        """Evaluate the query over a complete document and return all solutions.

        Unlike :meth:`stream`, this uses the fused fast paths from
        :mod:`repro.core.fastpath` whenever possible — a bulk scan that
        drives the TwigM transitions with no event objects at all — and
        otherwise consumes the parser's event *batches* directly (one list
        per fed chunk) with inline class dispatch, so neither generator
        machinery nor a per-event ``feed`` call sits between the tokenizer
        and the transition functions.
        """
        fresh = (
            not self.capture_fragments
            and not self._started
            and not self._finished
            and self._element_order == 0
            and not _is_event_iterable(source)
        )
        if fresh:
            if (
                parser in ("native", "pure")
                and isinstance(source, str)
                and not StreamReader._looks_like_path(source)
            ):
                # Complete in-memory document: the multi-query scan over a
                # one-entry index.  The collector already holds every
                # solution, so the delivery sink keeps nothing.
                shape = fused_pure_multi_evaluate(
                    _OneEntryIndex(self), source, deque(maxlen=0)
                )
                if shape is not None:
                    return self._finish_fused(shape)
                # Construct the fast scan could not handle (or a syntax
                # error): reset the partial state and replay through the
                # event pipeline, which reproduces the canonical behaviour.
                self.reset()
            elif parser == "expat":
                driver = FusedExpatDriver(_OneEntryIndex(self))
                reader = StreamReader(source, chunk_size=chunk_size)
                try:
                    driver.run(reader.raw_chunks())
                except Exception:
                    # Leave the evaluator clean: a later evaluate() must not
                    # see this failed run's partial stacks or solutions.
                    self.reset()
                    raise
                return self._finish_fused(driver.shape)
        if _is_event_iterable(source):
            feed = self.feed
            for event in source:
                feed(event)
            return self.finish()
        if self.capture_fragments:
            feed = self.feed
            for batch in event_batches(source, parser=parser, chunk_size=chunk_size):
                for event in batch:
                    feed(event)
            return self.finish()
        # Bulk fast path: locals for everything touched per event.
        machine = self.machine
        statistics = self.statistics if self.collect_statistics else None
        collector = self.collector
        eager = self.eager_emission
        order = self._element_order
        has_text_nodes = bool(machine.text_nodes)
        start_element = StartElement
        end_element = EndElement
        characters = Characters
        try:
            for batch in event_batches(source, parser=parser, chunk_size=chunk_size):
                if self._finished:
                    raise StreamStateError(
                        "evaluator already finished; call reset() first"
                    )
                if statistics is not None:
                    statistics.events += len(batch)
                for event in batch:
                    cls = event.__class__
                    if cls is start_element:
                        process_start_element(
                            machine,
                            event.name,
                            event.level,
                            event.attributes,
                            event.line,
                            order,
                            statistics,
                        )
                        order += 1
                    elif cls is end_element:
                        process_end_element(
                            machine, event.name, event.level, statistics, collector,
                            fragments=None, eager_emission=eager,
                        )
                    elif cls is characters:
                        if has_text_nodes:
                            process_characters(
                                machine, event.text, event.level, statistics
                            )
                        elif statistics is not None:
                            statistics.text_chunks += 1
                    else:
                        self._element_order = order
                        self._feed_uncommon(event, statistics)
                        order = self._element_order
        finally:
            self._element_order = order
        return self.finish()

    # ------------------------------------------------------------ internals

    def _finish_fused(self, shape: StreamShape) -> ResultSet:
        """Record a fused run's stream counters the way the event pipeline
        counts them, and finish."""
        elements, attributes, max_depth, text_runs, misc_events = shape
        if self.collect_statistics:
            statistics = self.statistics
            statistics.elements = elements
            statistics.attributes = attributes
            statistics.max_depth = max_depth
            statistics.text_chunks = text_runs
            # StartDocument + EndDocument + one start and one end per
            # element + text runs + comments/PIs.
            statistics.events = 2 + 2 * elements + text_runs + misc_events
        self._element_order = elements
        self._started = True
        self._finished = True
        return self.finish()

    @staticmethod
    def _events_for(
        source: Union[TextSource, Iterable[Event]],
        parser: str,
        chunk_size: int,
    ) -> Iterable[Event]:
        if _is_event_iterable(source):
            return source  # type: ignore[return-value]
        return iter_events(source, parser=parser, chunk_size=chunk_size)

    # -- fragment capture ---------------------------------------------------

    def _wants_capture(self, tag: str) -> bool:
        for node in self.machine.nodes_matching(tag):
            if node.is_output:
                return True
        return False

    def _capture_start(self, event: StartElement, order: int) -> None:
        self._capture_event(event)
        if self._wants_capture(event.name):
            self._capture_buffers[order] = [event]
            self._capture_levels[order] = event.level

    def _capture_event(self, event: Event) -> None:
        for buffer in self._capture_buffers.values():
            if buffer and buffer[-1] is not event:
                buffer.append(event)

    def _capture_end(self, event: EndElement) -> None:
        self._capture_event(event)
        completed = [
            order
            for order, level in self._capture_levels.items()
            if level == event.level
        ]
        for order in completed:
            buffer = self._capture_buffers.pop(order)
            del self._capture_levels[order]
            self._fragments[order] = serialize_events(buffer)


class _OneEntryIndex:
    """A :class:`TwigMEvaluator` seen as a one-runtime query index.

    Carries just what the fused drivers of :mod:`repro.core.fastpath` read
    of an index and its runtimes, so the single-query engine runs the
    multi-query pure scan and expat driver: the evaluator's machine is the
    only runtime, dispatched every tag its machine has nodes for.  Its
    collector already holds every solution, so delivery is a no-op, and
    with no family runtime to read an ancestor chain it keeps none.
    """

    is_family = False
    context = None

    def __init__(self, evaluator: TwigMEvaluator) -> None:
        self.machine = evaluator.machine
        self.statistics = (
            evaluator.statistics if evaluator.collect_statistics else None
        )
        self.collector = evaluator.collector
        self.eager = evaluator.eager_emission
        self.dispatch = InterestSets(self._interest).__getitem__

    def _interest(self, name: str) -> List["_OneEntryIndex"]:
        return [self] if self.machine.nodes_matching(name) else []

    def text_runtimes(self) -> List["_OneEntryIndex"]:
        return [self] if self.machine.text_nodes else []

    def deliver(self, solutions: List[Solution], emitted=None) -> None:
        pass


def _is_event_iterable(source) -> bool:
    """Shared sniffing rule: see :func:`repro.xmlstream.events.as_event_iterable`."""
    return as_event_iterable(source) is not None


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
    evaluator = TwigMEvaluator(
        query,
        capture_fragments=capture_fragments,
        eager_emission=eager_emission,
        collect_statistics=collect_statistics,
    )
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
    evaluator = TwigMEvaluator(
        query,
        capture_fragments=capture_fragments,
        eager_emission=eager_emission,
        collect_statistics=collect_statistics,
    )
    return evaluator.stream(source, parser=parser, chunk_size=chunk_size)
