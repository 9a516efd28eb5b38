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
    EndElement,
    Event,
    StartElement,
    as_event_iterable,
)
from ..xmlstream.reader import DEFAULT_CHUNK_SIZE, StreamReader, TextSource
from ..xmlstream.sax import event_batches, iter_events
from ..xmlstream.serializer import serialize_events
from ..xpath.ast import QueryTree
from .builder import build_machine
from .fastpath import FusedExpatDriver, fused_pure_multi_evaluate
from .kernel import Kernel
from .machine import TwigMachine
from .queryindex import InterestSets
from .results import ResultCollector, ResultSet, Solution
from .statistics import EngineStatistics


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
        #: The event-record kernel, made by :meth:`_records`.
        self._kernel: Optional[Kernel] = None
        # Fragment capture state: one event buffer per open potential solution
        # element, keyed by that element's pre-order index.
        self._capture_buffers: Dict[int, List[Event]] = {}
        self._capture_levels: Dict[int, int] = {}
        self._fragments: Dict[int, str] = {}

    # ------------------------------------------------------------ push API

    def feed(self, event: Event) -> List[Solution]:
        """Process one event; return solutions that became known with it."""
        if self._finished:
            raise StreamStateError("evaluator already finished; call reset() first")
        kernel = self._kernel or self._records()
        if self.capture_fragments:
            self._capture(event, self._element_order)
        return kernel.run((event,), [])

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
        self._kernel = None
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
        accepts, or an already-produced iterable of events.  A document
        source runs one parsed chunk's event batch at a time through the
        kernel (fragment capture, event by event).
        """
        events = as_event_iterable(source)
        if events is None and not self.capture_fragments:
            run = (self._kernel or self._records()).run
            for batch in event_batches(source, parser=parser, chunk_size=chunk_size):
                solutions = run(batch, [])
                if solutions:
                    yield from solutions
            return
        if events is None:
            events = iter_events(source, parser=parser, chunk_size=chunk_size)
        for event in events:
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
        :mod:`repro.core.fastpath` whenever possible — a bulk scan or the
        expat callbacks driving the kernel with no event objects at all —
        and otherwise runs :meth:`stream`.
        """
        fresh = (
            not self.capture_fragments
            and not self._started
            and not self._finished
            and self._element_order == 0
            and as_event_iterable(source) is None
        )
        if fresh:
            kernel = Kernel(_OneEntryIndex(self), self)
            if (
                parser in ("native", "pure")
                and isinstance(source, str)
                and not StreamReader._looks_like_path(source)
            ):
                # Complete in-memory document: the multi-query scan over a
                # one-entry index.  The collector already holds every
                # solution, so the delivery sink keeps nothing.
                shape = fused_pure_multi_evaluate(kernel, source, deque(maxlen=0))
                if shape is not None:
                    kernel.finish(shape[0], shape)
                    return self.finish()
                # Construct the fast scan could not handle (or a syntax
                # error): reset the partial state and replay through the
                # event pipeline, which reproduces the canonical behaviour.
                self.reset()
            elif parser == "expat":
                driver = FusedExpatDriver(kernel)
                reader = StreamReader(source, chunk_size=chunk_size)
                try:
                    driver.run(reader.raw_chunks())
                except Exception:
                    # Leave the evaluator clean: a later evaluate() must not
                    # see this failed run's partial stacks or solutions.
                    self.reset()
                    raise
                kernel.finish(driver.element_count, driver.shape)
                return self.finish()
        for _ in self.stream(source, parser=parser, chunk_size=chunk_size):
            pass
        return self.finish()

    def _records(self) -> Kernel:
        """The kernel event records drive, made at the first record after
        construction or :meth:`reset` (its index holds the statistics and
        collector that reset replaces)."""
        kernel = self._kernel = Kernel(_OneEntryIndex(self, every_tag=True), self)
        if self.capture_fragments:
            kernel.fragments = self._fragments
        return kernel

    # -- fragment capture ---------------------------------------------------

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


class _OneEntryIndex:
    """A :class:`TwigMEvaluator` seen as a one-runtime query index.

    Carries just what the :class:`~repro.core.kernel.Kernel` reads of an
    index and its runtimes, so the single-query engine runs the multi-query
    kernel and its drivers: the evaluator's machine is the only runtime.
    The fused scans dispatch it the tags its machine has nodes for; the
    event pipeline (``every_tag``) dispatches it every tag and every text
    run, because the single-query statistics count the whole stream.  Its
    collector already holds every solution, so delivery only hands the
    solutions to the caller, and with no family runtime to read an ancestor
    chain it keeps none.
    """

    is_family = False
    context = None

    def __init__(self, evaluator: TwigMEvaluator, every_tag: bool = False) -> None:
        self.evaluator = evaluator
        self.machine = evaluator.machine
        self.statistics = (
            evaluator.statistics if evaluator.collect_statistics else None
        )
        self.collector = evaluator.collector
        self.eager = evaluator.eager_emission
        self.runtimes = [self]
        self._every_tag = every_tag
        self.dispatch = InterestSets(self._interest).__getitem__

    def _interest(self, name: str) -> List["_OneEntryIndex"]:
        if self._every_tag or self.machine.nodes_matching(name):
            return self.runtimes
        return []

    def text_runtimes(self) -> List["_OneEntryIndex"]:
        return self.runtimes if self._every_tag or self.machine.text_nodes else []

    def deliver(self, solutions: List[Solution], emitted=None) -> None:
        if emitted is not None:
            emitted.extend(solutions)


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
