"""The one transition kernel: TwigM's transitions driven over an index.

The paper's TwigM is one set of transition functions (§3.2,
:mod:`repro.core.transitions`) driven by parser events.  :class:`Kernel` is
the only code that calls them: it dispatches each tag to the runtimes a
:class:`~repro.core.queryindex.QueryIndex` names, keeps their per-runtime
counters and positions, accumulates text, resolves family batches and
delivers solutions.  The stream position lives on the kernel's ``owner``,
the :class:`~repro.core.multi.MultiQueryEvaluator`: ``_element_order`` (the
next element's pre-order), ``_started`` and ``_finished``.  The ancestor
chain is :attr:`Kernel.context`: the index's, or ``None`` while the owner
runs a document no family runtime reads it for.

Two kinds of source drive it, through two sets of entry points:

* **Event records** — ``start_record`` / ``end_record`` /
  ``chars_record`` / ``other`` are the sink of the pure
  :class:`~repro.xmlstream.tokenizer.StreamTokenizer` (push sessions,
  ``stream()`` and ``evaluate()`` on any pure source but an in-memory
  string), called as the scan reads each construct, and the callbacks of
  :meth:`~repro.xmlstream.eventcodec.EventFrameDecoder.walk` for event
  frames; event objects (``feed``, event iterables, document streams) go
  through :meth:`Kernel.run`, which runs the same bodies inline.  The
  kernel advances the owner's position and the ancestor chain; every
  dispatched runtime counts the record in its ``events`` statistic and
  records its own position, and rare records (document boundaries,
  comments, processing instructions) reach every runtime.
* **Fused scans** — the in-memory pure scan and the expat driver of
  :mod:`repro.core.fastpath` (every expat source).  They keep pre-order, depth and the ancestor
  chain in locals (a call per tag would cost more than an undispatched
  tag's transitions), call :meth:`~Kernel.start` / :meth:`~Kernel.end` /
  :meth:`~Kernel.text` for dispatched tags only, count coalesced text runs
  (:meth:`~Kernel.text_runs`) and close the document with
  :meth:`~Kernel.finish`.

Solutions are delivered at once — callbacks fire, and pairs go to the
list a caller hands :meth:`Kernel.run` or :meth:`Kernel.collect` — unless
:attr:`Kernel.deliveries` is set: while a subscription has a callback, the
pure scan buffers ``(runtime, solutions)`` there, resolving family batches
while the chain is live, because a scan that bails out is replayed through
the incremental tokenizer and no callback may fire twice.
"""

from __future__ import annotations

from typing import Dict, List, MutableSequence, Optional

from ..errors import StreamStateError
from ..xmlstream.events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from .transitions import (
    process_characters,
    process_end_element,
    process_start_element,
)


class Kernel:
    """Drive the TwigM transitions of an index's runtimes (module docstring)."""

    def __init__(self, index, owner) -> None:
        self.index = index
        self.dispatch = index.dispatch
        self.context: Optional[List[str]] = index.context
        #: The engine whose stream position the kernel keeps.
        self.owner = owner
        #: Where immediately delivered pairs go while :meth:`run` or
        #: :meth:`collect` runs; ``None`` otherwise, so the kernel keeps no
        #: matches alive into older GC generations.
        self.emitted: Optional[List] = None
        #: When set, ``(runtime, solutions)`` pairs are buffered here
        #: instead of delivered (see :meth:`end`).
        self.deliveries: Optional[MutableSequence] = None
        #: Element pre-order -> serialized XML, for a fragment-capturing
        #: one-query front end (:class:`~repro.core.engine.TwigMEvaluator`).
        self.fragments: Optional[Dict[int, str]] = None

    # ------------------------------------------------------- fused scans

    def start(self, runtimes, name, level, attributes, line, order) -> None:
        """A start tag of pre-order ``order``, for the dispatched runtimes."""
        for runtime in runtimes:
            process_start_element(
                runtime.machine, name, level, attributes, line, order,
                runtime.statistics,
            )

    def end(self, runtimes, name, level) -> None:
        """An end tag, for the dispatched runtimes; delivers what it emits."""
        deliveries = self.deliveries
        for runtime in runtimes:
            solutions = process_end_element(
                runtime.machine, name, level, runtime.statistics,
                runtime.collector, eager_emission=runtime.eager,
            )
            if solutions:
                if deliveries is None:
                    runtime.deliver(solutions, self.emitted)
                else:
                    if runtime.is_family:
                        runtime.resolve(solutions)
                    deliveries.append((runtime, solutions))

    def text(self, runtimes, text, level) -> None:
        """Character data, for the text-collecting runtimes (uncounted:
        the scan counts coalesced runs with :meth:`text_runs`)."""
        for runtime in runtimes:
            process_characters(runtime.machine, text, level, None)

    def text_runs(self, runtimes, count: int) -> None:
        """Count ``count`` coalesced text runs a fused scan saw."""
        for runtime in runtimes:
            statistics = runtime.statistics
            if statistics is not None:
                statistics.text_chunks += count

    # ------------------------------------------------------- event records

    def start_record(self, position, name, level, attributes, line) -> None:
        """A :class:`StartElement`'s fields."""
        owner = self.owner
        owner._started = True
        context = self.context
        if context is not None:
            # Level-based truncation self-heals across resets and replays.
            del context[level - 1:]
            context.append(name)
        # Inject the *global* pre-order: a dispatched machine's own counter
        # would count only the start tags it was shown.
        order = owner._element_order
        owner._element_order = order + 1
        for runtime in self.dispatch(name):
            statistics = runtime.statistics
            if statistics is not None:
                statistics.events += 1
            runtime.started = True
            runtime.element_order = order + 1
            process_start_element(
                runtime.machine, name, level, attributes, line, order, statistics
            )

    def end_record(self, position, name, level, line) -> None:
        """An :class:`EndElement`'s fields."""
        self.owner._started = True
        emitted = self.emitted
        fragments = self.fragments
        for runtime in self.dispatch(name):
            statistics = runtime.statistics
            if statistics is not None:
                statistics.events += 1
            solutions = process_end_element(
                runtime.machine, name, level, statistics, runtime.collector,
                fragments, runtime.eager,
            )
            if solutions:
                runtime.deliver(solutions, emitted)
        # Truncate *after* dispatch: family runtimes resolve residual paths
        # against the chain of the element being closed.
        context = self.context
        if context is not None:
            del context[level - 1:]

    def chars_record(self, position, text, level) -> None:
        """A :class:`Characters`' fields."""
        for runtime in self.index.text_runtimes():
            statistics = runtime.statistics
            if statistics is not None:
                statistics.events += 1
            process_characters(runtime.machine, text, level, statistics)

    def other(self, event) -> None:
        """A rare record, for every runtime: ``EndDocument`` checks that
        each machine's stacks are empty."""
        for runtime in self.index.runtimes:
            if runtime.finished:
                raise StreamStateError("evaluator already finished; call reset() first")
            statistics = runtime.statistics
            if statistics is not None:
                statistics.events += 1
            if isinstance(event, StartDocument):
                runtime.started = True
            elif isinstance(event, EndDocument):
                runtime.finished = True
                if not runtime.machine.stacks_empty():
                    raise StreamStateError(
                        "machine stacks are not empty at end of document; "
                        "the event stream was not well-nested"
                    )
            elif not isinstance(event, (Comment, ProcessingInstruction)):
                raise StreamStateError(f"unknown event type {type(event).__name__}")

    def run(self, events, emitted: Optional[List]) -> Optional[List]:
        """Push event objects; immediately delivered pairs go to ``emitted``.

        The common kinds run the record methods' bodies inline: a call per
        event would cost as much as an undispatched event's whole work.
        Event subclasses and rare kinds go through the record methods.
        """
        owner = self.owner
        dispatch = self.dispatch
        context = self.context
        fragments = self.fragments
        text_runtimes = self.index.text_runtimes
        self.emitted = emitted
        try:
            for event in events:
                cls = event.__class__
                if cls is StartElement:
                    _, name, level, attributes, line = event
                    owner._started = True
                    if context is not None:
                        del context[level - 1:]
                        context.append(name)
                    order = owner._element_order
                    owner._element_order = order + 1
                    for runtime in dispatch(name):
                        statistics = runtime.statistics
                        if statistics is not None:
                            statistics.events += 1
                        runtime.started = True
                        runtime.element_order = order + 1
                        process_start_element(
                            runtime.machine, name, level, attributes, line, order,
                            statistics,
                        )
                elif cls is EndElement:
                    _, name, level, _ = event
                    owner._started = True
                    for runtime in dispatch(name):
                        statistics = runtime.statistics
                        if statistics is not None:
                            statistics.events += 1
                        solutions = process_end_element(
                            runtime.machine, name, level, statistics,
                            runtime.collector, fragments, runtime.eager,
                        )
                        if solutions:
                            runtime.deliver(solutions, emitted)
                    if context is not None:
                        del context[level - 1:]
                elif cls is Characters:
                    _, text, level = event
                    for runtime in text_runtimes():
                        statistics = runtime.statistics
                        if statistics is not None:
                            statistics.events += 1
                        process_characters(runtime.machine, text, level, statistics)
                elif isinstance(event, StartElement):
                    self.start_record(*event)
                elif isinstance(event, EndElement):
                    self.end_record(*event)
                elif isinstance(event, Characters):
                    self.chars_record(*event)
                else:
                    self.other(event)
        finally:
            self.emitted = None
        return emitted

    def collect(self, emitted: Optional[List], call, *args) -> Optional[List]:
        """``call(*args)`` — a tokenizer's or fused driver's chunk, or a
        frame walk — with immediately delivered pairs going to ``emitted``."""
        self.emitted = emitted
        try:
            call(*args)
        finally:
            self.emitted = None
        return emitted

    # ---------------------------------------------------------- document

    def deliver(self, deliveries) -> None:
        """Deliver buffered ``(runtime, solutions)`` pairs, in order."""
        for runtime, solutions in deliveries:
            runtime.deliver(solutions)

    def finish(self, elements: int) -> None:
        """Close a fused scan's document of ``elements`` start tags."""
        for runtime in self.index.runtimes:
            runtime.element_order = elements
            runtime.started = True
            runtime.finished = True
        owner = self.owner
        owner._element_order = elements
        owner._started = True
        owner._finished = True

    def reset(self) -> None:
        """Drop the document: every runtime (family members included), the
        ancestor chain and the position start over."""
        for runtime in self.index.runtimes:
            runtime.reset()
        # A stream() left unfinished may still hold the chain dropped; the
        # next document starts with it, and its source drops it again.
        self.context = self.index.context
        del self.context[:]
        owner = self.owner
        owner._element_order = 0
        owner._started = False
        owner._finished = False


__all__ = ["Kernel"]
