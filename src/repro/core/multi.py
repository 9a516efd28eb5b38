"""Multi-query evaluation: an indexed subscription engine over one scan.

E1 shows that SAX parsing dominates end-to-end cost, so a system serving many
standing subscriptions (the stock-ticker scenario from the paper's
motivation) should not parse the stream once per query — and, past a few
dozen subscriptions, should not even *dispatch* every event to every query.
:class:`MultiQueryEvaluator` therefore layers four sharing mechanisms:

1. **Shared compilation** — queries are keyed by their canonical fingerprint
   (:mod:`repro.xpath.fingerprint`) through the ref-counted
   :data:`~repro.core.builder.shared_compiled_cache`, so structurally
   identical queries parse and normalize once.
2. **Shared machines** — subscriptions whose queries have equal fingerprints
   share one TwigM machine (:class:`~repro.core.queryindex.QueryRuntime`);
   solutions fan out to every subscriber.
3. **Containment sharing** — linear predicate-free path queries selecting
   the same output label (``//a//c``, ``/r/a//c``, … refinement families)
   collapse onto one anchor machine for ``//c`` plus a per-shape residual
   ancestor-path check at emission time
   (:class:`~repro.core.queryindex.FamilyRuntime`, planned by
   :class:`~repro.core.builder.SharingPlanner` over
   :mod:`repro.xpath.containment`).  Queries outside the provably-safe
   fragment — predicates, value tests, attribute/text output — keep
   fingerprint-shared machines.  Every eligible subscription that joins at
   stream start rides its family; each member keeps a list of references
   to the anchor's already-deduplicated solutions, never a second keyed
   copy.  (The ``containment_sharing`` keyword of 1.4 is a deprecated
   no-op.)
4. **Trie dispatch** — a :class:`~repro.core.queryindex.QueryIndex` interns
   every registration path into a prefix trie and memoizes the interest set
   per element tag, so a start/end event touches only interested machines
   and per-event cost is O(matching machines), not O(registered queries).
   Character data reaches only text-collecting machines.

Every source drives one :class:`~repro.core.kernel.Kernel` over the index,
which advances the engine's stream position: :meth:`push` hands it event
objects, event frames and the pure tokenizer (push sessions, :meth:`stream`
and ``evaluate()`` on any pure source but an in-memory string) hand it
records as they read them, and the fused sources of
:mod:`repro.core.fastpath` — the bulk scanner on in-memory strings, expat
callbacks on every expat source — hand it the dispatched tags.  The
one-query front ends of :mod:`repro.core.engine` (``repro.evaluate``,
``stream_evaluate``, ``TwigMEvaluator``) are this engine with one
subscription on a machine of its own.

Delivery contract
-----------------

Order is guaranteed *per subscription*: each subscription receives its
solutions in the same sequence from every source (event list, pure or
expat one-shot, chunked sessions, event frames), each exactly once.  How
the deliveries of *different* subscriptions interleave is not fixed — a
family anchor emits at the output element's own end tag, a private
non-eager machine at its outermost step's.

Subscription lifecycle
----------------------

* :meth:`subscribe` (legacy, deprecated spelling: :meth:`register`) —
  allowed until the stream finishes, including
  *mid-stream*: a machine registered mid-stream starts with empty stacks and
  its results cover only the remainder of the stream (end tags for elements
  it never saw pop nothing; levels are absolute, so axis checks stay
  correct).  To keep that guarantee unconditional, mid-stream registrations
  always get a *private* machine — they never attach to a warm shared one,
  even for a structurally identical query.
* :meth:`unregister` — allowed any time; drops the subscription, and tears
  down the machine and its compiled-cache reference when the last
  subscriber of that query shape leaves.
* :meth:`close` (also the context-manager exit) — unregisters everything;
  long-running processes that churn through evaluator instances should
  close them so the process-wide compiled-query cache can evict.
* :meth:`pause` / :meth:`resume` — per-subscription delivery control.  A
  paused subscription receives no callbacks and no ``(name, solution)``
  pairs and its ``delivered`` counter freezes, but the shared machine keeps
  running, so :meth:`results` stays complete and ``resume`` needs no replay.

Callback-exception semantics
----------------------------

A ``callback`` that raises does not poison the stream or other
subscriptions: the exception is caught, counted in
``Subscription.callback_errors`` and stored in
``Subscription.last_callback_error``, and delivery continues (the solution
still counts as ``delivered`` and is still collected for pull-style access).

Statistics semantics
--------------------

Per-subscription statistics describe only the work *dispatched to that
machine*: element/attribute counters cover the label classes the machine is
interested in, and text counters cover text-collecting machines only.  The
work counters (pushes, pops, flags, candidates, solutions, peaks) are the
same from every source; ``events`` counts the records a machine was
dispatched, which the fused sources do not count, so it differs between
them and the record sources (pure tokenizer, event objects, frames).
The ``(name, solution)`` output streams never differ.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # deferred at runtime: session.py imports this module
    from .session import EventStreamSession

from ..errors import EngineError, StreamStateError
from ..xmlstream.events import Event, as_event_iterable
from ..xmlstream.reader import DEFAULT_CHUNK_SIZE, StreamReader, TextSource
from ..xmlstream.sax import PARSER_BACKENDS
from ..xmlstream.tokenizer import StreamTokenizer
from ..xpath.ast import QueryTree
from .builder import shared_compiled_cache, shared_planner
from .fastpath import FusedExpatDriver, fused_pure_multi_evaluate
from .kernel import Kernel
from .queryindex import (
    FamilyRuntime,
    QueryIndex,
    QueryRuntime,
    ResidualGroup,
    trie_path,
)
from .results import Match, ResultSet, Solution
from .statistics import EngineStatistics

#: What the engine accepts wherever a query is expected: a source string, a
#: normalized twig, or (structurally — core never imports the facade) a
#: compiled :class:`repro.api.Query` carrying ``source``/``tree``/
#: ``fingerprint``.
QueryLike = Union[str, QueryTree, Any]


def warn_containment_sharing(stacklevel: int) -> None:
    """Warn that the retired ``containment_sharing`` keyword does nothing
    (``stacklevel`` counted from this helper's caller)."""
    warnings.warn(
        "containment_sharing is deprecated and ignored: containment sharing "
        "is always on (removal of the keyword at 2.0)",
        DeprecationWarning,
        stacklevel=stacklevel + 1,
    )


@dataclass(slots=True)
class Subscription:
    """One registered query inside a :class:`MultiQueryEvaluator`.

    ``slots=True`` matters at the million-subscription scale: the handle is
    the only unavoidably per-subscription record (machines, groups and trie
    nodes are all shared), so it must not carry a per-instance ``__dict__``.
    """

    name: str
    #: The query text exactly as registered (shared machines may serve
    #: differently-spelled but structurally identical queries).
    source: str
    #: The shared runtime (machine + run state) serving this subscription.
    runtime: QueryRuntime = field(repr=False)
    #: The residual group serving this subscription when it rides a
    #: containment-shared family machine; ``None`` on fingerprint/private
    #: machines.
    group: Optional[ResidualGroup] = field(default=None, repr=False)
    #: Number of solutions delivered so far (frozen while paused).
    delivered: int = 0
    #: Optional callback invoked with every solution as it is found.
    callback: Optional[Callable[[Solution], None]] = None
    #: While True, no callbacks fire and no pairs are emitted for this
    #: subscription; the shared machine keeps running (see module docstring).
    paused: bool = False
    #: Number of callback invocations that raised (see module docstring).
    callback_errors: int = 0
    #: The most recent exception raised by the callback, if any.
    last_callback_error: Optional[BaseException] = None

    @property
    def query(self) -> str:
        """The subscription's query text."""
        return self.source

    @property
    def evaluator(self) -> QueryRuntime:
        """The (possibly shared) runtime serving this subscription (the
        1.x name)."""
        return self.runtime

    def pause(self) -> None:
        """Stop push-style delivery for this subscription."""
        self.paused = True

    def resume(self) -> None:
        """Resume push-style delivery for this subscription."""
        self.paused = False


@dataclass(frozen=True, slots=True)
class EngineStats:
    """Typed snapshot of the subscription engine's sharing structure.

    Returned by :meth:`MultiQueryEvaluator.stats` and surfaced unchanged by
    ``Engine.stats()`` — the structured replacement for poking the bare
    ``machine_count`` int.
    """

    #: Registered subscriptions.
    subscriptions: int
    #: Distinct running TwigM machines (anchor machines included).
    machines: int
    #: Subscriptions sharing a fingerprint-dedup machine with at least one
    #: other subscription.
    fingerprint_shared: int
    #: Subscriptions served by a containment-shared family machine.
    containment_shared: int
    #: Containment-shared family (anchor) machines.
    families: int
    #: Interned prefix-trie nodes across all registration paths.
    trie_nodes: int
    #: Largest per-tag interest set materialised so far.
    peak_dispatch_fanout: int


class MultiQueryEvaluator:
    """Evaluate many XPath queries over one single pass of an XML stream."""

    def __init__(
        self,
        collect_statistics: bool = True,
        containment_sharing: Optional[bool] = None,
    ) -> None:
        if containment_sharing is not None:
            warn_containment_sharing(stacklevel=2)
        self._subscriptions: Dict[str, Subscription] = {}
        self._index = QueryIndex()
        self._by_fingerprint: Dict[str, QueryRuntime] = {}
        self._families: Dict[str, FamilyRuntime] = {}
        self._collect_statistics = collect_statistics
        self._auto_name_counter = 0
        #: Global element pre-order counter.  Machines under label dispatch
        #: see only a subset of start tags, so the engine owns the document
        #: pre-order (the canonical solution identity) and its kernel
        #: injects it into each dispatched runtime per tag.
        self._element_order = 0
        self._finished = False
        self._started = False
        #: The one kernel over the index.
        self._kernel = Kernel(self._index, self)

    # ------------------------------------------------------------ setup

    def register(
        self,
        query: QueryLike,
        name: Optional[str] = None,
        callback: Optional[Callable[[Solution], None]] = None,
    ) -> Subscription:
        """Deprecated spelling of :meth:`subscribe` (note the argument order).

        .. deprecated:: 1.1
           Use :meth:`subscribe` (or the :class:`repro.Engine` facade, whose
           callbacks receive :class:`~repro.core.results.Match` objects).
        """
        warnings.warn(
            "MultiQueryEvaluator.register() is deprecated; use "
            "subscribe(query, callback=None, name=None) or the repro.Engine "
            "facade instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.subscribe(query, callback=callback, name=name)

    def subscribe(
        self,
        query: QueryLike,
        callback: Optional[Callable[[Solution], None]] = None,
        name: Optional[str] = None,
    ) -> Subscription:
        """Register a query; returns its :class:`Subscription` handle.

        ``query`` may be an expression string, a normalized
        :class:`~repro.xpath.ast.QueryTree`, or a compiled
        :class:`repro.api.Query`.  ``callback``, when given, is called with
        each :class:`Solution` the moment it is known (push-style delivery);
        results are also always collected for pull-style access via
        :meth:`results`.  Registration is allowed mid-stream (see the module
        docstring for the semantics) but not after the stream has finished.
        """
        # Machine sharing is only sound between subscriptions that joined at
        # the same stream position: a mid-stream registration attaching to a
        # warm shared machine would inherit its full history, contradicting
        # the remainder-only mid-stream semantics.  Mid-stream registrations
        # therefore always get a private machine (compilation is still
        # shared through the cache).  The same joined-at-start requirement
        # gates containment sharing: a family anchor machine is warm by
        # definition once the stream has started.
        return self._subscribe(query, callback, name, share=not self._started)

    def _subscribe(self, query, callback=None, name=None, share=False) -> Subscription:
        """:meth:`subscribe`; ``share=False`` gives the query a private
        machine, as the one-query front ends of :mod:`repro.core.engine`
        want (a lone query riding a family costs up to 2× the CPU)."""
        if self._finished:
            raise EngineError("cannot register queries after the stream was processed")
        name = self._claim_name(name)
        source = query if isinstance(query, str) else query.source
        compiled = shared_compiled_cache.acquire(query)
        plan = shared_planner.plan(compiled) if share else None
        if plan is not None:
            return self._subscribe_family(plan, compiled, source, name, callback)
        runtime = self._by_fingerprint.get(compiled.fingerprint) if share else None
        if runtime is None:
            try:
                runtime = QueryRuntime(compiled, self._collect_statistics)
            except Exception:
                shared_compiled_cache.release(compiled)
                raise
            if share:
                self._by_fingerprint[compiled.fingerprint] = runtime
            self._index.add(runtime)
        subscription = Subscription(
            name=name, source=source, runtime=runtime, callback=callback
        )
        runtime.subscribers.append(subscription)
        self._subscriptions[name] = subscription
        return subscription

    def _claim_name(self, name: Optional[str]) -> str:
        """``name``, or the next free ``qN``; refuses a name in use."""
        while name is None:
            candidate = f"q{self._auto_name_counter}"
            self._auto_name_counter += 1
            if candidate not in self._subscriptions:
                return candidate
        if name in self._subscriptions:
            raise EngineError(f"a subscription named {name!r} already exists")
        return name

    def _subscribe_family(
        self,
        plan,
        compiled,
        source: str,
        name: str,
        callback: Optional[Callable[[Solution], None]],
    ) -> Subscription:
        """Attach a subscription to its containment-shared family.

        The family's anchor machine (``//c``) is created on first use;
        subsequent members of the same family — and all members of the same
        *shape* — only add a pooled residual-group record, so registering
        the millionth refinement costs no new machine.
        """
        family = self._families.get(plan.anchor_label)
        if family is None:
            anchor = shared_compiled_cache.acquire(plan.anchor_source)
            try:
                family = FamilyRuntime(
                    anchor, plan.anchor_label, self._index.context,
                    self._collect_statistics,
                )
            except Exception:
                shared_compiled_cache.release(anchor)
                shared_compiled_cache.release(compiled)
                raise
            self._families[plan.anchor_label] = family
            self._index.add(family)
        group = family.groups.get(compiled.fingerprint)
        if group is None:
            group = family.add_group(compiled, plan.steps, trie_path(compiled.tree))
            self._index.add_path(group.trie)
        subscription = Subscription(
            name=name,
            source=source,
            runtime=family,
            group=group,
            callback=callback,
        )
        group.subscribers.append(subscription)
        self._subscriptions[name] = subscription
        return subscription

    def subscribe_many(
        self,
        pairs: Iterable[Union[QueryLike, Tuple[QueryLike, Optional[str]]]],
        callback: Optional[Callable[[Solution], None]] = None,
    ) -> List[Subscription]:
        """Register many queries in one pass; all-or-nothing.

        Each item is a query (string / twig / compiled ``Query``) or a
        ``(query, name)`` pair; ``callback`` applies to every registered
        subscription.  Compilation, planning and trie interning are shared
        across the batch through the process-wide caches, so a batch of
        structurally related queries pays the per-shape analysis once.  If
        any item fails (duplicate name, syntax error, post-stream
        registration), every subscription this call already made is rolled
        back before the error propagates.
        """
        registered: List[Subscription] = []
        try:
            for item in pairs:
                if isinstance(item, tuple):
                    query, item_name = item
                else:
                    query, item_name = item, None
                registered.append(
                    self.subscribe(query, callback=callback, name=item_name)
                )
        except BaseException:
            for subscription in reversed(registered):
                self.unregister(subscription.name)
            raise
        return registered

    def unregister(self, name: str) -> Subscription:
        """Remove a subscription (allowed mid-stream); returns its handle.

        When the last subscriber of a query shape leaves, its machine is
        removed from the dispatch index and the compiled-query cache
        reference is released.
        """
        subscription = self._subscriptions.pop(name, None)
        if subscription is None:
            raise EngineError(f"no subscription named {name!r}")
        runtime = subscription.runtime
        group = subscription.group
        if group is not None:
            # Containment-shared: the anchor machine may still be feeding
            # sibling shapes.  Tear down the group only when its last
            # subscriber leaves, and the family machine only when its last
            # group leaves.
            group.subscribers.remove(subscription)
            if not group.subscribers:
                runtime.remove_group(group)
                self._index.remove_path(group.trie)
                if not runtime.group_list:
                    self._index.remove(runtime)
                    del self._families[runtime.anchor_label]
                    shared_compiled_cache.release(runtime.compiled)
            shared_compiled_cache.release(group.compiled)
            return subscription
        runtime.subscribers.remove(subscription)
        if not runtime.subscribers:
            self._index.remove(runtime)
            # Mid-stream (private) runtimes are not in the sharing map, and
            # a private runtime's fingerprint may be claimed by a different
            # shared runtime.
            if self._by_fingerprint.get(runtime.fingerprint) is runtime:
                del self._by_fingerprint[runtime.fingerprint]
        shared_compiled_cache.release(runtime.compiled)
        return subscription

    def close(self) -> None:
        """Unregister every subscription, releasing compiled-cache references.

        Idempotent.  Without it, a dropped evaluator pins its queries in the
        process-wide :data:`~repro.core.builder.shared_compiled_cache`.
        """
        for name in list(self._subscriptions):
            self.unregister(name)

    def __enter__(self) -> "MultiQueryEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def pause(self, name: str) -> None:
        """Pause push-style delivery for the named subscription."""
        self._subscription(name).pause()

    def resume(self, name: str) -> None:
        """Resume push-style delivery for the named subscription."""
        self._subscription(name).resume()

    def _subscription(self, name: str) -> Subscription:
        try:
            return self._subscriptions[name]
        except KeyError:
            raise EngineError(f"no subscription named {name!r}") from None

    @property
    def subscriptions(self) -> List[Subscription]:
        """The registered subscriptions, in registration order."""
        return list(self._subscriptions.values())

    @property
    def machine_count(self) -> int:
        """Number of distinct TwigM machines (≤ number of subscriptions)."""
        return len(self._index)

    def stats(self) -> EngineStats:
        """Typed snapshot of the engine's sharing structure."""
        fingerprint_shared = 0
        containment_shared = 0
        families = 0
        for runtime in self._index.runtimes:
            if runtime.is_family:
                families += 1
                containment_shared += sum(
                    len(group.subscribers) for group in runtime.group_list
                )
            elif len(runtime.subscribers) > 1:
                fingerprint_shared += len(runtime.subscribers)
        return EngineStats(
            subscriptions=len(self._subscriptions),
            machines=len(self._index),
            fingerprint_shared=fingerprint_shared,
            containment_shared=containment_shared,
            families=families,
            trie_nodes=self._index.trie_node_count,
            peak_dispatch_fanout=self._index.peak_fanout,
        )

    @property
    def index(self) -> QueryIndex:
        """The label-dispatch index (diagnostics; treat as read-only)."""
        return self._index

    def __len__(self) -> int:
        return len(self._subscriptions)

    # ------------------------------------------------------------ running

    def feed(self, event: Event) -> List[Match]:
        """Feed one event through the dispatch index.

        Returns the :class:`~repro.core.results.Match` pairs (tuple-compatible
        ``(subscription name, solution)``) that became known with this event.
        Pairs are grouped by machine in machine registration order;
        subscribers sharing a machine receive consecutive pairs.  Raises when
        no queries are registered — a one-shot evaluation over zero
        subscriptions is a caller bug; a standing service that must keep
        parsing while (momentarily) having no subscribers uses :meth:`push`.
        """
        if not self._subscriptions:
            raise EngineError("no queries registered")
        return self.push(event)

    def push(self, event: Event) -> List[Match]:
        """:meth:`feed` without the empty-registration guard.

        The subscription service parses the live document even when no
        queries are registered: the global element pre-order must keep
        advancing so a subscriber that joins mid-stream sees canonical
        document-global solution identities for the remainder.
        """
        return self._kernel.run((event,), [])

    def session(
        self,
        parser: str = "native",
        encoding: Optional[str] = None,
        resumable: bool = True,
    ):
        """Open a push-mode :class:`~repro.core.session.StreamSession`.

        The session inverts the read loop: callers push byte/text chunks as
        they arrive on the wire (``session.feed_bytes(chunk)``) and receive
        the ``(name, solution)`` pairs each chunk completed, without the
        engine ever owning the source.  See :mod:`repro.core.session`.

        ``resumable=False`` disables ``session.snapshot()`` support for the
        expat backend, which otherwise spools the raw chunk prefix (the only
        way to rebuild expat's unserializable parser state on restore).
        """
        from .session import StreamSession  # deferred: session imports us

        return StreamSession(self, parser=parser, encoding=encoding, resumable=resumable)

    def document_stream(
        self,
        parser: str = "native",
        framing: str = "auto",
        encoding: Optional[str] = None,
        retain_documents: Optional[int] = None,
        retain_bytes: Optional[int] = None,
        window_documents: int = 100,
        on_window=None,
        on_document=None,
        on_error: str = "raise",
        resumable: bool = True,
        callback_adapter=None,
    ):
        """Open an *unbounded* multi-document stream session.

        Where :meth:`session` parses one bounded document, the returned
        :class:`~repro.core.docstream.DocumentStreamSession` accepts an
        endless feed of concatenated (``framing="auto"``, boundaries
        autodetected at root-close) or length-framed (``framing="framed"``)
        documents: machine state resets between documents while
        subscriptions and their ``delivered`` counters stay alive, memory
        stays flat over millions of elements, and per-window delivery
        stats accumulate.  With ``retain_documents``/``retain_bytes`` the
        last *K* documents (or *B* bytes) are spooled as replayable event
        frames so a late subscriber can join with
        ``subscribe(..., replay_window=True)``.  See
        :mod:`repro.core.docstream`.
        """
        from .docstream import DocumentStreamSession  # deferred: imports us

        return DocumentStreamSession(
            self,
            parser=parser,
            framing=framing,
            encoding=encoding,
            retain_documents=retain_documents,
            retain_bytes=retain_bytes,
            window_documents=window_documents,
            on_window=on_window,
            on_document=on_document,
            on_error=on_error,
            resumable=resumable,
            callback_adapter=callback_adapter,
        )

    def event_session(self) -> "EventStreamSession":
        """Open a push-mode session over *pre-parsed events*.

        The parse-once counterpart of :meth:`session`: callers that already
        hold decoded :class:`~repro.xmlstream.events` objects (a sharded
        worker receiving protocol-v2 binary event frames, a replayed event
        log) push them with ``feed_events`` and receive the completed
        ``(name, solution)`` pairs — no tokenizer or expat instance exists
        in this process.  See
        :class:`~repro.core.session.EventStreamSession`.
        """
        from .session import EventStreamSession  # deferred: session imports us

        return EventStreamSession(self)

    # ------------------------------------------------------------ checkpoint

    def snapshot(self) -> Dict:
        """Engine-only snapshot (no open session): the between-documents form.

        Captures subscriptions, machine state and counters; restore with
        :meth:`restore_session` on a fresh engine (which returns ``None``
        because there is no session to rebuild).  To checkpoint mid-document,
        snapshot the open session instead
        (:meth:`~repro.core.session.StreamSession.snapshot`), which embeds
        this engine state alongside the parse carry-over.
        """
        from .checkpoint import engine_state, make_snapshot

        return make_snapshot(engine_state(self), None)

    def restore_session(self, snapshot: Dict):
        """Restore a snapshot into this *fresh* engine.

        ``snapshot`` is the dict produced by
        :meth:`~repro.core.session.StreamSession.snapshot` or
        :meth:`snapshot` (possibly round-tripped through
        :func:`repro.core.checkpoint.dumps_snapshot` /
        :func:`~repro.core.checkpoint.loads_snapshot`).  The engine must have
        no subscriptions and no stream position; on success it carries the
        snapshot's subscriptions (callbacks reset to ``None``) and machine
        state, and the return value is the restored mid-document
        :class:`~repro.core.session.StreamSession` — or ``None`` for an
        engine-only snapshot.  Raises
        :class:`~repro.errors.CheckpointError` on malformed or incompatible
        snapshots, leaving the engine empty.
        """
        from ..errors import CheckpointError
        from .checkpoint import restore_engine_into, validate_snapshot
        from .docstream import DOCSTREAM_PARSER
        from .session import EVENTS_PARSER, EventStreamSession, StreamSession

        validate_snapshot(snapshot)
        try:
            restore_engine_into(self, snapshot["engine"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # A structurally broken payload (truncated/hand-edited past the
            # envelope) must surface as the documented error type, not a raw
            # KeyError traceback; restore_engine_into already tore the
            # engine back down to empty.
            raise CheckpointError(f"malformed snapshot payload: {exc!r}") from exc
        session_state = snapshot.get("session")
        if session_state is None:
            return None
        try:
            if session_state.get("parser") == EVENTS_PARSER:
                return EventStreamSession._from_snapshot(self, session_state)
            if session_state.get("parser") == DOCSTREAM_PARSER:
                from .docstream import DocumentStreamSession

                return DocumentStreamSession._from_snapshot(self, session_state)
            return StreamSession._from_snapshot(self, session_state)
        except Exception as exc:
            # Leave the engine as it was before restore_session: empty.
            self.close()
            self._kernel.reset()
            if isinstance(exc, (KeyError, IndexError, TypeError, ValueError)):
                raise CheckpointError(f"malformed snapshot payload: {exc!r}") from exc
            raise

    def stream(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[Match]:
        """Yield :class:`~repro.core.results.Match` pairs incrementally.

        An event iterable runs event by event; a document runs a parsed
        chunk at a time, the pure tokenizer or expat handing the kernel
        each tag as it is read.  Like :meth:`evaluate`, a stream that no
        family runtime reads keeps no ancestor chain.
        """
        if not self._subscriptions:
            raise EngineError("no queries registered")
        events = as_event_iterable(source)
        if events is None:
            self._check_unfinished()
        kernel = self._kernel
        if not self._started and not self._families:
            kernel.context = None  # nothing reads a chain of this document
        try:
            if events is None:
                for pairs in self._chunks(source, parser, chunk_size, True):
                    yield from pairs
            else:
                for event in events:
                    yield from kernel.run((event,), [])
        finally:
            kernel.context = self._index.context
        self._finished = True

    def evaluate(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Dict[str, ResultSet]:
        """Consume the whole stream and return a result set per subscription.

        Documents never become event objects: a fresh evaluator runs an
        in-memory ``str`` through the fused pure scan, and every other
        document (and a bailed scan's replay) a parsed chunk at a time
        through :meth:`stream`'s drivers.  Event iterables run through the
        kernel as records.
        """
        if not self._subscriptions:
            raise EngineError("no queries registered")
        events = as_event_iterable(source)
        if events is None:
            self._check_unfinished()
        kernel = self._kernel
        fresh = not self._started
        if fresh and not self._families:
            kernel.context = None  # nothing reads a chain of this document
        try:
            if events is not None:
                kernel.run(events, None)
            elif not fresh or not self._fused_pure(source, parser):
                try:
                    for _ in self._chunks(source, parser, chunk_size, False):
                        pass
                except Exception:
                    # Leave the machines clean so a later evaluate() cannot
                    # mix this failed run's partial state (or collected
                    # solutions) into its answers.  Callbacks that already
                    # fired stay fired — delivery is incremental by design.
                    kernel.reset()
                    raise
        finally:
            kernel.context = self._index.context
        self._finished = True
        return self.results()

    def _check_unfinished(self) -> None:
        """Refuse a document on a finished engine (an event stream's
        ``StartDocument`` record is refused by the kernel; expat sends none)."""
        if self._finished:
            raise StreamStateError("evaluator already finished; call reset() first")

    def _chunks(
        self, source: TextSource, parser: str, chunk_size: int, pairs: bool
    ) -> Iterator[Optional[List[Match]]]:
        """Run a document through the kernel a parsed chunk at a time,
        yielding each chunk's pairs (``None`` unless ``pairs``).

        The pure tokenizer's sink is the kernel, so each tag reaches it as
        the scan reads it; expat drives it through
        :class:`~repro.core.fastpath.FusedExpatDriver`'s callbacks, counting
        pre-order on from the engine's position.
        """
        if parser not in PARSER_BACKENDS:
            raise ValueError(
                f"unknown parser backend {parser!r}; expected one of {PARSER_BACKENDS}"
            )
        kernel = self._kernel
        reader = StreamReader(source, chunk_size=chunk_size)
        if parser == "expat":
            driver = FusedExpatDriver(kernel)
            chunks, feed, close = reader.raw_chunks(), driver.feed, driver.finish
        else:
            tokenizer = StreamTokenizer(sink=kernel)
            chunks, feed, close = reader.chunks(), tokenizer.feed, tokenizer.close
        for chunk in chunks:
            yield kernel.collect([] if pairs else None, feed, chunk)
        yield kernel.collect([] if pairs else None, close)

    def _fused_pure(self, source: TextSource, parser: str) -> bool:
        """Run a fresh in-memory document through the fused pure scan;
        False when it does not apply, or the scan bailed and left the
        engine reset."""
        if (
            parser not in ("native", "pure")
            or not isinstance(source, str)
            or StreamReader._looks_like_path(source)
        ):
            return False
        # A bailed scan is replayed through the tokenizer.  No callback may
        # fire twice, so with callbacks the deliveries wait for the scan to
        # succeed; without, they go out at once (no batch per emission
        # stays alive) and only the counters roll back.
        kernel = self._kernel
        subscriptions = list(self._subscriptions.values())
        delivered = [subscription.delivered for subscription in subscriptions]
        callbacks = any(subscription.callback for subscription in subscriptions)
        deliveries: Optional[List] = [] if callbacks else None
        elements = fused_pure_multi_evaluate(kernel, source, deliveries)
        if elements is None:
            kernel.reset()
            for subscription, count in zip(subscriptions, delivered):
                subscription.delivered = count
            return False
        if deliveries:
            kernel.deliver(deliveries)
        kernel.finish(elements)
        return True

    def results(self) -> Dict[str, ResultSet]:
        """Result sets accumulated so far, keyed by subscription name."""
        results: Dict[str, ResultSet] = {}
        for name, subscription in self._subscriptions.items():
            group = subscription.group
            if group is not None:
                # Containment-shared: the group's collector holds exactly
                # the anchor solutions whose ancestor chain satisfied this
                # shape's residual path — same document-ordered bytes a
                # private machine would have produced.
                results[name] = ResultSet(
                    query=subscription.source,
                    solutions=group.collector.in_document_order(),
                )
            else:
                results[name] = subscription.runtime.finish(subscription.source)
        return results

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Engine counters per subscription (see the module docstring for
        what the counters mean under label dispatch; all zero when the
        engine collects none)."""
        zero = EngineStatistics()
        return {
            name: (subscription.runtime.statistics or zero).as_dict()
            for name, subscription in self._subscriptions.items()
        }

    def reset(self) -> None:
        """Reset every registered machine so another stream can be processed."""
        self._kernel.reset()
        for subscription in self._subscriptions.values():
            subscription.delivered = 0
            subscription.callback_errors = 0
            subscription.last_callback_error = None


def evaluate_many(
    queries: Iterable[Union[str, QueryTree]],
    source: Union[TextSource, Iterable[Event]],
    parser: str = "native",
) -> Dict[str, ResultSet]:
    """Evaluate several queries over one pass; keys are the query strings
    (a query given twice is evaluated once)."""
    with MultiQueryEvaluator() as evaluator:
        for query in queries:
            tree_source = query if isinstance(query, str) else query.source
            if tree_source not in evaluator._subscriptions:
                evaluator.subscribe(query, name=tree_source)
        return evaluator.evaluate(source, parser=parser)
