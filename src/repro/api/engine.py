"""The unified local engine: subscriptions, documents, sessions, snapshots.

:class:`Engine` subsumes the two historical evaluator classes behind one
verb set:

* ``TwigMEvaluator`` (one query, one machine) — single-query use is just an
  engine with one subscription, which is what ``repro.evaluate`` runs too.
  Measured on the perfbench one-shot inputs (seed 2005, 10 alternating
  runs, median process CPU), a one-subscription :meth:`Engine.evaluate`
  costs 1.03× ``repro.evaluate`` on the recursive tree (expat) and 0.98× on
  protein (pure).  Those queries carry predicates; a lone predicate-free
  path rides a containment family here, which ``repro.evaluate`` never
  does, and costs up to 2.1× the CPU of a machine of its own;
* ``MultiQueryEvaluator`` (indexed subscriptions) — :class:`Engine` wraps
  one (see :attr:`Engine.core`) and inherits its sharing machinery: shared
  compilation, shared machines, containment families, label dispatch.

Delivery is uniform: sessions, :meth:`Engine.stream` and subscription
callbacks all speak :class:`~repro.core.results.Match`.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import (
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

from ..core.docstream import DocumentStreamSession, WindowStats
from ..core.multi import EngineStats, MultiQueryEvaluator, Subscription
from ..core.results import Match, ResultSet, Solution
from ..core.session import StreamSession
from ..xmlstream.events import Event
from ..xmlstream.reader import TextSource
from ..xpath.ast import QueryTree
from .config import EngineConfig
from .query import Query

#: What the engine accepts wherever a query is expected.
QuerySource = Union[str, Query, QueryTree]

#: Push-style delivery callback: receives every match as it becomes known.
MatchCallback = Callable[[Match], None]


class Engine:
    """One local evaluation engine for any number of standing queries.

    Construct with an :class:`EngineConfig` (or field overrides)::

        engine = Engine(EngineConfig(parser="expat"))
        engine = Engine(parser="expat")            # equivalent shorthand

    then ``subscribe`` queries and drive a stream one of three ways:
    :meth:`evaluate` (whole document), :meth:`stream` (pull matches
    incrementally) or :meth:`open` (push chunks in as they arrive).
    """

    def __init__(self, config: Optional[EngineConfig] = None, **overrides: Any) -> None:
        base = config if config is not None else EngineConfig()
        if overrides:
            base = dataclasses.replace(base, **overrides)
        self._config = base
        self._engine = MultiQueryEvaluator(collect_statistics=base.collect_statistics)

    # ------------------------------------------------------------ properties

    @property
    def config(self) -> EngineConfig:
        """The engine's immutable configuration."""
        return self._config

    @property
    def core(self) -> MultiQueryEvaluator:
        """The underlying :class:`~repro.core.multi.MultiQueryEvaluator`.

        Exposed for interop with code written against the legacy surface
        (checkpoint internals, diagnostics); the facade owns its lifecycle.
        """
        return self._engine

    @property
    def subscriptions(self) -> List[Subscription]:
        """The registered subscriptions, in registration order."""
        return self._engine.subscriptions

    @property
    def machine_count(self) -> int:
        """Number of distinct TwigM machines (≤ number of subscriptions).

        .. deprecated:: 1.4
           Use :meth:`stats` — ``engine.stats().machines`` — which also
           reports the sharing breakdown, trie size and dispatch fanout.
        """
        warnings.warn(
            "Engine.machine_count is deprecated; use Engine.stats().machines "
            "(EngineStats also carries the sharing breakdown)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._engine.machine_count

    def stats(self) -> EngineStats:
        """Typed snapshot of the engine's sharing structure.

        Returns an :class:`~repro.core.multi.EngineStats` (frozen): how many
        subscriptions are registered, how many machines actually run, how
        the difference splits between fingerprint dedup and containment
        sharing, and the dispatch-index shape (trie nodes, peak per-tag
        fanout).
        """
        return self._engine.stats()

    def __len__(self) -> int:
        return len(self._engine)

    # ---------------------------------------------------------- subscriptions

    def subscribe(
        self,
        query: QuerySource,
        callback: Optional[MatchCallback] = None,
        name: Optional[str] = None,
    ) -> Subscription:
        """Register a standing query; returns its subscription handle.

        ``query`` may be a source string, a compiled :class:`Query`, or a
        normalized query twig.  ``callback``, when given, receives a
        :class:`~repro.core.results.Match` the moment each solution is known
        (push-style delivery); results are always also collected for
        pull-style access via :meth:`results`.  Subscribing is allowed
        mid-stream with the engine's remainder-only semantics.
        """
        subscription = self._engine.subscribe(query, name=name)
        if callback is not None:
            subscription.callback = _adapt_callback(subscription.name, callback)
        return subscription

    def subscribe_many(
        self,
        pairs: Iterable[Union[QuerySource, Tuple[QuerySource, Optional[str]]]],
        callback: Optional[MatchCallback] = None,
    ) -> List[Subscription]:
        """Register a batch of queries in one pass; all-or-nothing.

        Each item is a query (source string / :class:`Query` / twig) or a
        ``(query, name)`` pair.  ``callback``, when given, receives
        :class:`~repro.core.results.Match` objects for every subscription
        in the batch.  Compilation, sharing analysis and trie interning are
        amortized across the batch; if any item fails, every subscription
        this call already made is rolled back before the error propagates.
        Over a remote connection, :meth:`RemoteEngine.subscribe_many
        <repro.api.remote.RemoteEngine.subscribe_many>` ships the whole
        batch in one wire frame.
        """
        subscriptions = self._engine.subscribe_many(pairs)
        if callback is not None:
            for subscription in subscriptions:
                subscription.callback = _adapt_callback(subscription.name, callback)
        return subscriptions

    def unsubscribe(self, subscription: Union[str, Subscription]) -> Subscription:
        """Drop a subscription (by handle or name); allowed mid-stream."""
        name = (
            subscription if isinstance(subscription, str) else subscription.name
        )
        return self._engine.unregister(name)

    def pause(self, name: str) -> None:
        """Pause push-style delivery for the named subscription."""
        self._engine.pause(name)

    def resume(self, name: str) -> None:
        """Resume push-style delivery for the named subscription."""
        self._engine.resume(name)

    # ------------------------------------------------------------ evaluation

    def evaluate(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> Dict[str, ResultSet]:
        """Consume a whole document; returns a result set per subscription.

        Engages the fused fast paths (bulk scan / expat callbacks driving
        the dispatch index) under exactly the legacy selection rules.
        """
        return self._engine.evaluate(
            source,
            parser=parser if parser is not None else self._config.parser,
            chunk_size=(
                chunk_size if chunk_size is not None else self._config.chunk_size
            ),
        )

    def stream(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> Iterator[Match]:
        """Yield :class:`~repro.core.results.Match` pairs incrementally."""
        return self._engine.stream(
            source,
            parser=parser if parser is not None else self._config.parser,
            chunk_size=(
                chunk_size if chunk_size is not None else self._config.chunk_size
            ),
        )

    def feed(self, event: Event) -> List[Match]:
        """Feed one already-parsed event; returns the matches it completed."""
        return self._engine.feed(event)

    def open(
        self,
        parser: Optional[str] = None,
        encoding: Optional[str] = None,
        resumable: Optional[bool] = None,
    ) -> StreamSession:
        """Open a push-mode parse session for one document.

        The session accepts wire chunks split at arbitrary byte offsets
        (``feed_bytes`` / ``feed_text`` / ``finish``) and returns the
        matches each chunk completed; see
        :class:`~repro.core.session.StreamSession`.
        """
        return self._engine.session(
            parser=parser if parser is not None else self._config.parser,
            encoding=encoding,
            resumable=(
                resumable if resumable is not None else self._config.resumable
            ),
        )

    def document_stream(
        self,
        parser: Optional[str] = None,
        framing: str = "auto",
        encoding: Optional[str] = None,
        retain_documents: Optional[int] = None,
        retain_bytes: Optional[int] = None,
        window_documents: int = 100,
        on_window: Optional[Callable[[WindowStats], None]] = None,
        on_error: str = "raise",
        resumable: Optional[bool] = None,
    ) -> DocumentStreamSession:
        """Open an *unbounded* stream of documents (infinite-stream mode).

        Unlike :meth:`open` — one bounded document ended by ``finish()`` —
        the returned :class:`~repro.core.docstream.DocumentStreamSession`
        accepts an endless feed of concatenated documents
        (``framing="auto"``: boundaries autodetected at root-close) or
        length-framed units (``framing="framed"``).  Between documents the
        machines reset (memory stays flat over millions of elements) while
        subscriptions and their delivery counters stay alive; every
        ``window_documents`` completed documents a
        :class:`~repro.core.docstream.WindowStats` is sealed.

        With ``retain_documents`` / ``retain_bytes`` set, the session keeps
        a rolling spool of recent documents as replayable event frames, and
        ``session.subscribe(query, callback, replay_window=True)`` gives a
        late subscriber the retained window *plus* seamless live delivery —
        exactly once, no duplicate, no gap.  Callbacks registered through
        the session receive :class:`~repro.core.results.Match` objects,
        matching every other facade delivery surface.
        """
        return self._engine.document_stream(
            parser=parser if parser is not None else self._config.parser,
            framing=framing,
            encoding=encoding,
            retain_documents=retain_documents,
            retain_bytes=retain_bytes,
            window_documents=window_documents,
            on_window=on_window,
            on_error=on_error,
            resumable=(
                resumable if resumable is not None else self._config.resumable
            ),
            callback_adapter=_adapt_callback,
        )

    # ------------------------------------------------------------ state

    def results(self) -> Dict[str, ResultSet]:
        """Result sets accumulated so far, keyed by subscription name."""
        return self._engine.results()

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Engine counters per subscription (label-dispatch semantics)."""
        return self._engine.statistics()

    def reset(self) -> None:
        """Reset every machine so the next document can be processed."""
        self._engine.reset()

    def snapshot(self) -> Dict[str, Any]:
        """Engine-only snapshot (between documents); see :meth:`restore`.

        To checkpoint mid-document, snapshot the open session returned by
        :meth:`open` instead.
        """
        return self._engine.snapshot()

    def restore(self, snapshot: Dict[str, Any]) -> Optional[StreamSession]:
        """Restore a snapshot into this *fresh* engine.

        Accepts both engine-only snapshots (returns ``None``) and
        mid-document session snapshots (returns the restored live session).
        Raises :class:`~repro.errors.CheckpointError` on malformed or
        incompatible payloads, leaving the engine empty.
        """
        return self._engine.restore_session(snapshot)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Unsubscribe everything, releasing compiled-query cache refs."""
        self._engine.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<Engine parser={self._config.parser!r} "
            f"subscriptions={len(self._engine)} "
            f"machines={self._engine.machine_count}>"
        )


def _adapt_callback(name: str, callback: MatchCallback) -> Callable[[Solution], None]:
    """Wrap a Match callback for the core's Solution-typed delivery hook."""

    def deliver(solution: Solution) -> None:
        callback(Match(name, solution))

    return deliver


__all__ = ["Engine", "EngineStats", "MatchCallback", "QuerySource"]
