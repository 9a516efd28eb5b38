"""The asyncio subscription server: one shared engine, many subscribers.

Architecture::

    client A ──subscribe──▶ ┌──────────────────────────────┐
    client B ──subscribe──▶ │  ServiceServer               │
                            │   MultiQueryEvaluator (one)  │──▶ outbox A ──▶ A
    publisher ──feed/──────▶│   StreamSession (per doc)    │──▶ outbox B ──▶ B
               finish       └──────────────────────────────┘

* **One engine, one stream.**  All connections share a single
  :class:`~repro.core.multi.MultiQueryEvaluator`; ``feed`` frames from any
  connection advance the one global document through a push-mode
  :class:`~repro.core.session.StreamSession`.  Subscribing mid-document is
  allowed and follows the engine's remainder-only semantics.
* **Per-connection subscription ownership.**  A subscription belongs to the
  connection that created it: only that connection may unsubscribe it, its
  solutions go only to that connection's outbox, and closing the connection
  unregisters everything it owned (releasing compiled-query cache refs).
* **Bounded outboxes, drop-oldest backpressure.**  Each connection has a
  bounded frame queue drained by its own writer task.  The parse loop never
  blocks on a slow consumer: when an outbox is full the *oldest* frame is
  dropped and counted (per connection and per subscription), favouring
  fresh solutions — the stock-ticker trade-off.
* **Document lifecycle.**  ``finish`` ends the current document: the
  publisher gets a ``finished`` reply, every subscriber connection gets an
  ``eof`` frame, and the engine resets for the next document while keeping
  all subscriptions registered (standing queries).  A malformed chunk
  aborts the document the same way (``eof`` with ``aborted``), leaving the
  machines clean.

Parsing runs synchronously on the event loop — chunks are bounded by
:data:`~repro.service.protocol.MAX_FRAME_BYTES`, so each ``feed`` is a
bounded slice of CPU.  Sharding across processes is the roadmap's next step.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import os
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.builder import shared_compiled_cache
from ..core.docstream import DocumentBoundaryScanner, DocumentStreamSession
from ..core.multi import MultiQueryEvaluator
from ..core.results import Solution
from ..core.session import StreamSession
from ..errors import CheckpointError, ViteXError
from .protocol import (
    MAX_BATCH_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_batch,
    encode_frame,
    error_frame,
    solution_to_payload,
)

#: Default TCP port (unassigned range; "ViteX" on a phone keypad is 84839,
#: which does not fit, so the year of the paper it reproduces: 2005 → 8005).
DEFAULT_PORT = 8005

#: Default per-connection outbox bound (frames).
DEFAULT_OUTBOX_LIMIT = 4096

#: Format marker of the service checkpoint file (wraps a core snapshot with
#: server-level counters and subscription routing metadata).
CHECKPOINT_FORMAT = "vitex-checkpoint"

#: Version of the service checkpoint layout.
CHECKPOINT_VERSION = 1

#: Version of the *sharded* checkpoint layout: a list of per-worker core
#: snapshots (``shards``) plus a routing table in the server metadata.
#: Written by :class:`repro.service.sharding.ShardedServiceServer`; both
#: server classes can restore either version (a mid-document sharded
#: checkpoint needs as many shards as workers, see :meth:`restore_state`).
CHECKPOINT_VERSION_SHARDED = 2

#: Version of the *stream-mode* checkpoint layout: the ``snapshot`` is a
#: :class:`~repro.core.docstream.DocumentStreamSession` snapshot (carrying
#: the retention-spool frames alongside the engine state) and the server
#: metadata gains a ``stream`` section with the session's configuration
#: and idle/heartbeat counters.  Restorable on the single-process server
#: only; the sharded front refuses it (its stream state spans processes).
CHECKPOINT_VERSION_STREAM = 3

#: Default on-disk checkpoint location (relative to the server's cwd).
DEFAULT_CHECKPOINT_PATH = "vitex-checkpoint.json"


def _encode_checkpoint(payload: Dict[str, Any]) -> bytes:
    """Serialize a checkpoint payload (thread-safe: payload is isolated)."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        + "\n"
    ).encode("utf-8")


def _write_atomically(target: str, data: bytes) -> None:
    """Write next to the final location, then ``os.replace`` into place."""
    tmp = f"{target}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, target)


class _SubscriptionHandle:
    """Server-side bookkeeping for one registered subscription."""

    __slots__ = (
        "name",
        "query",
        "connection",
        "callback",
        "delivered",
        "dropped",
        "callback_errors",
        "detached",
    )

    def __init__(
        self,
        name: str,
        query: str,
        connection: Optional["_Connection"],
        callback: Optional[Callable[[str, Solution], None]] = None,
    ) -> None:
        self.name = name
        self.query = query
        self.connection = connection  # None for server-local subscriptions
        self.callback = callback
        self.delivered = 0
        self.dropped = 0
        self.callback_errors = 0
        #: True for a connection-owned subscription restored from a
        #: checkpoint whose owner has not re-attached yet: a ``subscribe``
        #: frame with the same name (and an equivalent query) claims it.
        self.detached = False


class _Connection:
    """One client connection: reader state, bounded outbox, writer task."""

    __slots__ = (
        "reader",
        "writer",
        "outbox",
        "wake",
        "writer_task",
        "handler_task",
        "names",
        "delivered",
        "dropped",
        "peer",
    )

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.outbox: Deque[Tuple[Optional[str], bytes]] = deque()
        self.wake = asyncio.Event()
        self.writer_task: Optional[asyncio.Task] = None
        self.handler_task: Optional[asyncio.Task] = None
        self.names: List[str] = []  # subscriptions owned, registration order
        self.delivered = 0
        self.dropped = 0
        try:
            self.peer = writer.get_extra_info("peername")
        except Exception:  # pragma: no cover - transport without peername
            self.peer = None


class ServiceServer:
    """Long-lived subscription service over one shared TwigM engine."""

    def __init__(
        self,
        parser: str = "native",
        outbox_limit: int = DEFAULT_OUTBOX_LIMIT,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: Optional[float] = None,
        batch_frames: bool = True,
    ) -> None:
        if outbox_limit <= 0:
            raise ValueError("outbox_limit must be positive")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        self.parser = parser
        self._outbox_limit = outbox_limit
        #: When True (the default) the writer coalesces a multi-frame drain
        #: into one JSON array line (:func:`~repro.service.protocol.
        #: encode_batch`) — one syscall and one client wake-up per flush
        #: instead of per frame.  False keeps the one-line-per-frame wire
        #: shape (used by the before/after benchmark note).
        self._batch_frames = batch_frames
        self._engine = MultiQueryEvaluator(collect_statistics=False)
        self._session: Optional[StreamSession] = None
        self._connections: set = set()
        self._subscriptions: Dict[str, _SubscriptionHandle] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        # Checkpointing: target path for /checkpoint frames without an
        # explicit path and for the periodic auto-checkpoint task.
        self.checkpoint_path = checkpoint_path or DEFAULT_CHECKPOINT_PATH
        self._checkpoint_interval = checkpoint_interval
        self._checkpoint_task: Optional[asyncio.Task] = None
        self._checkpoints_written = 0
        self._last_checkpoint_bytes = 0
        self._last_checkpoint_at: Optional[float] = None
        self._last_checkpoint_error: Optional[str] = None
        # Lifetime counters for /stats.
        self._documents = 0
        self._aborted_documents = 0
        self._elements_total = 0
        self._solutions_total = 0
        self._busy_seconds = 0.0
        self._started_at = time.monotonic()
        # Infinite-stream mode (stream_open): an unbounded multi-document
        # session with rolling retention, replacing the per-document
        # feed/finish lifecycle until stream_close.
        self._stream: Optional[DocumentStreamSession] = None
        #: Server-side boundary splitter, kept in lockstep with the stream
        #: session's own scanner so each document's eof broadcast lands
        #: between that document's solutions and the next document's.
        self._stream_splitter: Optional[DocumentBoundaryScanner] = None
        self._stream_options: Dict[str, Any] = {}
        self._stream_docs_acked = 0
        self._stream_failed_acked = 0
        self._stream_last_feed = 0.0
        self._stream_monitor_task: Optional[asyncio.Task] = None
        self._heartbeats_sent = 0
        self._idle_stream_closures = 0

    # ------------------------------------------------------------ lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        """Bind and start accepting connections (use ``port=0`` for an
        ephemeral port; see :attr:`address`)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_FRAME_BYTES
        )
        if self._checkpoint_interval is not None and self._checkpoint_task is None:
            self._checkpoint_task = asyncio.ensure_future(self._auto_checkpoint_loop())

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The first bound ``(host, port)``, once started."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Block serving until cancelled or :meth:`close` is called."""
        if self._server is None:
            raise RuntimeError("call start() first")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def close(self) -> None:
        """Graceful teardown: stop accepting, drop connections, release the
        engine's compiled-query cache references.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        await self._stop_stream_monitor()
        if self._stream is not None:
            self._fold_stream_counters()
            self._stream.close()
            self._stream = None
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
            self._checkpoint_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        connections = list(self._connections)
        for connection in connections:
            await self._drop_connection(connection)
        # Reap the per-connection handler tasks so shutdown leaves no
        # pending tasks behind for the loop to complain about.
        current = asyncio.current_task()
        for connection in connections:
            task = connection.handler_task
            if task is None or task is current:
                continue
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._session = None
        self._engine.close()

    async def drain(self, timeout: float = 10.0) -> None:
        """Graceful shutdown prelude (``vitex serve`` on SIGTERM).

        Stops accepting new connections, ends the current document — an
        abort carrying ``"server draining"`` if one is mid-parse, a clean
        ``eof`` broadcast otherwise, both marked ``"draining": true`` so
        clients can distinguish shutdown from document lifecycle — then
        waits (bounded) for every connection's outbox to flush.  The caller
        still runs :meth:`close` afterwards.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stream is not None:
            self._close_stream_session(reason="server draining")
            self._broadcast_eof(self._documents, aborted=False, draining=True)
        elif self._session is not None:
            self._abort_document("server draining", draining=True)
        else:
            self._broadcast_eof(self._documents, aborted=False, draining=True)
        await self._flush_outboxes(timeout)

    async def _flush_outboxes(self, timeout: float) -> None:
        """Wait until every connection outbox has been written (bounded)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(not connection.outbox for connection in self._connections):
                return
            await asyncio.sleep(0.02)

    @property
    def engine(self) -> MultiQueryEvaluator:
        """The shared engine (read-mostly; the server owns its lifecycle)."""
        return self._engine

    # -------------------------------------------------- local subscriptions

    def add_local_subscription(
        self,
        query: str,
        name: Optional[str] = None,
        callback: Optional[Callable[[str, Solution], None]] = None,
    ) -> str:
        """Register a server-owned standing query (``vitex serve --watch``).

        Solutions invoke ``callback(name, solution)`` on the event loop
        instead of travelling to a connection.  Returns the subscription
        name.
        """
        subscription = self._engine.subscribe(query, name=name)
        handle = _SubscriptionHandle(
            subscription.name, subscription.query, None, callback
        )
        self._subscriptions[subscription.name] = handle
        return subscription.name

    # ------------------------------------------------------------ stats

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: engine shape, rates, delivery counters.

        The flat keys are the stable public schema; the ``workers`` list
        adds a per-worker breakdown (one inline entry here; one entry per
        worker process on the sharded server) with the same metric names,
        so dashboards can consume either shape.
        """
        elements = self._elements_total
        if self._session is not None:
            elements += self._session.element_count
        if self._stream is not None:
            elements += self._stream.elements
        busy = self._busy_seconds
        events_per_sec = round(elements / busy, 1) if busy > 0 else 0.0
        payload: Dict[str, Any] = {
            "type": "stats",
            "parser": self.parser,
            "machine_count": self._engine.machine_count,
            "subscriptions": len(self._subscriptions),
            "connections": len(self._connections),
            "documents": self._documents,
            "aborted_documents": self._aborted_documents,
            "document_open": self._session is not None,
            "elements": elements,
            "events_per_sec": events_per_sec,
            "solutions": self._solutions_total,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "checkpoints_written": self._checkpoints_written,
            "workers": [
                {
                    "worker": 0,
                    "mode": "inline",
                    "pid": os.getpid(),
                    "alive": True,
                    "subscriptions": len(self._subscriptions),
                    "machine_count": self._engine.machine_count,
                    "elements": elements,
                    "events_per_sec": events_per_sec,
                    "queue_depth": sum(
                        len(connection.outbox) for connection in self._connections
                    ),
                }
            ],
            "subscription_detail": {
                name: {
                    "query": handle.query,
                    "delivered": handle.delivered,
                    "dropped": handle.dropped,
                    "callback_errors": handle.callback_errors,
                    "local": handle.connection is None and not handle.detached,
                    "detached": handle.detached,
                }
                for name, handle in self._subscriptions.items()
            },
        }
        payload["stream_open"] = self._stream_mode()
        payload["heartbeats_sent"] = self._heartbeats_sent
        payload["idle_stream_closures"] = self._idle_stream_closures
        stream_stats = self._stream_stats()
        if stream_stats is not None:
            payload["stream"] = stream_stats
        if self._last_checkpoint_at is not None:
            payload["last_checkpoint_age_s"] = round(
                time.monotonic() - self._last_checkpoint_at, 3
            )
            payload["last_checkpoint_bytes"] = self._last_checkpoint_bytes
        if self._last_checkpoint_error is not None:
            payload["last_checkpoint_error"] = self._last_checkpoint_error
        return payload

    def _stream_mode(self) -> bool:
        """Whether an infinite-stream session is open (overridden sharded)."""
        return self._stream is not None

    def _stream_stats(self) -> Optional[Dict[str, Any]]:
        """The ``stream`` section of /stats, or None outside stream mode."""
        if self._stream is None:
            return None
        payload = self._stream.stats()
        payload.update(self._stream_monitor_stats())
        return payload

    def _stream_monitor_stats(self) -> Dict[str, Any]:
        """Idle/heartbeat configuration and counters for /stats."""
        options = self._stream_options
        return {
            "idle_timeout": options.get("idle_timeout"),
            "heartbeat_interval": options.get("heartbeat_interval"),
            "heartbeats_sent": self._heartbeats_sent,
            "idle_stream_closures": self._idle_stream_closures,
        }

    # ------------------------------------------------------------ checkpoint

    def checkpoint_state(self) -> Dict[str, Any]:
        """The full service checkpoint payload (JSON-able).

        Wraps the core engine/session snapshot with server-level counters
        and the subscription routing table (which names were client-owned —
        restored as *detached*, re-claimable via ``subscribe`` — and which
        were server-local).  Taken between frames, so it is always aligned
        to a feed-chunk boundary.
        """
        if self._stream is not None:
            snapshot = self._stream.snapshot()
            version = CHECKPOINT_VERSION_STREAM
        elif self._session is not None:
            snapshot = self._session.snapshot()
            version = CHECKPOINT_VERSION
        else:
            snapshot = self._engine.snapshot()
            version = CHECKPOINT_VERSION
        server_meta: Dict[str, Any] = {
            "parser": self.parser,
            "documents": self._documents,
            "aborted_documents": self._aborted_documents,
            "elements_total": self._elements_total,
            "solutions_total": self._solutions_total,
            "subscriptions": {
                name: {
                    "delivered": handle.delivered,
                    "dropped": handle.dropped,
                    "callback_errors": handle.callback_errors,
                    "local": handle.connection is None and not handle.detached,
                }
                for name, handle in self._subscriptions.items()
            },
        }
        if version == CHECKPOINT_VERSION_STREAM:
            server_meta["stream"] = {
                **{
                    key: self._stream_options.get(key)
                    for key in (
                        "retain_documents",
                        "retain_bytes",
                        "window_documents",
                        "on_error",
                        "idle_timeout",
                        "heartbeat_interval",
                    )
                },
                "heartbeats_sent": self._heartbeats_sent,
                "idle_stream_closures": self._idle_stream_closures,
            }
        return {
            "format": CHECKPOINT_FORMAT,
            "version": version,
            "server": server_meta,
            "snapshot": snapshot,
        }

    def save_checkpoint(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Write the current checkpoint to disk atomically; returns metadata.

        The file is written next to its final location and moved into place
        with ``os.replace``, so a crash mid-write never corrupts the
        previous checkpoint.
        """
        target = path or self.checkpoint_path
        data = _encode_checkpoint(self.checkpoint_state())
        _write_atomically(target, data)
        return self._record_checkpoint(target, data)

    def _record_checkpoint(self, target: str, data: bytes) -> Dict[str, Any]:
        self._checkpoints_written += 1
        self._last_checkpoint_bytes = len(data)
        self._last_checkpoint_at = time.monotonic()
        self._last_checkpoint_error = None
        return {
            "path": target,
            "bytes": len(data),
            "document": self._documents,
            "mid_document": self._document_in_progress(),
            "subscriptions": len(self._subscriptions),
        }

    def _document_in_progress(self) -> bool:
        """Whether a document is currently open (overridden by sharding)."""
        if self._stream is not None:
            return self._stream.in_document
        return self._session is not None

    def _client_checkpoint_path(self, path: str) -> str:
        """Confine a *client-supplied* path to the checkpoint directory.

        The checkpoint/restore frames are the only protocol surface that
        names server-side files; without this check any connected client
        could overwrite (checkpoint) or probe (restore) arbitrary paths.
        Clients may choose a file *name*, but only inside the directory of
        the server's configured checkpoint path.  Local callers (CLI
        ``vitex resume``, :meth:`save_checkpoint`) are not restricted.
        """
        base = os.path.dirname(os.path.abspath(self.checkpoint_path))
        candidate = os.path.abspath(
            path if os.path.isabs(path) else os.path.join(base, path)
        )
        if os.path.dirname(candidate) != base:
            raise ProtocolError(
                f"checkpoint paths are confined to {base!r} on this server"
            )
        return candidate

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Restore a checkpoint payload into this (fresh) server.

        Allowed only while no document is in progress and no subscriptions
        exist — i.e. at startup (``vitex resume``) or on an idle, empty
        server via the ``restore`` frame.  Client-owned subscriptions come
        back *detached*: solutions are discarded until their owner
        re-subscribes under the same name with an equivalent query.
        """
        if self._session is not None or self._stream is not None:
            raise CheckpointError("cannot restore while a document is in progress")
        if self._subscriptions:
            raise CheckpointError("cannot restore over existing subscriptions")
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"not a {CHECKPOINT_FORMAT} payload "
                f"(format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if version not in (
            CHECKPOINT_VERSION,
            CHECKPOINT_VERSION_SHARDED,
            CHECKPOINT_VERSION_STREAM,
        ):
            raise CheckpointError(f"unsupported checkpoint version {version!r}")
        meta = payload.get("server") or {}
        engine = MultiQueryEvaluator(collect_statistics=False)
        stream: Optional[DocumentStreamSession] = None
        if version == CHECKPOINT_VERSION_STREAM:
            restored = engine.restore_session(payload["snapshot"])
            if not isinstance(restored, DocumentStreamSession):
                raise CheckpointError(
                    "version-3 checkpoint did not restore a stream session"
                )
            stream = restored
            session = None
        elif version == CHECKPOINT_VERSION:
            session = engine.restore_session(payload["snapshot"])
        else:
            session = self._restore_sharded_into(engine, payload, meta)
        old_engine = self._engine
        self._engine = engine
        self._session = session
        self._stream = stream
        if stream is not None:
            # Clone the session's boundary scanner so the server-side
            # splitter resumes mid-document in lockstep with it.
            scanner = stream._scanner
            self._stream_splitter = (
                DocumentBoundaryScanner.restore_state(scanner.snapshot_state())
                if scanner is not None
                else DocumentBoundaryScanner()
            )
            stream_meta = meta.get("stream") or {}
            self._stream_options = {
                key: stream_meta.get(key)
                for key in (
                    "retain_documents",
                    "retain_bytes",
                    "window_documents",
                    "on_error",
                    "idle_timeout",
                    "heartbeat_interval",
                )
            }
            self._heartbeats_sent = stream_meta.get("heartbeats_sent", 0)
            self._idle_stream_closures = stream_meta.get("idle_stream_closures", 0)
            self._stream_docs_acked = stream.documents
            self._stream_failed_acked = stream.documents_failed
            self._stream_last_feed = time.monotonic()
        old_engine.close()
        self.parser = meta.get("parser", self.parser)
        self._documents = meta.get("documents", 0)
        self._aborted_documents = meta.get("aborted_documents", 0)
        self._elements_total = meta.get("elements_total", 0)
        self._solutions_total = meta.get("solutions_total", 0)
        sub_meta = meta.get("subscriptions", {})
        for name, subscription in engine._subscriptions.items():
            info = sub_meta.get(name, {})
            handle = _SubscriptionHandle(name, subscription.source, None)
            handle.delivered = info.get("delivered", 0)
            handle.dropped = info.get("dropped", 0)
            handle.callback_errors = info.get("callback_errors", 0)
            handle.detached = not info.get("local", False)
            self._subscriptions[name] = handle

    def _restore_sharded_into(
        self,
        engine: MultiQueryEvaluator,
        payload: Dict[str, Any],
        meta: Dict[str, Any],
    ) -> Optional[StreamSession]:
        """Load a version-2 (sharded) checkpoint into one engine.

        A single shard is just a core snapshot.  Multiple shards can only be
        merged between documents (every shard idle): idle machines are all
        in their start state, so re-subscribing each routed query rebuilds
        the exact same machine set, deduplicated by the engine.  A
        mid-document multi-shard checkpoint carries per-shard parse state
        and must be resumed with a matching worker count instead.
        """
        shards = payload.get("shards")
        if not isinstance(shards, list) or not shards:
            raise CheckpointError("sharded checkpoint has no shards")
        if len(shards) == 1:
            return engine.restore_session(shards[0])
        if any(
            isinstance(shard, dict) and shard.get("session") is not None
            for shard in shards
        ):
            raise CheckpointError(
                f"mid-document sharded checkpoint has {len(shards)} shards; "
                "resume it with --workers matching the original worker count"
            )
        for name, info in (meta.get("subscriptions") or {}).items():
            query = info.get("query")
            if not isinstance(query, str) or not query:
                raise CheckpointError(
                    f"sharded checkpoint is missing the query for "
                    f"subscription {name!r}"
                )
            subscription = engine.subscribe(query, name=name)
            if info.get("paused"):
                subscription.pause()
        return None

    def restore_from_file(self, path: str) -> Dict[str, Any]:
        """Read and restore a checkpoint file; returns summary metadata."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"malformed checkpoint {path!r}: {exc}") from exc
        self.restore_state(payload)
        elements = self._elements_total
        if self._session is not None:
            elements += self._session.element_count
        if self._stream is not None:
            elements += self._stream.elements
        return {
            "path": path,
            "document": self._documents,
            "mid_document": self._document_in_progress(),
            "stream_open": self._stream is not None,
            "subscriptions": len(self._subscriptions),
            "elements": elements,
        }

    def rebind_local_callback(
        self,
        name: str,
        callback: Optional[Callable[[str, Solution], None]],
        query: Optional[str] = None,
    ) -> bool:
        """Re-attach a delivery callback to a restored server-local
        subscription (callbacks never travel through checkpoints); returns
        False when no local subscription has that name.

        When ``query`` is given it must be equivalent to the restored one —
        the same name-only guard the network re-attach path enforces:
        silently wiring a callback labelled with one query to a machine
        evaluating another would mislabel every delivered solution.  Raises
        :class:`~repro.errors.CheckpointError` on a mismatch so ``vitex
        resume --watch`` fails loudly instead of answering the wrong
        question.
        """
        handle = self._subscriptions.get(name)
        if handle is None or handle.connection is not None or handle.detached:
            return False
        if query is not None and not self._query_equivalent(name, handle, query):
            raise CheckpointError(
                f"local subscription {name!r} was restored for query "
                f"{handle.query!r}; refusing to re-bind it to {query!r}"
            )
        handle.callback = callback
        return True

    def _query_equivalent(
        self, name: str, handle: _SubscriptionHandle, query: str
    ) -> bool:
        """True when ``query`` is the restored query (source or fingerprint)."""
        if query == handle.query:
            return True
        subscription = self._engine._subscriptions.get(name)
        if subscription is None:
            return False
        # A family member's runtime is the shared anchor (``//c``); the
        # member's own shape is its residual group's.
        owner = subscription.group or subscription.runtime
        compiled = shared_compiled_cache.acquire(query)
        try:
            return compiled.fingerprint == owner.fingerprint
        finally:
            shared_compiled_cache.release(compiled)

    async def _capture_checkpoint(self) -> Dict[str, Any]:
        """Capture the checkpoint payload for the periodic writer.

        A coroutine so the sharded server can override it with worker
        snapshot gathering; here it is just :meth:`checkpoint_state`.
        """
        return self.checkpoint_state()

    async def _auto_checkpoint_loop(self) -> None:
        """Periodically write the checkpoint file (armed by ``start()``).

        The state capture itself runs between frames on the event loop, so
        every auto-checkpoint is chunk-aligned; the expensive part — JSON
        encoding (which can embed a large expat spool) and the disk write —
        is pushed to a worker thread so the parse loop never stalls on it.
        The captured payload tree is fully materialised (no live-object
        references), so the loop can keep mutating engine state while the
        thread encodes.  Failures are recorded in /stats rather than
        killing the server.
        """
        interval = self._checkpoint_interval
        assert interval is not None
        try:
            while True:
                await asyncio.sleep(interval)
                try:
                    target = self.checkpoint_path
                    payload = await self._capture_checkpoint()
                    data = await asyncio.to_thread(_encode_checkpoint, payload)
                    await asyncio.to_thread(_write_atomically, target, data)
                    self._record_checkpoint(target, data)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    self._last_checkpoint_error = str(exc)
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------ connection I/O

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer)
        self._connections.add(connection)
        connection.handler_task = asyncio.current_task()
        connection.writer_task = asyncio.ensure_future(self._writer_loop(connection))
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Frame exceeded MAX_FRAME_BYTES: protocol violation.
                    self._enqueue(
                        connection,
                        None,
                        encode_frame(error_frame("frame too large; closing")),
                    )
                    break
                if not line:
                    break
                if line.strip():
                    await self._dispatch(connection, line)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Cancelled by close(): finish cleanly so the reaping await in
            # close() (and the loop's shutdown) sees a completed task.
            pass
        finally:
            await self._drop_connection(connection)

    async def _writer_loop(self, connection: _Connection) -> None:
        """Drain the outbox; the only place that awaits socket writes.

        A drain that finds more than one queued frame ships them as a
        single JSON array line (unless ``batch_frames=False``): under
        solution fan-out load this collapses hundreds of per-frame writes
        into one syscall per flush, and the client's batch-aware
        :func:`~repro.service.protocol.decode_frames` unpacks them in
        order, so FIFO replies and per-subscription delivery order are
        untouched.  Batches are capped (count and bytes) to stay under the
        client reader's frame bound.
        """
        writer = connection.writer
        outbox = connection.outbox
        try:
            while True:
                await connection.wake.wait()
                connection.wake.clear()
                while outbox:
                    batch: List[bytes] = []
                    size = 0
                    while outbox and len(batch) < 128:
                        frame = outbox[0][1]
                        if batch and size + len(frame) > MAX_BATCH_BYTES:
                            break
                        outbox.popleft()
                        batch.append(frame)
                        size += len(frame)
                    if self._batch_frames and len(batch) > 1:
                        writer.write(encode_batch(batch))
                    else:
                        writer.write(b"".join(batch))
                    await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    def _enqueue(
        self, connection: _Connection, name: Optional[str], frame: bytes
    ) -> None:
        """Queue a frame; drop the oldest *solution* when the bound is hit.

        Never blocks and never awaits: called from the parse loop.  Only
        solution frames (``name`` set) are droppable — losing a reply or an
        ``eof`` would wedge the client protocol, and control frames are
        bounded by the client's own request rate, so exempting them keeps
        the outbox bound meaningful where it matters (solution fan-out).
        """
        outbox = connection.outbox
        if len(outbox) >= self._outbox_limit:
            for index, (queued_name, _) in enumerate(outbox):
                if queued_name is not None:
                    del outbox[index]
                    connection.dropped += 1
                    handle = self._subscriptions.get(queued_name)
                    if handle is not None:
                        handle.dropped += 1
                    break
            # All-control outbox: append anyway; see the docstring.
        outbox.append((name, frame))
        connection.wake.set()

    async def _drop_connection(self, connection: _Connection) -> None:
        if connection not in self._connections:
            return
        self._connections.discard(connection)
        for name in list(connection.names):
            self._remove_subscription(name)
        if connection.writer_task is not None:
            connection.writer_task.cancel()
            try:
                await connection.writer_task
            except asyncio.CancelledError:
                pass
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def _remove_subscription(self, name: str) -> None:
        handle = self._subscriptions.pop(name, None)
        if handle is None:
            return
        if handle.connection is not None and name in handle.connection.names:
            handle.connection.names.remove(name)
        try:
            self._engine.unregister(name)
        except ViteXError:  # pragma: no cover - engine/server maps in sync
            pass

    # ------------------------------------------------------ frame dispatch

    async def _dispatch(self, connection: _Connection, line: bytes) -> None:
        """Decode one line and run its command handler.

        Handlers may be plain functions (this class) or coroutines (the
        sharded front awaits worker round-trips); either way errors are
        answered on the connection instead of killing its handler task.
        """
        try:
            frame = decode_frame(line)
        except ProtocolError as exc:
            self._enqueue(connection, None, encode_frame(error_frame(str(exc))))
            return
        cmd = frame.get("cmd")
        handler = self._COMMANDS.get(cmd)
        if handler is None:
            self._enqueue(
                connection,
                None,
                encode_frame(error_frame(f"unknown command {cmd!r}", cmd=cmd)),
            )
            return
        try:
            result = handler(self, connection, frame)
            if inspect.isawaitable(result):
                await result
        except asyncio.CancelledError:
            raise
        except ViteXError as exc:
            self._enqueue(
                connection, None, encode_frame(error_frame(str(exc), cmd=cmd))
            )
        except Exception as exc:
            # An unexpected failure must not kill the connection handler (or
            # worse, leave a half-dead session installed — the feed/finish
            # handlers abort their document before re-raising).
            self._enqueue(
                connection,
                None,
                encode_frame(
                    error_frame(f"internal error: {type(exc).__name__}: {exc}", cmd=cmd)
                ),
            )

    def _cmd_subscribe(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        query = frame.get("query")
        if not isinstance(query, str) or not query:
            raise ProtocolError("subscribe needs a 'query' string")
        if frame.get("replay_window"):
            self._subscribe_replay(connection, frame, query)
            return
        name = frame.get("name")
        if isinstance(name, str):
            handle = self._subscriptions.get(name)
            if handle is not None and handle.detached:
                self._reattach_subscription(connection, handle, query)
                return
        subscription = self._engine.subscribe(query, name=name)
        handle = _SubscriptionHandle(subscription.name, subscription.query, connection)
        self._subscriptions[subscription.name] = handle
        connection.names.append(subscription.name)
        self._enqueue(
            connection,
            None,
            encode_frame(
                {
                    "type": "subscribed",
                    "name": subscription.name,
                    "query": subscription.query,
                    "mid_stream": self._session is not None,
                }
            ),
        )

    def _reattach_subscription(
        self, connection: _Connection, handle: _SubscriptionHandle, query: str
    ) -> None:
        """Claim a checkpoint-restored subscription for ``connection``.

        The claimed query must be *equivalent* to the restored one (equal
        source text or equal canonical fingerprint) — re-attachment resumes
        a warm machine mid-document, so handing it to a different query
        would silently answer the wrong question.
        """
        if not self._query_equivalent(handle.name, handle, query):
            raise ProtocolError(
                f"subscription {handle.name!r} was restored for query "
                f"{handle.query!r}; cannot re-attach a different query"
            )
        handle.connection = connection
        handle.detached = False
        connection.names.append(handle.name)
        self._enqueue(
            connection,
            None,
            encode_frame(
                {
                    "type": "subscribed",
                    "name": handle.name,
                    "query": handle.query,
                    "mid_stream": self._session is not None,
                    "reattached": True,
                    "delivered": handle.delivered,
                }
            ),
        )

    @staticmethod
    def _batch_items(frame: Dict[str, Any]) -> List[Tuple[str, Optional[str]]]:
        """Validate a ``subscribe_batch`` frame into ``(query, name)`` pairs."""
        items = frame.get("items")
        if not isinstance(items, list) or not items:
            raise ProtocolError("subscribe_batch needs a non-empty 'items' list")
        pairs: List[Tuple[str, Optional[str]]] = []
        for item in items:
            if not isinstance(item, dict):
                raise ProtocolError("subscribe_batch items must be objects")
            query = item.get("query")
            if not isinstance(query, str) or not query:
                raise ProtocolError("subscribe_batch items need a 'query' string")
            name = item.get("name")
            if name is not None and not isinstance(name, str):
                raise ProtocolError("subscribe_batch item 'name' must be a string")
            pairs.append((query, name))
        return pairs

    def _cmd_subscribe_batch(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:
        """Register a batch of queries all-or-nothing (one reply frame).

        The engine's :meth:`~repro.core.multi.MultiQueryEvaluator.\
subscribe_many` provides the rollback: if any item fails, every
        subscription it already made is unregistered before the error
        reaches :meth:`_dispatch`, which answers with a single ``error``
        frame.  Re-attaching a detached (checkpoint-restored) subscription
        is not batchable — the engine still holds its machine, so reusing
        its name fails the whole batch; re-attach with ``subscribe``.
        """
        subscriptions = self._engine.subscribe_many(self._batch_items(frame))
        for subscription in subscriptions:
            handle = _SubscriptionHandle(
                subscription.name, subscription.query, connection
            )
            self._subscriptions[subscription.name] = handle
            connection.names.append(subscription.name)
        self._enqueue(
            connection,
            None,
            encode_frame(
                {
                    "type": "subscribed_batch",
                    "subscriptions": [
                        {"name": subscription.name, "query": subscription.query}
                        for subscription in subscriptions
                    ],
                    "mid_stream": self._session is not None,
                }
            ),
        )

    def _cmd_unsubscribe(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        name = frame.get("name")
        handle = self._subscriptions.get(name) if isinstance(name, str) else None
        if handle is None:
            raise ProtocolError(f"no subscription named {name!r}")
        if handle.connection is not connection:
            raise ProtocolError(f"subscription {name!r} belongs to another connection")
        self._remove_subscription(name)
        self._enqueue(
            connection, None, encode_frame({"type": "unsubscribed", "name": name})
        )

    def _subscribe_replay(
        self, connection: _Connection, frame: Dict[str, Any], query: str
    ) -> None:
        """``subscribe`` with ``replay_window``: retained window + live.

        The stream session replays its spool through a private machine and
        grafts the subscription at the exact live position; the replayed
        solutions are delivered to the subscriber right after the ack
        (marked ``"replayed": true``), and live delivery continues through
        the normal routing path — exactly once, no duplicate, no gap.
        """
        if self._stream is None:
            raise ProtocolError(
                "replay_window needs an open stream session (stream_open)"
            )
        name = frame.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("subscribe 'name' must be a string")
        subscription, replayed = self._stream.subscribe_replay(query, name=name)
        handle = _SubscriptionHandle(subscription.name, subscription.query, connection)
        handle.delivered = len(replayed)
        self._subscriptions[subscription.name] = handle
        connection.names.append(subscription.name)
        self._enqueue(
            connection,
            None,
            encode_frame(
                {
                    "type": "subscribed",
                    "name": subscription.name,
                    "query": subscription.query,
                    "mid_stream": self._stream.in_document,
                    "replayed": len(replayed),
                }
            ),
        )
        ts = asyncio.get_running_loop().time()
        self._solutions_total += len(replayed)
        connection.delivered += len(replayed)
        for pair in replayed:
            self._enqueue(
                connection,
                subscription.name,
                encode_frame(
                    {
                        "type": "solution",
                        "name": subscription.name,
                        "ts": ts,
                        "replayed": True,
                        "solution": solution_to_payload(pair.solution),
                    }
                ),
            )

    # ---------------------------------------------------------- stream mode

    @staticmethod
    def _parse_stream_options(frame: Dict[str, Any]) -> Dict[str, Any]:
        """Validate a ``stream_open`` frame into the session options."""
        options: Dict[str, Any] = {}
        for key in ("retain_documents", "retain_bytes", "window_documents"):
            value = frame.get(key)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ProtocolError(f"stream_open {key!r} must be a positive integer")
            options[key] = value
        if options["window_documents"] is None:
            options["window_documents"] = 100
        on_error = frame.get("on_error", "skip")
        if on_error not in ("skip", "raise"):
            raise ProtocolError("stream_open 'on_error' must be 'skip' or 'raise'")
        options["on_error"] = on_error
        for key in ("idle_timeout", "heartbeat_interval"):
            value = frame.get(key)
            if value is not None and (
                not isinstance(value, (int, float)) or value <= 0
            ):
                raise ProtocolError(f"stream_open {key!r} must be a positive number")
            options[key] = value
        return options

    def _cmd_stream_open(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        if self._stream_mode():
            raise ProtocolError("a stream session is already open")
        if self._document_in_progress():
            raise ProtocolError(
                "cannot open a stream session while a document is in progress"
            )
        options = self._parse_stream_options(frame)
        self._open_stream_session(options)
        self._stream_last_feed = time.monotonic()
        self._arm_stream_monitor()
        self._enqueue(
            connection,
            None,
            encode_frame(
                {
                    "type": "stream_opened",
                    "framing": "auto",
                    "replay": bool(
                        options.get("retain_documents") or options.get("retain_bytes")
                    ),
                    **{key: options.get(key) for key in sorted(options)},
                }
            ),
        )

    def _open_stream_session(self, options: Dict[str, Any]) -> None:
        """Create the stream session (overridden by the sharded front)."""
        self._stream = self._engine.document_stream(
            parser=self.parser,
            retain_documents=options.get("retain_documents"),
            retain_bytes=options.get("retain_bytes"),
            window_documents=options.get("window_documents") or 100,
            on_error=options.get("on_error", "skip"),
        )
        self._stream_splitter = DocumentBoundaryScanner()
        self._stream_options = options
        self._stream_docs_acked = 0
        self._stream_failed_acked = 0

    def _cmd_stream_close(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        if not self._stream_mode():
            raise ProtocolError("no stream session is open")
        stats = self._close_stream_session(reason="closed")
        self._enqueue(
            connection,
            None,
            encode_frame({"type": "stream_closed", "stats": stats}),
        )

    def _close_stream_session(self, reason: str) -> Dict[str, Any]:
        """Tear the stream session down; returns its final stats payload."""
        stream = self._stream
        assert stream is not None
        self._fold_stream_counters()
        stats = stream.close()
        stats.update(self._stream_monitor_stats())
        self._stream = None
        self._stream_splitter = None
        self._stream_options = {}
        if self._stream_monitor_task is not None:
            self._stream_monitor_task.cancel()
            self._stream_monitor_task = None
        return stats

    def _fold_stream_counters(self) -> None:
        """Fold the live stream session's totals into the lifetime counters."""
        stream = self._stream
        if stream is None:
            return
        self._elements_total += stream.elements
        pending = max(0, stream.documents - self._stream_docs_acked)
        failed = max(0, stream.documents_failed - self._stream_failed_acked)
        # A failed document consumes a sequence number too, matching the
        # bounded _abort_document accounting.
        self._documents += pending + failed
        self._aborted_documents += failed
        self._stream_docs_acked = stream.documents
        self._stream_failed_acked = stream.documents_failed

    def _stream_feed(self, connection: _Connection, data: str) -> None:
        """One ``feed`` frame in stream mode: boundaries are autodetected.

        Every completed document broadcasts an ``eof`` frame exactly like
        the bounded ``finish`` path (aborted for documents the parser
        rejected when ``on_error="skip"``), so subscribers see the same
        document lifecycle in both modes.
        """
        stream = self._stream
        splitter = self._stream_splitter
        assert stream is not None and splitter is not None
        self._stream_last_feed = time.monotonic()
        self._arm_stream_monitor()
        started = time.perf_counter()
        try:
            # Feed the session one boundary-split segment at a time so each
            # document's eof broadcast lands between its own solutions and
            # the next document's.
            for segment, _completed in splitter.feed(data):
                pairs = stream.feed_text(segment)
                if pairs:
                    self._route(pairs)
                self._broadcast_stream_deltas(stream)
        except Exception as exc:
            # on_error="raise": the stream session is dead; fold what it
            # counted (the abandoned document included) and surface the
            # abort like a bounded document's.
            document = self._documents
            self._close_stream_session(reason="parse error")
            self._broadcast_eof(document, aborted=True, error=str(exc))
            raise
        finally:
            self._busy_seconds += time.perf_counter() - started

    def _broadcast_stream_deltas(self, stream: DocumentStreamSession) -> None:
        """Broadcast one eof per document the session completed or skipped
        since the last acknowledgement (each segment closes at most one)."""
        completed = stream.documents - self._stream_docs_acked
        failed = stream.documents_failed - self._stream_failed_acked
        self._stream_docs_acked = stream.documents
        self._stream_failed_acked = stream.documents_failed
        for _ in range(completed):
            document = self._documents
            self._documents = document + 1
            self._broadcast_eof(document, aborted=False)
        for _ in range(failed):
            document = self._documents
            self._documents = document + 1
            self._aborted_documents += 1
            self._broadcast_eof(document, aborted=True, error="document skipped")

    # ------------------------------------------------- idle/heartbeat watch

    def _arm_stream_monitor(self) -> None:
        """Start the idle/heartbeat watcher when either option is set."""
        options = self._stream_options
        if not options.get("idle_timeout") and not options.get("heartbeat_interval"):
            return
        if self._stream_monitor_task is None:
            self._stream_monitor_task = asyncio.ensure_future(
                self._stream_monitor_loop()
            )

    async def _stop_stream_monitor(self) -> None:
        task = self._stream_monitor_task
        if task is None:
            return
        self._stream_monitor_task = None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def _stream_monitor_loop(self) -> None:
        """Send heartbeat frames and close idle stream sessions.

        Both are off by default; ``stream_open`` arms them.  A heartbeat is
        a push frame carrying the stream's document/element counters so
        quiet subscribers can tell a silent stream from a dead connection;
        an idle closure tears the stream session down after
        ``idle_timeout`` seconds without a feed, notifying every
        subscriber with a ``stream_idle`` push.
        """
        options = self._stream_options
        idle_timeout = options.get("idle_timeout")
        heartbeat = options.get("heartbeat_interval")
        ticks = [value for value in (idle_timeout, heartbeat) if value]
        tick = max(0.05, min(ticks) / 2.0) if ticks else 1.0
        next_heartbeat = (
            time.monotonic() + heartbeat if heartbeat else None
        )
        try:
            while self._stream_mode():
                await asyncio.sleep(tick)
                if not self._stream_mode():
                    break
                now = time.monotonic()
                if (
                    idle_timeout
                    and now - self._stream_last_feed >= idle_timeout
                    and not self._document_in_progress()
                ):
                    self._idle_stream_closures += 1
                    stats = self._close_stream_session(reason="idle_timeout")
                    self._broadcast_stream_frame(
                        {
                            "type": "stream_idle",
                            "idle_timeout": idle_timeout,
                            "stats": stats,
                        }
                    )
                    break
                if next_heartbeat is not None and now >= next_heartbeat:
                    next_heartbeat = now + heartbeat
                    self._heartbeats_sent += 1
                    self._broadcast_stream_frame(self._heartbeat_frame())
        except asyncio.CancelledError:
            pass
        finally:
            if self._stream_monitor_task is asyncio.current_task():
                self._stream_monitor_task = None

    def _heartbeat_frame(self) -> Dict[str, Any]:
        stream = self._stream
        frame: Dict[str, Any] = {
            "type": "heartbeat",
            "documents": self._documents,
            "elements": self._elements_total,
        }
        if stream is not None:
            frame["elements"] = self._elements_total + stream.elements
            frame["in_document"] = stream.in_document
        return frame

    def _broadcast_stream_frame(self, frame: Dict[str, Any]) -> None:
        """Push a stream lifecycle frame to every subscriber connection."""
        wire = encode_frame(frame)
        for connection in self._connections:
            if connection.names:
                self._enqueue(connection, None, wire)

    def _cmd_feed(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        data = frame.get("data")
        if not isinstance(data, str):
            raise ProtocolError("feed needs a 'data' string")
        if self._stream is not None:
            self._stream_feed(connection, data)
            return
        if self._session is None:
            self._session = self._engine.session(parser=self.parser)
        started = time.perf_counter()
        try:
            pairs = self._session.feed_text(data)
        except Exception as exc:
            # Any failure — parse error or unexpected — must tear the
            # document down completely: a stale session entry would keep
            # surfacing through /stats and reject every later feed.
            self._abort_document(str(exc))
            raise
        finally:
            self._busy_seconds += time.perf_counter() - started
        if pairs:
            self._route(pairs)

    def _cmd_finish(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        if self._stream_mode():
            raise ProtocolError(
                "finish is not used in stream mode: document boundaries are "
                "autodetected (stream_close ends the session)"
            )
        session = self._session
        if session is None:
            raise ProtocolError("no document in progress")
        started = time.perf_counter()
        try:
            pairs = session.finish()
        except Exception as exc:
            self._abort_document(str(exc))
            raise
        finally:
            self._busy_seconds += time.perf_counter() - started
        if pairs:
            self._route(pairs)
        document = self._documents
        elements = session.element_count
        self._elements_total += elements
        self._documents = document + 1
        self._session = None
        self._engine.reset()
        self._enqueue(
            connection,
            None,
            encode_frame(
                {"type": "finished", "document": document, "elements": elements}
            ),
        )
        self._broadcast_eof(document, aborted=False)

    def _cmd_stats(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        self._enqueue(connection, None, encode_frame(self.stats()))

    def _cmd_ping(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        self._enqueue(connection, None, encode_frame({"type": "pong"}))

    def _cmd_checkpoint(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        path = frame.get("path")
        if path is not None:
            if not isinstance(path, str) or not path:
                raise ProtocolError("checkpoint 'path' must be a non-empty string")
            path = self._client_checkpoint_path(path)
        meta = self.save_checkpoint(path)
        meta["type"] = "checkpointed"
        self._enqueue(connection, None, encode_frame(meta))

    def _cmd_restore(self, connection: _Connection, frame: Dict[str, Any]) -> None:
        path = frame.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError("restore needs a 'path' string")
        meta = self.restore_from_file(self._client_checkpoint_path(path))
        meta["type"] = "restored"
        self._enqueue(connection, None, encode_frame(meta))

    _COMMANDS: Dict[str, Callable] = {
        "subscribe": _cmd_subscribe,
        "subscribe_batch": _cmd_subscribe_batch,
        "unsubscribe": _cmd_unsubscribe,
        "feed": _cmd_feed,
        "finish": _cmd_finish,
        "stream_open": _cmd_stream_open,
        "stream_close": _cmd_stream_close,
        "stats": _cmd_stats,
        "ping": _cmd_ping,
        "checkpoint": _cmd_checkpoint,
        "restore": _cmd_restore,
    }

    # ------------------------------------------------------ solution fanout

    def _route(self, pairs: List[Tuple[str, Solution]]) -> None:
        """Fan delivered pairs out to their owners' outboxes (or callbacks)."""
        ts = asyncio.get_running_loop().time()
        subscriptions = self._subscriptions
        self._solutions_total += len(pairs)
        for name, solution in pairs:
            handle = subscriptions.get(name)
            if handle is None:  # pragma: no cover - engine/server maps in sync
                continue
            handle.delivered += 1
            if handle.connection is None:
                if handle.callback is not None:
                    # Same isolation as the engine's deliver path: one bad
                    # local callback must not abort the feed that was being
                    # parsed (or drop the publisher's connection).
                    try:
                        handle.callback(name, solution)
                    except Exception:
                        handle.callback_errors += 1
                continue
            handle.connection.delivered += 1
            frame = encode_frame(
                {
                    "type": "solution",
                    "name": name,
                    "ts": ts,
                    "solution": solution_to_payload(solution),
                }
            )
            self._enqueue(handle.connection, name, frame)

    def _broadcast_eof(
        self, document: int, aborted: bool, error: str = "", draining: bool = False
    ) -> None:
        for connection in self._connections:
            if not connection.names:
                continue
            frame: Dict[str, Any] = {
                "type": "eof",
                "document": document,
                "aborted": aborted,
                "delivered": connection.delivered,
                "dropped": connection.dropped,
            }
            if error:
                frame["error"] = error
            if draining:
                frame["draining"] = True
            self._enqueue(connection, None, encode_frame(frame))

    def _abort_document(self, message: str, draining: bool = False) -> None:
        """A chunk failed to parse: the session already reset the machines;
        tear the session entry down completely (its elements still count
        toward the lifetime totals), count the abort, and tell subscribers
        the document died so the next feed arms a fresh one."""
        session = self._session
        if session is not None:
            self._elements_total += session.element_count
        document = self._documents
        self._documents = document + 1
        self._aborted_documents += 1
        self._session = None
        self._broadcast_eof(document, aborted=True, error=message, draining=draining)


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CHECKPOINT_VERSION_SHARDED",
    "CHECKPOINT_VERSION_STREAM",
    "DEFAULT_CHECKPOINT_PATH",
    "DEFAULT_OUTBOX_LIMIT",
    "DEFAULT_PORT",
    "ServiceServer",
]
