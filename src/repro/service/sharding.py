"""Multi-worker sharded service: the front process and its worker pool.

Architecture::

    client A ──subscribe──▶ ┌───────────────────────────┐    pipes
    client B ──subscribe──▶ │  ShardedServiceServer     │◀────────▶ worker 0
                            │   routing: name → worker  │◀────────▶ worker 1
    publisher ──feed/──────▶│   outboxes / backpressure │◀────────▶ worker 2
               finish       └───────────────────────────┘  (engines live here)

The front speaks the unchanged client protocol; each worker
(:mod:`repro.service.worker`) is a separate process running its own
:class:`~repro.core.multi.MultiQueryEvaluator`, so parsing and matching use
as many cores as there are workers.

**Sharding policy — by subscription, family-affine.**  Each ``subscribe``
is routed to one worker by an *affinity key*: the anchor query (``//c``)
when the sharing planner folds the query into a containment family, else
its canonical fingerprint.  Every member shape of one family is pinned to
the worker already running that family's anchor machine, and structurally
identical queries to the worker running their machine, so the engine's
sharing survives across processes; a new key goes to the worker with the
fewest distinct keys (≈ fewest machines).  The front owns the subscription
*namespace* (auto-naming, duplicate detection) because per-worker engines
cannot see each other's names.

**Feeds broadcast to every worker.**  Each worker consumes the whole
document, so all workers share one document-global element pre-order and a
mid-stream ``subscribe`` can land on any worker with correct remainder
semantics.  Scaling comes from splitting the *matching and serialization*
work — which dominates at high subscription counts — not the parse.

**Shard modes — parse-once events vs raw-XML broadcast.**  In ``events``
mode (worker-pipe protocol v2) the front parses each document exactly
once and broadcasts the decoded event stream as binary frames
(:mod:`repro.xmlstream.eventcodec`); workers feed the frames straight
into :class:`~repro.core.session.EventStreamSession`, so total parse CPU
stays constant as workers are added.  In ``broadcast`` mode (protocol
v1) the front fans out raw XML text and every worker re-parses it.  The
mode is negotiated at spawn: each worker answers ``hello`` with the
protocols it speaks, ``auto`` picks events iff *all* workers offer v2,
and ``--shard-mode events`` refuses to start otherwise.  Client-visible
behaviour (pushes, errors, eof frames) is identical in both modes.

**Document epochs.**  Every ``feed``/``finish`` carries the front's
document epoch.  A parse failure in a worker emits an ``aborted`` push;
the front aborts the document exactly once (later pushes for the same
epoch are stale) and workers silently drop in-flight ``feed`` frames of a
poisoned epoch.  One deliberate divergence from the single-process server:
chunks already in flight when a document aborts are *dropped* rather than
re-interpreted as the start of a new document.

**Crash containment.**  A worker exiting unexpectedly detaches exactly the
subscriptions routed to it: each owner gets an ``error`` push naming the
subscription, and the remaining workers keep delivering.

**Checkpoints** are version-2 payloads: one core snapshot per worker plus
the routing table (query, fingerprint, worker, counters per subscription).
Between documents a checkpoint restores onto *any* worker count — idle
machines are start states, so the front simply re-routes every query —
while a mid-document checkpoint carries per-shard parse state and must be
restored onto a matching worker count.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core.builder import shared_compiled_cache, shared_planner
from ..core.checkpoint import (
    decode_spool,
    encode_spool,
    snapshot_subscription_sources,
)
from ..core.docstream import DocumentBoundaryScanner, DocumentStreamSession
from ..core.multi import MultiQueryEvaluator
from ..errors import CheckpointError, EngineError, ViteXError
from ..xmlstream.eventcodec import EVENTS_PER_FRAME, EventFrameEncoder
from ..xmlstream.events import Event, StartElement
from .protocol import (
    PROTOCOL_V1,
    PROTOCOL_V2,
    ProtocolError,
    SOLUTION_PREFIX,
    decode_frame,
    encode_event_header,
    encode_frame,
    error_frame,
    solution_from_payload,
    solution_to_payload,
    split_worker_solution,
)
from .server import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CHECKPOINT_VERSION_SHARDED,
    CHECKPOINT_VERSION_STREAM,
    DEFAULT_PORT,
    ServiceServer,
    _SubscriptionHandle,
    _encode_checkpoint,
    _write_atomically,
)

#: StreamReader limit for worker stdout: snapshot frames embed the engine
#: state (and, mid-document, the expat raw-byte spool), so they dwarf the
#: client protocol's frame bound.
WORKER_PIPE_LIMIT = 64 * 1024 * 1024


class WorkerError(ViteXError):
    """A worker process died or refused a front request."""


class _WorkerHandle:
    """One worker process: pipes, FIFO reply matching, reader task."""

    __slots__ = (
        "index",
        "parser",
        "process",
        "alive",
        "closing",
        "_server",
        "_pending",
        "_reader_task",
    )

    def __init__(self, index: int, parser: str, server: "ShardedServiceServer") -> None:
        self.index = index
        self.parser = parser
        self.process: Optional[asyncio.subprocess.Process] = None
        self.alive = False
        #: Set before an orderly shutdown so the reader's EOF is not
        #: mistaken for a crash.
        self.closing = False
        self._server = server
        self._pending: Deque[asyncio.Future] = deque()
        self._reader_task: Optional[asyncio.Task] = None

    async def spawn(self) -> None:
        env = dict(os.environ)
        src_dir = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self.process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.service.worker",
            "--parser",
            self.parser,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
            limit=WORKER_PIPE_LIMIT,
        )
        self.alive = True
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    # --------------------------------------------------------------- writes

    def write(self, wire: bytes) -> None:
        """Queue raw bytes on the worker's stdin (no reply expected)."""
        if not self.alive or self.process is None:
            return
        try:
            self.process.stdin.write(wire)
        except (ConnectionError, RuntimeError):
            pass

    async def drain_stdin(self) -> None:
        if not self.alive or self.process is None:
            return
        try:
            await self.process.stdin.drain()
        except (ConnectionError, RuntimeError):
            pass

    def request(self, frame: Dict[str, Any]) -> asyncio.Future:
        """Write a command frame and return the future for its FIFO reply.

        The write happens synchronously (ordering on the worker's stdin is
        fixed at call time — this is what keeps ``subscribe`` and broadcast
        ``feed`` frames correctly interleaved under the pipeline lock); the
        returned future resolves when the reader task matches the reply.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if not self.alive or self.process is None:
            future.set_exception(WorkerError(f"worker {self.index} is not running"))
            return future
        try:
            self.process.stdin.write(encode_frame(frame))
        except (ConnectionError, RuntimeError) as exc:
            future.set_exception(WorkerError(f"worker {self.index}: {exc}"))
            return future
        self._pending.append(future)
        return future

    async def call(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Round-trip one command; raises :class:`WorkerError` on death."""
        future = self.request(frame)
        await self.drain_stdin()
        return await future

    # --------------------------------------------------------------- reader

    async def _read_loop(self) -> None:
        assert self.process is not None
        reader = self.process.stdout
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                if line.startswith(SOLUTION_PREFIX):
                    # Hot path: route on the name, forward the pre-encoded
                    # client frame bytes without decoding them.
                    try:
                        name, frame_bytes = split_worker_solution(line)
                    except ProtocolError:  # pragma: no cover - worker bug
                        continue
                    self._server._on_worker_solution(name, frame_bytes)
                    continue
                try:
                    frame = decode_frame(line)
                except ProtocolError:  # pragma: no cover - worker bug
                    continue
                if frame.get("type") == "aborted":
                    self._server._on_worker_abort(self, frame)
                    continue
                if self._pending:
                    self._pending.popleft().set_result(frame)
        except asyncio.CancelledError:
            raise
        except Exception:
            pass
        finally:
            was_alive = self.alive
            self.alive = False
            self._fail_pending(WorkerError(f"worker {self.index} exited"))
            if was_alive and not self.closing and not self._server._closed:
                self._server._on_worker_crash(self)

    def _fail_pending(self, exc: Exception) -> None:
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved: fire-and-forget requests (unsubscribe)
                # never await their future.
                future.exception()

    # ------------------------------------------------------------ lifecycle

    async def close(self) -> None:
        """Orderly worker shutdown: EOF on stdin, bounded wait, then kill."""
        self.closing = True
        process = self.process
        if process is not None and process.returncode is None:
            try:
                process.stdin.close()
            except (ConnectionError, RuntimeError):
                pass
            try:
                await asyncio.wait_for(process.wait(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - wedged worker
                process.kill()
                await process.wait()
        self.alive = False
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None


class _FrontParser:
    """The parse-once front parser for events shard mode.

    Tokenizes the document exactly once — natively or through expat,
    matching the server's ``parser`` — and hands the decoded events to the
    frame encoder.  Keeps the raw chunk spool so a mid-document checkpoint
    can rebuild parser state by replaying it through a fresh parser (the
    worker shards themselves are spool-free: an events session snapshot
    carries no parse state).  ``elements`` counts start tags and is the
    authoritative document-global element total.
    """

    __slots__ = ("parser", "elements", "_tokenizer", "_expat", "_spool")

    def __init__(self, parser: str) -> None:
        self.parser = parser
        self.elements = 0
        self._spool: List[str] = []
        if parser == "expat":
            from ..xmlstream.expat_backend import ExpatEventSource

            self._expat: Optional[Any] = ExpatEventSource()
            self._tokenizer = None
        else:
            from ..xmlstream.tokenizer import StreamTokenizer

            self._tokenizer = StreamTokenizer()
            self._expat = None

    def feed(self, chunk: str) -> List[Event]:
        self._spool.append(chunk)
        events: List[Event] = []
        try:
            if self._tokenizer is not None:
                for event in self._tokenizer.feed(chunk):
                    events.append(event)
            else:
                events = self._expat.feed(chunk)
        finally:
            # Count even on a mid-chunk parse error: the abort accounting
            # reports how far the document got, like a worker's would.
            self.elements += sum(
                1 for event in events if type(event) is StartElement
            )
        return events

    def close(self) -> List[Event]:
        if self._tokenizer is not None:
            events = list(self._tokenizer.close())
        else:
            events = self._expat.close()
        self.elements += sum(1 for event in events if type(event) is StartElement)
        return events

    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "parser": self.parser,
            "spool": encode_spool(list(self._spool)),
            "elements": self.elements,
        }

    @classmethod
    def restore(cls, state: Dict[str, Any], parser: str) -> "_FrontParser":
        """Replay the checkpointed spool once through a fresh parser.

        The replayed events are discarded — the worker shards already hold
        the matching engine state — but the parser ends up at exactly the
        checkpointed chunk boundary, ready for the next ``feed``.
        """
        front = cls(state.get("parser") or parser)
        for chunk in decode_spool(state.get("spool") or []):
            if isinstance(chunk, bytes):
                chunk = chunk.decode("utf-8")
            front.feed(chunk)
        front.elements = state.get("elements", front.elements)
        return front


class ShardedServiceServer(ServiceServer):
    """The front process of the sharded service.

    Speaks the unchanged client protocol (same frames, same replies, same
    backpressure accounting); delegates all parsing and matching to worker
    processes.  ``workers=1`` is the degenerate case used by parity tests —
    identical protocol behaviour to :class:`ServiceServer` with the engine
    one pipe away.
    """

    def __init__(
        self, workers: int = 2, shard_mode: str = "auto", **kwargs: Any
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_mode not in ("auto", "events", "broadcast"):
            raise ValueError("shard_mode must be 'auto', 'events' or 'broadcast'")
        super().__init__(**kwargs)
        self._worker_count = workers
        #: Requested mode; the *negotiated* mode lives in ``_events_mode``.
        self.shard_mode = shard_mode
        self._events_mode = False
        self._workers: List[_WorkerHandle] = []
        self._worker_stats: List[Dict[str, Any]] = []
        #: Serializes writes that must hit every worker in the same order
        #: (feed/finish broadcasts, subscribes, snapshot gathers).
        self._pipeline_lock = asyncio.Lock()
        # Routing state.  ``_shard_load`` counts distinct affinity keys per
        # worker (≈ machines, thanks to engine sharing); ``_affinity`` maps a
        # key to its pinned worker and refcount.  ``_fingerprints`` (name →
        # the query's own fingerprint) serves the re-attach check.
        self._routes: Dict[str, int] = {}
        self._fingerprints: Dict[str, str] = {}
        self._affinity_keys: Dict[str, str] = {}
        self._affinity: Dict[str, List[int]] = {}
        self._shard_load: List[int] = []
        self._auto_name_counter = 0
        # Document state: the front owns the document lifecycle; workers
        # are slaved to its epoch counter.
        self._doc_epoch = 0
        self._doc_open = False
        self._feeder = None
        #: Mode of the *current* document: pinned at its first feed (or at
        #: a mid-document restore, where it follows the shard session type)
        #: so a restored raw-XML document keeps streaming over protocol v1
        #: even when the pool negotiated events mode.
        self._doc_events: Optional[bool] = None
        self._front: Optional[_FrontParser] = None
        self._front_encoder: Optional[EventFrameEncoder] = None
        #: Local subscriptions registered before the workers exist; routed
        #: when :meth:`start` spawns them.
        self._pending_local: List[str] = []
        # Infinite-stream mode (stream_open).  The front splits the feed at
        # document boundaries and drives the workers' feed/finish lifecycle
        # itself; an optional front-local mirror session owns the retention
        # spool and every replay_window subscription.
        self._stream_scanner: Optional[DocumentBoundaryScanner] = None
        self._stream_skip_doc = False
        self._stream_base = (0, 0, 0)
        self._front_engine: Optional[MultiQueryEvaluator] = None
        self._front_stream: Optional[DocumentStreamSession] = None
        self._front_replay: set = set()

    # ------------------------------------------------------------ lifecycle

    async def _ensure_workers(self) -> None:
        if self._workers:
            return
        for index in range(self._worker_count):
            handle = _WorkerHandle(index, self.parser, self)
            await handle.spawn()
            self._workers.append(handle)
            self._worker_stats.append(
                {
                    "worker": index,
                    "mode": "process",
                    "pid": handle.pid,
                    "alive": True,
                    "subscriptions": 0,
                    "machine_count": 0,
                    "elements": 0,
                    "events_per_sec": 0.0,
                    "queue_depth": 0,
                    "cpu_seconds": 0.0,
                    "protocol": PROTOCOL_V1,
                }
            )
        self._shard_load = [0] * self._worker_count
        await self._negotiate_protocols()

    async def _negotiate_protocols(self) -> None:
        """Resolve the shard mode against what the workers actually speak.

        Every worker answers ``hello`` with its protocol list; a worker
        that errors (an older binary) counts as v1-only.  ``auto`` settles
        on events iff the whole pool offers v2 — a single capped worker
        silently falls the pool back to raw-XML broadcast, which is always
        safe because client-visible behaviour is identical.
        """
        if self.shard_mode == "broadcast":
            self._events_mode = False
            return
        pool_v2 = True
        for worker in self._workers:
            try:
                reply = await worker.call({"cmd": "hello"})
            except WorkerError:
                pool_v2 = False
                continue
            protocols = (
                reply.get("protocols") if reply.get("type") == "hello" else None
            )
            supported = isinstance(protocols, list) and PROTOCOL_V2 in protocols
            if worker.index < len(self._worker_stats):
                self._worker_stats[worker.index]["protocol"] = (
                    PROTOCOL_V2 if supported else PROTOCOL_V1
                )
            pool_v2 = pool_v2 and supported
        if self.shard_mode == "events" and not pool_v2:
            raise ViteXError(
                "--shard-mode events needs every worker to speak protocol v2; "
                "at least one only offered v1 (use --shard-mode auto to allow "
                "falling back to raw-XML broadcast)"
            )
        self._events_mode = pool_v2

    async def start(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        await self._ensure_workers()
        await self._flush_pending_local()
        await super().start(host, port)

    async def close(self) -> None:
        if self._closed:
            return
        for worker in self._workers:
            worker.closing = True
        if self._stream_scanner is not None:
            self._close_stream_session(reason="server closing")
        await super().close()
        await asyncio.gather(
            *(worker.close() for worker in self._workers), return_exceptions=True
        )

    async def drain(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: like the base server, plus worker drain."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stream_scanner is not None:
            self._close_stream_session(reason="server draining")
            self._broadcast_eof(self._documents, aborted=False, draining=True)
        elif self._doc_open:
            document = self._documents
            self._documents += 1
            self._aborted_documents += 1
            self._close_epoch()
            self._broadcast_eof(
                document, aborted=True, error="server draining", draining=True
            )
        else:
            self._broadcast_eof(self._documents, aborted=False, draining=True)
        await self._flush_outboxes(timeout)
        for worker in self._workers:
            if worker.alive:
                worker.closing = True
                worker.request({"cmd": "drain"})

    def _document_in_progress(self) -> bool:
        return self._doc_open

    def _alive_workers(self) -> List[_WorkerHandle]:
        return [worker for worker in self._workers if worker.alive]

    def _close_epoch(self) -> None:
        self._doc_open = False
        self._doc_epoch += 1
        self._feeder = None
        self._doc_events = None
        self._front = None
        self._front_encoder = None

    # ------------------------------------------------------------ routing

    def _assign_name(self, name: Optional[str]) -> str:
        if name is None:
            while True:
                name = f"q{self._auto_name_counter}"
                self._auto_name_counter += 1
                if name not in self._subscriptions:
                    return name
        if any(ord(char) < 32 or ord(char) == 127 for char in name):
            # Names travel in the worker fast-path framing; control
            # characters (newline, unit separator) would corrupt it.
            raise ProtocolError(
                "subscription names may not contain control characters"
            )
        if name in self._subscriptions:
            raise EngineError(f"a subscription named {name!r} already exists")
        return name

    def _route_key(self, query: str) -> Tuple[str, str]:
        """Validate a query through the shared compiled cache (raising
        exactly the errors the engine's own ``subscribe`` would); return
        ``(fingerprint, affinity key)``.  Fingerprints never start with
        ``/``, so an anchor-query key cannot collide with one."""
        compiled = shared_compiled_cache.acquire(query)
        try:
            plan = shared_planner.plan(compiled)
            key = compiled.fingerprint if plan is None else plan.anchor_source
            return compiled.fingerprint, key
        finally:
            shared_compiled_cache.release(compiled)

    def _pick_worker(self, key: str) -> int:
        pinned = self._affinity.get(key)
        if pinned is not None and self._workers[pinned[0]].alive:
            return pinned[0]
        candidates = [
            (self._shard_load[worker.index], worker.index)
            for worker in self._workers
            if worker.alive
        ]
        if not candidates:
            raise ViteXError("no alive workers")
        return min(candidates)[1]

    def _acquire_affinity(self, key: str, index: int) -> None:
        pinned = self._affinity.get(key)
        if pinned is not None and pinned[0] == index:
            pinned[1] += 1
            return
        self._affinity[key] = [index, 1]
        self._shard_load[index] += 1

    def _release_affinity(self, key: str) -> None:
        pinned = self._affinity.get(key)
        if pinned is None:
            return
        pinned[1] -= 1
        if pinned[1] <= 0:
            del self._affinity[key]
            if 0 <= pinned[0] < len(self._shard_load):
                self._shard_load[pinned[0]] -= 1

    def _install_route(self, name: str, route_key: Tuple[str, str], index: int) -> None:
        fingerprint, key = route_key
        self._routes[name] = index
        self._fingerprints[name] = fingerprint
        self._affinity_keys[name] = key
        self._acquire_affinity(key, index)

    def _remove_subscription(self, name: str) -> None:
        if name in self._front_replay:
            self._front_replay.discard(name)
            if self._front_engine is not None:
                try:
                    self._front_engine.unregister(name)
                except EngineError:
                    pass
        handle = self._subscriptions.pop(name, None)
        if handle is None:
            return
        if handle.connection is not None and name in handle.connection.names:
            handle.connection.names.remove(name)
        index = self._routes.pop(name, None)
        self._fingerprints.pop(name, None)
        key = self._affinity_keys.pop(name, None)
        if key is not None:
            self._release_affinity(key)
        if name in self._pending_local:
            self._pending_local.remove(name)
        if index is None or self._closed:
            return
        worker = self._workers[index] if index < len(self._workers) else None
        if worker is not None and worker.alive:
            # Fire-and-forget: the FIFO reply resolves a future nobody
            # awaits, keeping reply matching aligned.
            worker.request({"cmd": "unsubscribe", "name": name})

    # ------------------------------------------------- local subscriptions

    def add_local_subscription(self, query, name=None, callback=None) -> str:
        # Keyed on the listener, not the worker pool: a restore spawns the
        # workers early, but new local queries (``vitex resume --watch``)
        # are still fine until ``start()`` flushes the pending list.
        if self._server is not None:
            raise RuntimeError(
                "add_local_subscription must be called before start() on a "
                "sharded server"
            )
        fingerprint, _ = self._route_key(query)
        name = self._assign_name(name)
        handle = _SubscriptionHandle(name, query, None, callback)
        self._subscriptions[name] = handle
        self._fingerprints[name] = fingerprint
        self._pending_local.append(name)
        return name

    async def _flush_pending_local(self) -> None:
        for name in list(self._pending_local):
            handle = self._subscriptions[name]
            route_key = self._route_key(handle.query)
            index = self._pick_worker(route_key[1])
            self._install_route(name, route_key, index)
            reply = await self._workers[index].call(
                {"cmd": "subscribe", "query": handle.query, "name": name}
            )
            if reply.get("type") == "error":
                raise ViteXError(reply.get("message", "worker subscribe failed"))
        self._pending_local.clear()

    def _query_equivalent(self, name, handle, query) -> bool:
        if query == handle.query:
            return True
        fingerprint = self._fingerprints.get(name)
        if fingerprint is None:
            return False
        return self._route_key(query)[0] == fingerprint

    # ------------------------------------------------------ frame handlers

    async def _cmd_subscribe(self, connection, frame) -> None:
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
        route_key = self._route_key(query)
        name = self._assign_name(name)
        index = self._pick_worker(route_key[1])
        handle = _SubscriptionHandle(name, query, connection)
        # Reserve the name and route before the await: a concurrent
        # subscribe must see the name as taken.
        self._subscriptions[name] = handle
        connection.names.append(name)
        self._install_route(name, route_key, index)
        try:
            async with self._pipeline_lock:
                future = self._workers[index].request(
                    {"cmd": "subscribe", "query": query, "name": name}
                )
            reply = await future
            if reply.get("type") == "error":
                raise ViteXError(reply.get("message", "worker subscribe failed"))
        except BaseException:
            self._remove_subscription(name)
            raise
        self._enqueue(
            connection,
            None,
            encode_frame(
                {
                    "type": "subscribed",
                    "name": name,
                    "query": reply.get("query", query),
                    "mid_stream": self._doc_open,
                }
            ),
        )

    async def _cmd_subscribe_batch(self, connection, frame) -> None:
        """All-or-nothing batch subscribe across the worker pool.

        Phase 1 validates every item and reserves names/routes before any
        await, so concurrent subscribes see the whole batch as taken.
        Phase 2 queues every worker request in one locked pass (FIFO reply
        alignment, same as the singular path) and awaits the replies.  Any
        failure unwinds every reservation — workers that already accepted
        their item get a fire-and-forget ``unsubscribe`` from
        :meth:`_remove_subscription`.
        """
        pairs = self._batch_items(frame)
        registered: List[Tuple[str, str, int]] = []
        try:
            for query, name in pairs:
                if isinstance(name, str):
                    handle = self._subscriptions.get(name)
                    if handle is not None and handle.detached:
                        raise ProtocolError(
                            f"subscription {name!r} is detached; re-attach "
                            "it with a plain subscribe, not subscribe_batch"
                        )
                route_key = self._route_key(query)
                assigned = self._assign_name(name)
                index = self._pick_worker(route_key[1])
                self._subscriptions[assigned] = _SubscriptionHandle(
                    assigned, query, connection
                )
                connection.names.append(assigned)
                self._install_route(assigned, route_key, index)
                registered.append((assigned, query, index))
            futures = []
            async with self._pipeline_lock:
                for assigned, query, index in registered:
                    futures.append(
                        self._workers[index].request(
                            {"cmd": "subscribe", "query": query, "name": assigned}
                        )
                    )
            for future in futures:
                reply = await future
                if reply.get("type") == "error":
                    raise ViteXError(
                        reply.get("message", "worker subscribe failed")
                    )
        except BaseException:
            for assigned, _query, _index in reversed(registered):
                self._remove_subscription(assigned)
            raise
        self._enqueue(
            connection,
            None,
            encode_frame(
                {
                    "type": "subscribed_batch",
                    "subscriptions": [
                        {"name": assigned, "query": query}
                        for assigned, query, _index in registered
                    ],
                    "mid_stream": self._doc_open,
                }
            ),
        )

    def _reattach_subscription(self, connection, handle, query) -> None:
        # Same semantics as the base server, but mid_stream reflects the
        # front's document state (the front has no local session).
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
                    "mid_stream": self._doc_open,
                    "reattached": True,
                    "delivered": handle.delivered,
                }
            ),
        )

    async def _cmd_feed(self, connection, frame) -> None:
        data = frame.get("data")
        if not isinstance(data, str):
            raise ProtocolError("feed needs a 'data' string")
        if self._stream_scanner is not None:
            await self._stream_feed_sharded(connection, data)
            return
        if self._doc_events is None:
            self._doc_events = self._events_mode
        if self._doc_events:
            await self._feed_events(connection, data)
            return
        await self._feed_broadcast(connection, data)

    async def _feed_broadcast(self, connection, data: str) -> None:
        """Fan one raw-XML chunk out to every worker (protocol v1)."""
        workers = self._alive_workers()
        if not workers:
            raise ViteXError("no alive workers")
        started = time.perf_counter()
        async with self._pipeline_lock:
            self._doc_open = True
            self._feeder = connection
            wire = encode_frame({"cmd": "feed", "data": data, "doc": self._doc_epoch})
            for worker in workers:
                worker.write(wire)
            await asyncio.gather(
                *(worker.drain_stdin() for worker in workers),
                return_exceptions=True,
            )
        self._busy_seconds += time.perf_counter() - started

    # ------------------------------------------------- events-mode pipeline

    def _encode_event_wire(self, events: List[Event]) -> bytes:
        """Frame a run of events for broadcast (header + binary payload).

        Long runs split at ``EVENTS_PER_FRAME`` so no single payload grows
        unboundedly; an empty run still emits one empty frame, so every
        worker opens its shard session on the document's first feed.
        """
        encoder = self._front_encoder
        assert encoder is not None
        epoch = self._doc_epoch
        if not events:
            payload = encoder.encode(())
            return encode_event_header(epoch, len(payload)) + payload
        parts: List[bytes] = []
        for index in range(0, len(events), EVENTS_PER_FRAME):
            payload = encoder.encode(events[index : index + EVENTS_PER_FRAME])
            parts.append(encode_event_header(epoch, len(payload)) + payload)
        return b"".join(parts)

    def _abort_front_document(self, message: str) -> None:
        """A front-side parse failure aborts the document front-wide.

        Mirrors :meth:`_on_worker_abort`'s accounting — in events mode the
        parse error happens *here*, so no ``aborted`` push will ever come
        back from a worker; instead the front tells every worker to tear
        its shard down quietly.  The feeder's error frame comes from
        re-raising the parse error through ``_dispatch``.  Runs under the
        pipeline lock.
        """
        wire = encode_frame({"cmd": "abort", "doc": self._doc_epoch})
        for worker in self._alive_workers():
            worker.write(wire)
        elements = self._front.elements if self._front is not None else 0
        document = self._documents
        self._documents += 1
        self._aborted_documents += 1
        self._elements_total += elements
        self._close_epoch()
        self._broadcast_eof(document, aborted=True, error=message)

    async def _feed_events(self, connection, data: str) -> None:
        """Parse one chunk once, broadcast the encoded events to the pool."""
        workers = self._alive_workers()
        if not workers:
            raise ViteXError("no alive workers")
        started = time.perf_counter()
        async with self._pipeline_lock:
            self._doc_open = True
            self._feeder = connection
            if self._front is None:
                self._front = _FrontParser(self.parser)
                self._front_encoder = EventFrameEncoder()
            try:
                events = self._front.feed(data)
            except ViteXError as exc:
                self._busy_seconds += time.perf_counter() - started
                self._abort_front_document(str(exc))
                raise
            wire = self._encode_event_wire(events)
            for worker in workers:
                worker.write(wire)
            await asyncio.gather(
                *(worker.drain_stdin() for worker in workers),
                return_exceptions=True,
            )
        self._busy_seconds += time.perf_counter() - started

    async def _finish_events(self, connection, frame, reply: bool = True) -> None:
        if not self._doc_open or self._front is None:
            raise ProtocolError("no document in progress")
        epoch = self._doc_epoch
        started = time.perf_counter()
        async with self._pipeline_lock:
            workers = self._alive_workers()
            if not workers:
                raise ViteXError("no alive workers")
            try:
                tail = self._front.close()
            except ViteXError as exc:
                self._busy_seconds += time.perf_counter() - started
                self._abort_front_document(str(exc))
                raise
            elements = self._front.elements
            wire = self._encode_event_wire(tail)
            futures = []
            for worker in workers:
                worker.write(wire)
                futures.append(worker.request({"cmd": "finish", "doc": epoch}))
        replies = await asyncio.gather(*futures, return_exceptions=True)
        self._busy_seconds += time.perf_counter() - started
        good = [reply for reply in replies if isinstance(reply, dict)]
        if not good:
            raise ViteXError("all workers failed during finish")
        aborted = [reply for reply in good if reply.get("aborted")]
        if aborted or not self._doc_open or self._doc_epoch != epoch:
            message = next(
                (reply["message"] for reply in aborted if reply.get("message")), None
            )
            if message:
                raise ViteXError(message)
            raise ProtocolError("no document in progress")
        document = self._documents
        self._documents += 1
        # The front's count is authoritative: it parsed the one and only
        # copy of the document (workers would report the same number).
        self._elements_total += elements
        self._close_epoch()
        if reply:
            self._enqueue(
                connection,
                None,
                encode_frame(
                    {"type": "finished", "document": document, "elements": elements}
                ),
            )
        self._broadcast_eof(document, aborted=False)

    async def _cmd_finish(self, connection, frame) -> None:
        if self._stream_scanner is not None:
            raise ProtocolError(
                "finish is not used in stream mode: document boundaries are "
                "autodetected (stream_close ends the session)"
            )
        await self._finish_document(connection, frame, reply=True)

    async def _finish_document(self, connection, frame, reply: bool = True) -> None:
        if self._doc_events:
            await self._finish_events(connection, frame, reply=reply)
            return
        if not self._doc_open:
            raise ProtocolError("no document in progress")
        epoch = self._doc_epoch
        started = time.perf_counter()
        async with self._pipeline_lock:
            futures = [
                worker.request({"cmd": "finish", "doc": epoch})
                for worker in self._alive_workers()
            ]
        replies = await asyncio.gather(*futures, return_exceptions=True)
        self._busy_seconds += time.perf_counter() - started
        good = [reply for reply in replies if isinstance(reply, dict)]
        if not good:
            raise ViteXError("all workers failed during finish")
        aborted = [reply for reply in good if reply.get("aborted")]
        if aborted or not self._doc_open or self._doc_epoch != epoch:
            # The abort push (processed by the reader before these replies)
            # already broadcast the eof; answer the finisher the way the
            # single-process server would.
            message = next(
                (reply["message"] for reply in aborted if reply.get("message")), None
            )
            if message:
                raise ViteXError(message)
            raise ProtocolError("no document in progress")
        elements = max(entry.get("elements", 0) for entry in good)
        document = self._documents
        self._documents += 1
        self._elements_total += elements
        self._close_epoch()
        if reply:
            self._enqueue(
                connection,
                None,
                encode_frame(
                    {"type": "finished", "document": document, "elements": elements}
                ),
            )
        self._broadcast_eof(document, aborted=False)

    # ---------------------------------------------------------- stream mode

    def _stream_mode(self) -> bool:
        return self._stream_scanner is not None

    def _open_stream_session(self, options: Dict[str, Any]) -> None:
        """Sharded stream session: a boundary scanner plus, when retention
        is requested, a front-local mirror session that owns the spool.

        The workers keep doing what they do in bounded mode — the front
        feeds them one document at a time and runs the finish cycle itself
        at every boundary the scanner reports.  ``replay_window``
        subscriptions are served *entirely* by the mirror (replay and live)
        because the exactly-once splice cannot span processes; when the
        stream session closes they are migrated onto workers like ordinary
        subscriptions.
        """
        self._stream_scanner = DocumentBoundaryScanner()
        self._stream_skip_doc = False
        self._stream_base = (
            self._documents,
            self._aborted_documents,
            self._elements_total,
        )
        self._stream_options = options
        if options.get("retain_documents") or options.get("retain_bytes"):
            self._front_engine = MultiQueryEvaluator()
            self._front_stream = self._front_engine.document_stream(
                parser=self.parser,
                retain_documents=options.get("retain_documents"),
                retain_bytes=options.get("retain_bytes"),
                window_documents=options.get("window_documents") or 100,
                on_error="skip",
            )

    def _close_stream_session(self, reason: str) -> Dict[str, Any]:
        scanner = self._stream_scanner
        assert scanner is not None
        if self._doc_open:
            # Mid-document close: poison the open epoch on every worker and
            # account the partial document as aborted, like a bounded abort.
            wire = encode_frame({"cmd": "abort", "doc": self._doc_epoch})
            for worker in self._alive_workers():
                worker.write(wire)
            document = self._documents
            self._documents += 1
            self._aborted_documents += 1
            self._close_epoch()
            self._broadcast_eof(document, aborted=True, error=f"stream {reason}")
        base_docs, base_aborted, base_elements = self._stream_base
        failed = self._aborted_documents - base_aborted
        stats: Dict[str, Any] = {
            "documents": self._documents - base_docs - failed,
            "documents_failed": failed,
            "elements": self._elements_total - base_elements,
            "in_document": scanner.in_document,
        }
        stats.update(self._stream_monitor_stats())
        self._stream_scanner = None
        self._stream_skip_doc = False
        self._migrate_replay_subscriptions()
        if self._front_stream is not None:
            front_stats = self._front_stream.stats()
            if "spool" in front_stats:
                stats["spool"] = front_stats["spool"]
            self._front_stream.close()
            self._front_stream = None
        if self._front_engine is not None:
            self._front_engine.close()
            self._front_engine = None
        self._stream_options = {}
        if self._stream_monitor_task is not None:
            self._stream_monitor_task.cancel()
            self._stream_monitor_task = None
        return stats

    def _migrate_replay_subscriptions(self) -> None:
        """Re-home replay subscriptions onto workers at stream close.

        On the single-process server a replay subscription outlives the
        stream session because it lives on the shared engine.  Here its
        engine (the front mirror) dies with the session, so each one gets a
        fresh worker route — live delivery continues in bounded mode with
        no visible difference to the client.
        """
        for name in sorted(self._front_replay):
            handle = self._subscriptions.get(name)
            if handle is None:
                continue
            try:
                route_key = self._route_key(handle.query)
                index = self._pick_worker(route_key[1])
            except ViteXError:
                continue
            self._install_route(name, route_key, index)
            worker = self._workers[index]
            if worker.alive:
                # Fire-and-forget, like _remove_subscription's unsubscribe.
                worker.request(
                    {"cmd": "subscribe", "query": handle.query, "name": name}
                )
        self._front_replay.clear()

    def _stream_stats(self) -> Optional[Dict[str, Any]]:
        scanner = self._stream_scanner
        if scanner is None:
            return None
        base_docs, base_aborted, base_elements = self._stream_base
        failed = self._aborted_documents - base_aborted
        payload: Dict[str, Any] = {
            "documents": self._documents - base_docs - failed,
            "documents_failed": failed,
            "elements": self._elements_total - base_elements,
            "in_document": self._doc_open or scanner.in_document,
            "replay_subscriptions": len(self._front_replay),
        }
        if self._front_stream is not None and self._front_stream.spool is not None:
            payload["spool"] = self._front_stream.spool.accounting()
        payload.update(self._stream_monitor_stats())
        return payload

    def _heartbeat_frame(self) -> Dict[str, Any]:
        frame = super()._heartbeat_frame()
        scanner = self._stream_scanner
        if scanner is not None:
            frame["in_document"] = self._doc_open or scanner.in_document
        return frame

    def _subscribe_replay(self, connection, frame, query: str) -> None:
        """``replay_window`` on the sharded front: mirror-served, no route."""
        if self._front_stream is None:
            raise ProtocolError(
                "replay_window needs an open stream session with retention "
                "(stream_open with retain_documents or retain_bytes)"
            )
        requested = frame.get("name")
        if requested is not None and not isinstance(requested, str):
            raise ProtocolError("subscribe 'name' must be a string")
        # The front owns the namespace: collide against *all* server
        # subscriptions, not just the mirror engine's.
        name = self._assign_name(requested)
        subscription, replayed = self._front_stream.subscribe_replay(
            query, name=name
        )
        handle = _SubscriptionHandle(name, subscription.query, connection)
        handle.delivered = len(replayed)
        self._subscriptions[name] = handle
        connection.names.append(name)
        self._front_replay.add(name)
        self._enqueue(
            connection,
            None,
            encode_frame(
                {
                    "type": "subscribed",
                    "name": name,
                    "query": subscription.query,
                    "mid_stream": self._doc_open or self._front_stream.in_document,
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
                name,
                encode_frame(
                    {
                        "type": "solution",
                        "name": name,
                        "ts": ts,
                        "replayed": True,
                        "solution": solution_to_payload(pair.solution),
                    }
                ),
            )

    async def _stream_feed_sharded(self, connection, data: str) -> None:
        """One stream-mode feed: split at boundaries, drive the workers.

        The scanner hands back ``(segment, completed)`` pieces; each
        segment streams to the workers over the normal feed path (events
        or broadcast, pinned per document as usual) and every completed
        boundary runs the finish cycle — no client ``finished`` reply, one
        ``eof`` broadcast per document, exactly like the bounded protocol.
        A document some worker failed is skipped to the next boundary
        (``on_error="skip"``) or tears the stream session down
        (``on_error="raise"``).
        """
        scanner = self._stream_scanner
        assert scanner is not None
        self._stream_last_feed = time.monotonic()
        self._arm_stream_monitor()
        raise_mode = self._stream_options.get("on_error") == "raise"
        for segment, completed in scanner.feed(data):
            if self._stream_scanner is None:
                return  # torn down mid-loop (worker abort in raise mode)
            # The retention mirror consumes the same segments in lockstep
            # (its own scanner and skip handling are independent); its
            # pairs — the replay subscriptions' live deliveries — must
            # route before the segment's eof can broadcast.
            front = self._front_stream
            if front is not None:
                mirror_pairs = front.feed_text(segment)
                if mirror_pairs:
                    self._route(mirror_pairs)
            if self._stream_skip_doc:
                if completed:
                    self._stream_skip_doc = False
                continue
            try:
                if self._doc_events is None:
                    self._doc_events = self._events_mode
                if self._doc_events:
                    await self._feed_events(connection, segment)
                else:
                    await self._feed_broadcast(connection, segment)
                if self._stream_scanner is None:
                    return
                if completed and not self._stream_skip_doc:
                    if self._doc_open:
                        await self._finish_document(connection, {}, reply=False)
                elif completed:
                    self._stream_skip_doc = False
            except ViteXError as exc:
                # The document's abort accounting already ran — either
                # synchronously (_abort_front_document in events mode) or
                # via the worker abort push racing the finish replies.
                if raise_mode:
                    if self._stream_scanner is not None:
                        self._close_stream_session(reason="parse error")
                    raise
                self._stream_skip_doc = not completed

    async def _cmd_stats(self, connection, frame) -> None:
        await self._refresh_worker_stats()
        self._enqueue(connection, None, encode_frame(self.stats()))

    async def _cmd_checkpoint(self, connection, frame) -> None:
        path = frame.get("path")
        if path is not None:
            if not isinstance(path, str) or not path:
                raise ProtocolError("checkpoint 'path' must be a non-empty string")
            path = self._client_checkpoint_path(path)
        meta = await self.save_checkpoint_async(path)
        meta["type"] = "checkpointed"
        self._enqueue(connection, None, encode_frame(meta))

    async def _cmd_restore(self, connection, frame) -> None:
        path = frame.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError("restore needs a 'path' string")
        meta = await self.restore_from_file(self._client_checkpoint_path(path))
        meta["type"] = "restored"
        self._enqueue(connection, None, encode_frame(meta))

    # The dispatch table must point at the overridden coroutines (the base
    # class dict captured the base functions).
    _COMMANDS = dict(ServiceServer._COMMANDS)
    _COMMANDS.update(
        {
            "subscribe": _cmd_subscribe,
            "subscribe_batch": _cmd_subscribe_batch,
            "feed": _cmd_feed,
            "finish": _cmd_finish,
            "stats": _cmd_stats,
            "checkpoint": _cmd_checkpoint,
            "restore": _cmd_restore,
        }
    )

    # ------------------------------------------------------ worker events

    def _on_worker_solution(self, name: str, frame_bytes: bytes) -> None:
        """Route one pre-encoded solution frame to its owner (hot path)."""
        handle = self._subscriptions.get(name)
        if handle is None:
            return  # unsubscribed while the solution was in flight
        handle.delivered += 1
        self._solutions_total += 1
        if handle.connection is None:
            if handle.callback is not None and not handle.detached:
                try:
                    frame = decode_frame(frame_bytes)
                    handle.callback(name, solution_from_payload(frame["solution"]))
                except Exception:
                    handle.callback_errors += 1
            return
        handle.connection.delivered += 1
        self._enqueue(handle.connection, name, frame_bytes)

    def _on_worker_abort(self, worker: _WorkerHandle, frame: Dict[str, Any]) -> None:
        """First worker to fail a document epoch aborts it front-wide."""
        if not self._doc_open or frame.get("doc") != self._doc_epoch:
            return  # stale: another worker already aborted this epoch
        streaming = self._stream_scanner is not None
        skip_mode = streaming and self._stream_options.get("on_error") != "raise"
        message = frame.get("message", "document aborted")
        feeder = self._feeder
        document = self._documents
        self._documents += 1
        self._aborted_documents += 1
        self._elements_total += frame.get("elements", 0)
        self._close_epoch()
        self._broadcast_eof(document, aborted=True, error=message)
        if (
            not skip_mode
            and frame.get("origin") == "feed"
            and feeder is not None
            and feeder in self._connections
        ):
            self._enqueue(feeder, None, encode_frame(error_frame(message, cmd="feed")))
        if streaming:
            if skip_mode:
                # Swallow the rest of this document; the stream resumes at
                # the next boundary the scanner reports.
                self._stream_skip_doc = True
            else:
                self._close_stream_session(reason="parse error")

    def _on_worker_crash(self, worker: _WorkerHandle) -> None:
        """Contain a dead worker: detach exactly its subscriptions."""
        affected = [
            name for name, index in self._routes.items() if index == worker.index
        ]
        for name in affected:
            handle = self._subscriptions.get(name)
            message = (
                f"worker {worker.index} died; subscription {name!r} was detached"
            )
            if handle is not None and handle.connection is not None:
                self._enqueue(
                    handle.connection,
                    None,
                    encode_frame({"type": "error", "message": message, "name": name}),
                )
            self._remove_subscription(name)
        if self._worker_stats and worker.index < len(self._worker_stats):
            self._worker_stats[worker.index]["alive"] = False

    # ------------------------------------------------------------ stats

    def stats(self) -> Dict[str, Any]:
        payload = super().stats()
        cached = []
        for worker, entry in zip(self._workers, self._worker_stats):
            entry = dict(entry)
            entry["alive"] = worker.alive
            entry["queue_depth"] = worker.queue_depth
            cached.append(entry)
        if cached:
            payload["workers"] = cached
            payload["machine_count"] = sum(e["machine_count"] for e in cached)
            payload["elements"] = max(
                self._elements_total, max(e["elements"] for e in cached)
            )
            busy = self._busy_seconds
            payload["events_per_sec"] = (
                round(payload["elements"] / busy, 1) if busy > 0 else 0.0
            )
        payload["document_open"] = self._doc_open
        payload["worker_count"] = len(self._workers)
        payload["shard_mode"] = "events" if self._events_mode else "broadcast"
        if cached:
            payload["worker_cpu_seconds"] = round(
                sum(e.get("cpu_seconds", 0.0) for e in cached), 4
            )
        return payload

    async def _refresh_worker_stats(self) -> None:
        for worker, entry in zip(self._workers, self._worker_stats):
            entry["alive"] = worker.alive
            entry["queue_depth"] = worker.queue_depth
            if not worker.alive:
                continue
            try:
                reply = await worker.call({"cmd": "stats"})
            except WorkerError:
                continue
            if reply.get("type") != "stats":
                continue
            for key in (
                "subscriptions",
                "machine_count",
                "elements",
                "events_per_sec",
                "cpu_seconds",
            ):
                if key in reply:
                    entry[key] = reply[key]

    # ------------------------------------------------------------ checkpoint

    async def _capture_checkpoint(self) -> Dict[str, Any]:
        """Gather one consistent snapshot per worker (version-2 payload).

        Holding the pipeline lock keeps feed broadcasts out of the gap
        between the per-worker snapshot requests, so every shard is taken
        at the same chunk boundary.
        """
        if self._stream_scanner is not None:
            raise CheckpointError(
                "cannot checkpoint while a stream session is open on the "
                "sharded front (its state spans processes); close it with "
                "stream_close first"
            )
        workers = self._alive_workers()
        if len(workers) != len(self._workers):
            raise CheckpointError("cannot checkpoint while a worker is down")
        async with self._pipeline_lock:
            # Captured under the lock so the front parser state and every
            # worker snapshot sit at the same chunk boundary.
            front_state = (
                self._front.snapshot_state() if self._front is not None else None
            )
            futures = [worker.request({"cmd": "snapshot"}) for worker in workers]
        replies = await asyncio.gather(*futures)
        shards = []
        for reply in replies:
            if reply.get("type") != "snapshot":
                raise CheckpointError(
                    reply.get("message", "worker snapshot failed")
                )
            shards.append(reply["snapshot"])
        payload: Dict[str, Any] = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION_SHARDED,
            "server": {
                "parser": self.parser,
                "workers": len(self._workers),
                "shard_mode": "events" if self._events_mode else "broadcast",
                "documents": self._documents,
                "aborted_documents": self._aborted_documents,
                "elements_total": self._elements_total,
                "solutions_total": self._solutions_total,
                "subscriptions": {
                    name: {
                        "query": handle.query,
                        "fingerprint": self._fingerprints.get(name),
                        "worker": self._routes.get(name),
                        "delivered": handle.delivered,
                        "dropped": handle.dropped,
                        "callback_errors": handle.callback_errors,
                        "local": handle.connection is None and not handle.detached,
                    }
                    for name, handle in self._subscriptions.items()
                },
            },
            "shards": shards,
        }
        if front_state is not None:
            payload["front"] = front_state
        return payload

    async def save_checkpoint_async(self, path: Optional[str] = None) -> Dict[str, Any]:
        target = path or self.checkpoint_path
        payload = await self._capture_checkpoint()
        data = await asyncio.to_thread(_encode_checkpoint, payload)
        await asyncio.to_thread(_write_atomically, target, data)
        return self._record_checkpoint(target, data)

    def save_checkpoint(self, path: Optional[str] = None) -> Dict[str, Any]:
        raise CheckpointError(
            "the sharded server checkpoints asynchronously; "
            "use save_checkpoint_async()"
        )

    def checkpoint_state(self) -> Dict[str, Any]:
        raise CheckpointError(
            "the sharded server checkpoints asynchronously; "
            "use _capture_checkpoint()"
        )

    async def restore_from_file(self, path: str) -> Dict[str, Any]:  # type: ignore[override]
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"malformed checkpoint {path!r}: {exc}") from exc
        await self.restore_state(payload)
        return {
            "path": path,
            "document": self._documents,
            "mid_document": self._doc_open,
            "subscriptions": len(self._subscriptions),
            "elements": self._elements_total,
        }

    async def restore_state(self, payload: Dict[str, Any]) -> None:  # type: ignore[override]
        """Restore a version-1 or version-2 checkpoint across the workers.

        Between documents (every shard idle) any worker count works: the
        front re-routes each subscription and the workers rebuild their
        machines from the query sources.  Mid-document, shard *i* carries
        worker *i*'s parse state, so the worker count must match.
        """
        if self._doc_open:
            raise CheckpointError("cannot restore while a document is in progress")
        if self._subscriptions:
            raise CheckpointError("cannot restore over existing subscriptions")
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"not a {CHECKPOINT_FORMAT} payload "
                f"(format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if version == CHECKPOINT_VERSION_STREAM:
            raise CheckpointError(
                "stream-mode checkpoints (version 3) restore on the "
                "single-process server only"
            )
        if version not in (CHECKPOINT_VERSION, CHECKPOINT_VERSION_SHARDED):
            raise CheckpointError(f"unsupported checkpoint version {version!r}")
        meta = payload.get("server") or {}
        if version == CHECKPOINT_VERSION:
            shards = [payload["snapshot"]]
            sources = snapshot_subscription_sources(payload["snapshot"])
            counters = meta.get("subscriptions", {})
            sub_meta: Dict[str, Dict[str, Any]] = {
                name: {"query": source, **counters.get(name, {})}
                for name, source in sources.items()
            }
        else:
            shards = payload.get("shards")
            if not isinstance(shards, list) or not shards:
                raise CheckpointError("sharded checkpoint has no shards")
            sub_meta = meta.get("subscriptions", {})
        self.parser = meta.get("parser", self.parser)
        await self._ensure_workers()
        mid_document = any(
            isinstance(shard, dict) and shard.get("session") is not None
            for shard in shards
        )
        if mid_document:
            events_doc = any(
                isinstance(shard, dict)
                and isinstance(shard.get("session"), dict)
                and shard["session"].get("parser") == "events"
                for shard in shards
            )
            front_state = payload.get("front")
            if events_doc:
                # Validate before touching the workers so a refused restore
                # leaves them untouched.
                if not self._events_mode:
                    raise CheckpointError(
                        "this checkpoint was taken mid-document in events "
                        "shard mode; restore it with --shard-mode auto or "
                        "events (every worker must speak protocol v2)"
                    )
                if not isinstance(front_state, dict):
                    raise CheckpointError(
                        "events-mode checkpoint is missing the front parser "
                        "state"
                    )
            await self._restore_mid_document(shards, sub_meta)
            if self._doc_open and events_doc:
                try:
                    self._front = _FrontParser.restore(front_state, self.parser)
                except ViteXError as exc:
                    raise CheckpointError(
                        f"cannot replay the front parser spool: {exc}"
                    ) from exc
                # Fresh codec state on both ends of every pipe: the worker
                # restore installed fresh decoders, so the interning tables
                # restart together at this chunk boundary.
                self._front_encoder = EventFrameEncoder()
                self._doc_events = True
            elif self._doc_open:
                self._doc_events = False
        else:
            await self._restore_redistributed(sub_meta)
        for name, info in sub_meta.items():
            handle = self._subscriptions.get(name)
            if handle is None:  # pragma: no cover - restore paths build all
                continue
            handle.delivered = info.get("delivered", 0)
            handle.dropped = info.get("dropped", 0)
            handle.callback_errors = info.get("callback_errors", 0)
            handle.detached = not info.get("local", False)
        self._documents = meta.get("documents", 0)
        self._aborted_documents = meta.get("aborted_documents", 0)
        self._elements_total = meta.get("elements_total", 0)
        self._solutions_total = meta.get("solutions_total", 0)

    async def _restore_mid_document(
        self, shards: List[Dict[str, Any]], sub_meta: Dict[str, Dict[str, Any]]
    ) -> None:
        if len(shards) != len(self._workers):
            raise CheckpointError(
                f"mid-document checkpoint has {len(shards)} shard(s); "
                f"restore it with --workers {len(shards)}"
            )
        any_open = False
        for worker, shard in zip(self._workers, shards):
            reply = await worker.call({"cmd": "restore", "snapshot": shard})
            if reply.get("type") != "restored":
                raise CheckpointError(reply.get("message", "worker restore failed"))
            any_open = any_open or bool(reply.get("mid_document"))
            for name in reply.get("subscriptions", []):
                query = sub_meta.get(name, {}).get("query", "")
                handle = _SubscriptionHandle(name, query, None)
                self._subscriptions[name] = handle
                if query:
                    self._install_route(name, self._route_key(query), worker.index)
                else:  # pragma: no cover - meta always carries the query
                    self._routes[name] = worker.index
        self._doc_open = any_open

    async def _restore_redistributed(
        self, sub_meta: Dict[str, Dict[str, Any]]
    ) -> None:
        for name, info in sub_meta.items():
            query = info.get("query")
            if not isinstance(query, str) or not query:
                raise CheckpointError(
                    f"checkpoint is missing the query for subscription {name!r}"
                )
            route_key = self._route_key(query)
            index = self._pick_worker(route_key[1])
            handle = _SubscriptionHandle(name, query, None)
            self._subscriptions[name] = handle
            self._install_route(name, route_key, index)
            reply = await self._workers[index].call(
                {"cmd": "subscribe", "query": query, "name": name}
            )
            if reply.get("type") == "error":
                raise CheckpointError(
                    f"re-subscribing {name!r} failed: {reply.get('message')}"
                )


__all__ = ["ShardedServiceServer", "WorkerError", "WORKER_PIPE_LIMIT"]
