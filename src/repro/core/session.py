"""Push-mode parse sessions: feed wire chunks in, get solution pairs out.

Everything below :meth:`MultiQueryEvaluator.evaluate` assumes the engine can
*pull* the document — a string, a file, an iterable it drains.  A network
service cannot offer that: bytes arrive on a socket at arbitrary chunk
boundaries, the read loop belongs to the event loop, and the engine must
hand back whatever solutions each chunk completed before the next chunk
exists.  :class:`StreamSession` is that inversion:

``session = engine.session(parser=...)`` opens a push session over a
:class:`~repro.core.multi.MultiQueryEvaluator`.  ``session.feed_bytes(chunk)``
(or :meth:`feed_text`) advances the parse by exactly one chunk and returns
the ``(subscription name, solution)`` pairs it completed; :meth:`finish`
ends the document, returning the trailing pairs.  Chunks may be split at
*any* byte offset — mid-tag, mid-entity, mid multibyte sequence — and the
resulting pair stream is identical to the one-shot ``evaluate()`` answer.

Two drivers, selected by ``parser``; neither builds event objects, and
each delivers a match the moment the tag that decides it is read, not when
its chunk is done:

* ``"pure"`` / ``"native"`` — the incremental
  :class:`~repro.xmlstream.tokenizer.StreamTokenizer` (bytes decoded by
  :class:`~repro.xmlstream.reader.IncrementalByteDecoder`) with the
  engine's :class:`~repro.core.kernel.Kernel` as its sink: the scan hands
  each construct to the kernel's record entries as it completes it.
* ``"expat"`` — the fused
  :class:`~repro.core.fastpath.FusedExpatDriver` in push mode: chunks go
  straight to ``Parse(chunk, 0)`` and callbacks drive the kernel.

:class:`EventStreamSession` is the parser-free third kind: decoded events,
or binary event frames walked record by record into the kernel.

Engine-state contract
---------------------

A session owns the engine's stream position while open: do not mix
``session.feed_*`` with ``engine.feed``/``engine.stream`` on the same
document.  Mid-stream ``register``/``unregister``/``pause``/``resume``
*between* feed calls are fully supported and follow the engine's documented
mid-stream semantics (late subscriptions get private machines and see only
the remainder).  Feeding with **zero** registered subscriptions is allowed
and keeps the global element pre-order advancing — a standing service keeps
parsing while subscribers churn.  After :meth:`finish` the engine is
finished (``results()`` works, ``register`` refuses) until ``engine.reset()``
starts the next document.  A chunk that raises
:class:`~repro.errors.XMLSyntaxError` (or an encoding error) aborts the
session and resets every machine, leaving the engine clean for a fresh
document; callbacks that already fired stay fired, matching the engine's
incremental-delivery semantics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..errors import CheckpointError, EngineError
from ..xmlstream.eventcodec import EventFrameDecoder
from ..xmlstream.reader import IncrementalByteDecoder
from ..xmlstream.sax import PARSER_BACKENDS
from ..xmlstream.tokenizer import StreamTokenizer
from .checkpoint import decode_spool, encode_spool, engine_state, make_snapshot
from .fastpath import FusedExpatDriver
from .results import Match


class StreamSession:
    """One push-mode document parse over a ``MultiQueryEvaluator``.

    Create via :meth:`MultiQueryEvaluator.session`.  Not thread-safe; feed
    from one task/thread at a time.
    """

    def __init__(
        self,
        engine,
        parser: str = "native",
        encoding: Optional[str] = None,
        resumable: bool = True,
    ) -> None:
        if parser not in PARSER_BACKENDS:
            raise ValueError(
                f"unknown parser backend {parser!r}; expected one of {PARSER_BACKENDS}"
            )
        self._engine = engine
        self.parser = parser
        self._finished = False
        self._failed = False
        self._aborted_elements = 0
        if parser == "expat":
            self._driver = FusedExpatDriver(engine._kernel)
            self._tokenizer = None
            # expat detects encodings itself; an explicit override means the
            # caller decodes better than expat would, so decode Python-side
            # and hand expat str chunks.
            self._decoder = (
                IncrementalByteDecoder(encoding) if encoding is not None else None
            )
            # expat state cannot be serialized, so a resumable expat session
            # spools the chunk prefix: snapshot() ships it and restore
            # re-drives a fresh parser over it (memory grows with the
            # document; pass resumable=False to opt out).
            self._spool: Optional[List[Union[str, bytes]]] = [] if resumable else None
        else:
            self._driver = None
            self._tokenizer = StreamTokenizer(encoding=encoding, sink=engine._kernel)
            self._decoder = None
            self._spool = None

    # ------------------------------------------------------------------ API

    @property
    def engine(self):
        """The :class:`MultiQueryEvaluator` this session drives."""
        return self._engine

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` completed (or the session failed)."""
        return self._finished

    @property
    def failed(self) -> bool:
        """True when a feed raised (or the producer aborted) and the
        session was torn down."""
        return self._failed

    @property
    def element_count(self) -> int:
        """Start tags parsed so far (the global element pre-order position).

        After an abort this reports the count at the moment of failure (the
        abort itself resets the engine's live counter).
        """
        if self._failed:
            return self._aborted_elements
        if self._driver is not None:
            return self._driver.element_count
        return self._engine._element_order

    def feed_bytes(self, chunk: bytes) -> List[Match]:
        """Feed one byte chunk; return the pairs it completed.

        Chunks may be split at any byte offset; partial multibyte sequences
        and entity references carry over to the next call.
        """
        self._check_open()
        try:
            if self._tokenizer is not None:
                return self._engine._kernel.collect([], self._tokenizer.feed_bytes, chunk)
            if self._decoder is not None:
                chunk = self._decoder.decode(chunk)  # type: ignore[assignment]
            return self._feed_fused(chunk)
        except Exception:
            self._abort()
            raise

    def feed_text(self, chunk: str) -> List[Match]:
        """Feed one text chunk; return the pairs it completed."""
        self._check_open()
        try:
            if self._tokenizer is not None:
                return self._engine._kernel.collect([], self._tokenizer.feed, chunk)
            return self._feed_fused(chunk)
        except Exception:
            self._abort()
            raise

    def finish(self) -> List[Match]:
        """Declare end of input; return the trailing pairs.

        Raises :class:`~repro.errors.XMLSyntaxError` when the document is
        incomplete.  Afterwards the engine is finished: ``results()`` holds
        the per-subscription answer and ``engine.reset()`` begins the next
        document.
        """
        self._check_open()
        try:
            kernel = self._engine._kernel
            if self._tokenizer is not None:
                pairs = kernel.collect([], self._tokenizer.close)
                self._engine._finished = True
                return pairs
            driver = self._driver
            pairs = []
            if self._decoder is not None:
                # Flush the explicit-encoding decoder: raises EncodingError
                # if the stream ended mid-multibyte-sequence (matching the
                # tokenizer path), and feeds any final decoded text.
                tail = self._decoder.decode(b"", final=True)
                if tail:
                    kernel.collect(pairs, driver.feed, tail)
            kernel.collect(pairs, driver.finish)
            return pairs
        except Exception:
            self._abort()
            raise
        finally:
            self._finished = True

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> Dict[str, Any]:
        """Versioned, JSON-able snapshot of this open session and its engine.

        Captures the full live state — every machine stack, candidate and
        collected solution, the global element pre-order, and the parse
        carry-over (unparsed tails, undecoded bytes) — so that
        ``MultiQueryEvaluator().restore_session(snap)`` in a *fresh process*
        continues the document exactly where this one stopped: feeding the
        suffix there produces pairs byte-identical to an unbroken run.

        Serialize with :func:`repro.core.checkpoint.dumps_snapshot`.  Only an
        open session can be snapshotted; between documents, snapshot the
        engine itself (:meth:`MultiQueryEvaluator.snapshot`).  Subscription
        callbacks do not travel; re-bind them after restore.
        """
        self._check_snapshot()
        session_state: Dict[str, Any] = {"parser": self.parser}
        if self._tokenizer is not None:
            session_state["tokenizer"] = self._tokenizer.snapshot_state()
        else:
            if self._spool is None:
                raise CheckpointError(
                    "this expat session was opened with resumable=False"
                )
            session_state["driver"] = self._driver.snapshot_state()
            session_state["spool"] = encode_spool(self._spool)
            if self._decoder is not None:
                session_state["decoder"] = self._decoder.snapshot_state()
        return make_snapshot(engine_state(self._engine), session_state)

    @classmethod
    def _from_snapshot(cls, engine, state: Dict[str, Any]) -> "StreamSession":
        """Rebuild a session from snapshot state (engine already restored)."""
        parser = state.get("parser", "native")
        if parser not in PARSER_BACKENDS:
            raise CheckpointError(f"unknown parser backend {parser!r} in snapshot")
        session = cls.__new__(cls)
        session._engine = engine
        session.parser = parser
        session._finished = False
        session._failed = False
        session._aborted_elements = 0
        if parser == "expat":
            session._tokenizer = None
            spool = decode_spool(state.get("spool", []))
            driver = FusedExpatDriver(engine._kernel)
            driver.prime(spool, state["driver"])
            session._driver = driver
            session._spool = spool
            decoder_state = state.get("decoder")
            session._decoder = (
                IncrementalByteDecoder.restore_state(decoder_state)
                if decoder_state is not None
                else None
            )
        else:
            session._driver = None
            session._decoder = None
            session._spool = None
            session._tokenizer = StreamTokenizer.restore_state(
                state["tokenizer"], sink=engine._kernel
            )
        return session

    # ------------------------------------------------------------ internals

    def _check_open(self) -> None:
        if self._failed:
            raise EngineError("session aborted by an earlier stream error")
        if self._finished:
            raise EngineError("session already finished")

    def _check_snapshot(self) -> None:
        if self._failed:
            raise CheckpointError("cannot snapshot an aborted session")
        if self._finished:
            raise CheckpointError(
                "cannot snapshot a finished session; snapshot the engine instead"
            )

    def _abort(self) -> None:
        """Reset every machine after a stream error (engine stays usable).

        Mirrors the failed fused-run cleanup in ``evaluate()``: partial
        machine state (and collected solutions) must not leak into a later
        document; already-fired callbacks stay fired.
        """
        self._aborted_elements = self.element_count
        self._failed = True
        self._finished = True
        self._engine._rewind()

    def _feed_fused(self, chunk: Union[str, bytes]) -> List[Match]:
        spool = self._spool
        if spool is not None and chunk:
            # O(1) append per feed; adjacent same-type chunks are coalesced
            # lazily by encode_spool at snapshot time (eagerly concatenating
            # here would re-copy the whole prefix on every feed).
            spool.append(chunk)
        return self._engine._kernel.collect([], self._driver.feed, chunk)


#: Parser label recorded in snapshots taken from an event session; distinct
#: from every entry in ``PARSER_BACKENDS`` so restore can dispatch on it.
EVENTS_PARSER = "events"


class EventStreamSession:
    """One push-mode document over *pre-parsed events* (no parser at all).

    This is the worker-side half of parse-once sharding (worker-pipe
    protocol v2): the front process tokenizes the document exactly once,
    ships binary event frames, and each worker walks them straight into the
    engine's :class:`~repro.core.kernel.Kernel` — the dispatch index runs
    with no tokenizer, no decoder and no expat instance.

    The session mirrors :class:`StreamSession` semantics exactly —
    document-global pre-order (the kernel injects it per start tag),
    abort-on-error machine reset, eof validation via the
    stream ends the producer emits — so a worker matching
    from events is push-identical to one parsing raw XML.  It is also the
    reason v2 checkpoint shards shrink: there is no parser carry-over to
    spool, so ``snapshot()`` embeds engine state only, and a restored
    session is simply a fresh shell over the restored engine (the front
    re-synchronises the frame codec at the same stream boundary).

    Create via :meth:`MultiQueryEvaluator.event_session`.
    """

    parser = EVENTS_PARSER

    # The parser-free part of the StreamSession contract, shared verbatim.
    engine = StreamSession.engine
    finished = StreamSession.finished
    failed = StreamSession.failed
    _check_open = StreamSession._check_open
    _check_snapshot = StreamSession._check_snapshot
    _abort = StreamSession._abort

    def __init__(self, engine) -> None:
        self._engine = engine
        self._finished = False
        self._failed = False
        self._aborted_elements = 0
        # Lazy per-document frame-codec state for feed_frame(); stays None
        # for producers that decode frames themselves and use feed_events.
        self._decoder = None

    # ------------------------------------------------------------------ API

    @property
    def element_count(self) -> int:
        """Start elements pushed so far (the global element pre-order)."""
        if self._failed:
            return self._aborted_elements
        return self._engine._element_order

    def feed_events(self, events) -> List[Match]:
        """Push a run of decoded events; return the pairs they completed."""
        self._check_open()
        try:
            return self._engine._kernel.run(events, [])
        except Exception:
            self.abort()
            raise

    def feed_frame(self, frame: bytes) -> List[Match]:
        """Push one *binary event frame* (the protocol-v2 wire unit).

        Equivalent to ``feed_events(decoder.decode(frame))`` with the
        session owning the decoder, but fused: start, end and text records
        reach the engine's kernel straight off the wire bytes
        (:meth:`~repro.xmlstream.eventcodec.EventFrameDecoder.walk`), with no
        event objects in between.
        Frames must arrive in production order from one
        :class:`~repro.xmlstream.eventcodec.EventFrameEncoder`; the
        session's codec state resets with the session, which is why a
        restored session pairs with a fresh front-side encoder.
        """
        self._check_open()
        decoder = self._decoder
        if decoder is None:
            decoder = self._decoder = EventFrameDecoder()
        kernel = self._engine._kernel
        try:
            return kernel.collect(
                [],
                decoder.walk,
                frame,
                kernel.start_record,
                kernel.end_record,
                kernel.chars_record,
                kernel.other,
            )
        except Exception:
            self.abort()
            raise

    def finish(self) -> List[Match]:
        """Declare end of the event stream.

        The producer's trailing events (including ``EndDocument``, which
        validates machine-stack emptiness) arrive through
        :meth:`feed_events` before this call, so there are never trailing
        pairs here — the method exists to flip the engine into its
        finished state with the same contract as
        :meth:`StreamSession.finish`.
        """
        self._check_open()
        self._finished = True
        self._engine._finished = True
        return []

    def abort(self) -> None:
        """Tear the session down after a producer-side failure.

        In events mode parse errors happen in the *front* process; the
        worker is told to abort and must reset every machine exactly like a
        local parse error would.
        """
        if not self._failed:
            self._abort()

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> Dict[str, Any]:
        """Engine state + the ``events`` parser marker; no parse carry-over.

        Compare :meth:`StreamSession.snapshot`: the raw-XML sessions must
        ship tokenizer tails or a spooled chunk prefix; an event session has
        neither, which is why v2 checkpoint shards are smaller in events
        mode.  Restore with ``MultiQueryEvaluator().restore_session(snap)``,
        which returns a fresh :class:`EventStreamSession` over the restored
        engine.
        """
        self._check_snapshot()
        return make_snapshot(engine_state(self._engine), {"parser": self.parser})

    @classmethod
    def _from_snapshot(cls, engine, state: Dict[str, Any]) -> "EventStreamSession":
        """Rebuild from snapshot state (engine already restored).

        There is no carry-over to rebuild; the producer restarts its frame
        codec at the same stream boundary, so a fresh shell is exact.
        """
        if state.get("parser") != EVENTS_PARSER:
            raise CheckpointError(
                f"not an event-session snapshot: parser={state.get('parser')!r}"
            )
        return cls(engine)


__all__ = ["EVENTS_PARSER", "EventStreamSession", "StreamSession"]
