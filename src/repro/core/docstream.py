"""Infinite-stream mode: unbounded document streams with bounded memory.

Every other session surface assumes a *bounded* document: ``Engine.open()``
parses one document and ``finish()`` ends it.  The paper's headline
scenarios — stock tickers, personalised news feeds — are streams of small
documents that never end.  :class:`DocumentStreamSession`
(``engine.document_stream(...)``) is that mode:

* **Boundary detection** — the feed is an endless concatenation of XML
  documents.  :class:`DocumentBoundaryScanner` splits incoming text at
  root-close boundaries (quote-, comment-, CDATA-, PI- and DOCTYPE-aware,
  so a ``>`` inside any of those never ends a document) without parsing;
  an explicit frame mode (:meth:`DocumentStreamSession.feed_document`,
  :meth:`~DocumentStreamSession.feed_framed`) bypasses detection entirely.
* **Flat memory** — between documents the session resets every machine
  (stacks, candidates and collected solutions are dropped; pooled stack
  entries return to the free list) while *keeping* subscriptions alive and
  their ``delivered`` counters advancing — unlike ``engine.reset()``,
  which zeroes them.  Nothing grows with the number of documents
  processed, which ``tests/core/test_docstream.py::TestFlatMemory``
  asserts with a traced-memory bound.
* **Per-window stats** — every ``window_documents`` completed documents
  the session seals a :class:`WindowStats` (``docs/s``, ``elements/s``,
  ``matches/s``, peak live stack entries, per-document processing-latency
  percentiles) into a bounded history.
* **Rolling retention** — with ``retain_documents``/``retain_bytes`` set,
  the session spools the last *K* documents (or *B* bytes) as replayable
  binary event frames (:mod:`repro.xmlstream.eventcodec`).  A late
  subscriber can then opt into :meth:`~DocumentStreamSession.subscribe`
  ``(..., replay_window=True)``: the spooled window — including the
  *partial* current document — replays through a private machine, which is
  then grafted into the live dispatch index at exactly the stream
  position, so replayed + live deliveries equal the one-shot result set
  with no duplicate and no gap at any splice offset.

Mid-stream semantics recap (``replay_window=False`` is unchanged engine
behaviour): a subscriber added between documents joins cold and sees every
*following* document; one added mid-document sees the remainder of the
current document onward.  ``replay_window=True`` extends coverage backwards
over the retained window.
"""

from __future__ import annotations

import base64
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from ..errors import CheckpointError, EngineError
from ..xmlstream.eventcodec import EventFrameDecoder, EventFrameEncoder
from ..xmlstream.events import Event, StartElement
from ..xmlstream.expat_backend import ExpatEventSource
from ..xmlstream.reader import IncrementalByteDecoder
from ..xmlstream.sax import PARSER_BACKENDS
from ..xmlstream.tokenizer import StreamTokenizer
from .checkpoint import encode_spool, engine_state, make_snapshot
from .results import Match, Solution

__all__ = [
    "DOCSTREAM_PARSER",
    "DocumentBoundaryScanner",
    "DocumentStreamSession",
    "RetentionSpool",
    "WindowStats",
    "frame_document",
]

#: Parser label recorded in snapshots taken from a document-stream session;
#: distinct from every entry in ``PARSER_BACKENDS`` so restore can dispatch.
DOCSTREAM_PARSER = "docstream"

#: Framing modes accepted by :class:`DocumentStreamSession`.
FRAMING_MODES = ("auto", "framed")


# --------------------------------------------------------------------------
# boundary detection


_S_EPILOG = 0  # between documents: skipping inter-document whitespace
_S_PROLOG = 1  # inside a document, outside any < construct
_S_TAG = 2  # inside <tag ...> (quote-aware)
_S_COMMENT = 3  # inside <!-- ... -->
_S_CDATA = 4  # inside <![CDATA[ ... ]]>
_S_PI = 5  # inside <? ... ?>
_S_DOCTYPE = 6  # inside <!DOCTYPE ... > (internal-subset aware)

_WS = " \t\r\n"


class DocumentBoundaryScanner:
    """Incrementally split concatenated XML documents at root-close.

    :meth:`feed` consumes text (split at *any* offset) and returns
    ``(segment, completed)`` pieces: the segments concatenate to the input
    minus inter-document whitespace, and a piece with ``completed=True``
    ends exactly at the ``>`` of its document's root-close (or
    self-closing-root) tag.  The scanner tracks just enough lexical state —
    tags with quoted attribute values, comments, CDATA sections, processing
    instructions and DOCTYPE internal subsets — to know which ``>``
    characters count, and element depth to know which tag is the root's.
    It never allocates per-element state, so scanning cost is a few
    ``str.find`` calls per construct.

    Malformed content passes through untouched (the real parser reports
    it); only boundary placement is this class's job.
    """

    __slots__ = (
        "_state",
        "_depth",
        "_carry",
        "_tag_is_end",
        "_tag_quote",
        "_tag_tail_slash",
        "_doctype_brackets",
    )

    def __init__(self) -> None:
        self._state = _S_EPILOG
        self._depth = 0
        #: Held-back tail that cannot be classified yet (at most a few
        #: chars: an ambiguous ``<``/``<!``/``<!-`` prefix or a partial
        #: construct terminator).
        self._carry = ""
        self._tag_is_end = False
        self._tag_quote = ""
        self._tag_tail_slash = False
        self._doctype_brackets = 0

    @property
    def in_document(self) -> bool:
        """True while positioned inside a (possibly incomplete) document."""
        return self._state != _S_EPILOG

    def feed(self, text: str) -> List[Tuple[str, bool]]:
        """Consume ``text``; return ``(segment, doc_completed)`` pieces."""
        if self._carry:
            text = self._carry + text
            self._carry = ""
        segments: List[Tuple[str, bool]] = []
        length = len(text)
        pos = 0
        seg_start = 0
        state = self._state
        while pos < length:
            if state == _S_EPILOG:
                while pos < length and text[pos] in _WS:
                    pos += 1
                if pos >= length:
                    break
                state = _S_PROLOG
                seg_start = pos
                continue
            if state == _S_PROLOG:
                lt = text.find("<", pos)
                if lt < 0:
                    pos = length
                    break
                # Classify the construct; an incomplete prefix at the end
                # of the buffer is held back for the next feed.
                if lt + 1 >= length:
                    pos = lt
                    self._carry = text[lt:]
                    length = lt
                    break
                nxt = text[lt + 1]
                if nxt == "!":
                    if lt + 2 >= length or (
                        text[lt + 2] == "-" and lt + 3 >= length
                    ):
                        pos = lt
                        self._carry = text[lt:]
                        length = lt
                        break
                    third = text[lt + 2]
                    if third == "-" and text[lt + 3] == "-":
                        state = _S_COMMENT
                        pos = lt + 4
                    elif third == "[":
                        state = _S_CDATA
                        pos = lt + 3
                    else:
                        state = _S_DOCTYPE
                        self._doctype_brackets = 0
                        pos = lt + 2
                elif nxt == "?":
                    state = _S_PI
                    pos = lt + 2
                else:
                    state = _S_TAG
                    self._tag_is_end = nxt == "/"
                    self._tag_quote = ""
                    self._tag_tail_slash = False
                    pos = lt + 1
                continue
            if state == _S_TAG:
                quote = self._tag_quote
                closed_at = -1
                while pos < length:
                    ch = text[pos]
                    if quote:
                        if ch == quote:
                            quote = ""
                        pos += 1
                        continue
                    if ch == '"' or ch == "'":
                        quote = ch
                        pos += 1
                        continue
                    if ch == ">":
                        closed_at = pos
                        pos += 1
                        break
                    pos += 1
                if closed_at < 0:
                    self._tag_quote = quote
                    if not quote and pos > 0:
                        self._tag_tail_slash = text[pos - 1] == "/"
                    break
                prev = (
                    text[closed_at - 1]
                    if closed_at > 0
                    else ("/" if self._tag_tail_slash else "")
                )
                completed = False
                if self._tag_is_end:
                    if self._depth > 0:
                        self._depth -= 1
                    completed = self._depth == 0
                elif prev == "/":
                    completed = self._depth == 0
                else:
                    self._depth += 1
                self._tag_tail_slash = False
                if completed:
                    segments.append((text[seg_start:pos], True))
                    seg_start = pos
                    state = _S_EPILOG
                else:
                    state = _S_PROLOG
                continue
            if state == _S_COMMENT:
                end = text.find("-->", pos)
                if end < 0:
                    hold = max(pos, length - 2)
                    self._carry = text[hold:]
                    length = hold
                    pos = length
                    break
                pos = end + 3
                state = _S_PROLOG
                continue
            if state == _S_CDATA:
                end = text.find("]]>", pos)
                if end < 0:
                    hold = max(pos, length - 2)
                    self._carry = text[hold:]
                    length = hold
                    pos = length
                    break
                pos = end + 3
                state = _S_PROLOG
                continue
            if state == _S_PI:
                end = text.find("?>", pos)
                if end < 0:
                    hold = max(pos, length - 1)
                    self._carry = text[hold:]
                    length = hold
                    pos = length
                    break
                pos = end + 2
                state = _S_PROLOG
                continue
            # _S_DOCTYPE
            brackets = self._doctype_brackets
            while pos < length:
                ch = text[pos]
                pos += 1
                if ch == "[":
                    brackets += 1
                elif ch == "]":
                    if brackets:
                        brackets -= 1
                elif ch == ">" and not brackets:
                    state = _S_PROLOG
                    break
            self._doctype_brackets = brackets
        self._state = state
        if state != _S_EPILOG and seg_start < length:
            segments.append((text[seg_start:length], False))
        return segments

    def finish(self) -> str:
        """Flush the held-back tail (ends the stream; scanner stays usable)."""
        carry, self._carry = self._carry, ""
        if carry and self._state == _S_EPILOG and not carry.strip():
            return ""
        if carry:
            self._state = _S_PROLOG if self._state == _S_EPILOG else self._state
        return carry

    # ------------------------------------------------------------ snapshot

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-able scanner state for mid-stream checkpoints."""
        return {
            "state": self._state,
            "depth": self._depth,
            "carry": self._carry,
            "tag_is_end": self._tag_is_end,
            "tag_quote": self._tag_quote,
            "tag_tail_slash": self._tag_tail_slash,
            "doctype_brackets": self._doctype_brackets,
        }

    @classmethod
    def restore_state(cls, state: Dict[str, Any]) -> "DocumentBoundaryScanner":
        scanner = cls()
        scanner._state = int(state["state"])
        scanner._depth = int(state["depth"])
        scanner._carry = state["carry"]
        scanner._tag_is_end = bool(state["tag_is_end"])
        scanner._tag_quote = state["tag_quote"]
        scanner._tag_tail_slash = bool(state["tag_tail_slash"])
        scanner._doctype_brackets = int(state["doctype_brackets"])
        return scanner


# --------------------------------------------------------------------------
# length framing


def frame_document(document: Union[str, bytes]) -> bytes:
    """Encode one document as a length-framed unit for :meth:`feed_framed`.

    Format: unsigned LEB128 byte length followed by the UTF-8 document
    bytes.  Frames concatenate; :meth:`DocumentStreamSession.feed_framed`
    accepts the stream split at any byte offset.
    """
    payload = document.encode("utf-8") if isinstance(document, str) else document
    out = bytearray()
    value = len(payload)
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    out += payload
    return bytes(out)


# --------------------------------------------------------------------------
# retention spool


class _SpoolEntry:
    """One retained document: its event frames and accounting."""

    __slots__ = ("doc_seq", "frames", "byte_size", "element_count")

    def __init__(self, doc_seq: int) -> None:
        self.doc_seq = doc_seq
        self.frames: List[bytes] = []
        self.byte_size = 0
        self.element_count = 0


class RetentionSpool:
    """Rolling window of recent documents as replayable event frames.

    Sealed documents are evicted oldest-first once the window exceeds
    ``max_documents`` or ``max_bytes``; the in-progress document is never
    evicted (a replay subscriber needs it to splice into live delivery).
    Each document's frames come from a fresh
    :class:`~repro.xmlstream.eventcodec.EventFrameEncoder`, so every
    retained document replays independently.
    """

    __slots__ = (
        "max_documents",
        "max_bytes",
        "_entries",
        "_sealed_bytes",
        "_current",
        "_encoder",
        "evicted_documents",
        "evicted_bytes",
    )

    def __init__(
        self,
        max_documents: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_documents is None and max_bytes is None:
            raise EngineError(
                "a retention spool needs max_documents and/or max_bytes"
            )
        if max_documents is not None and max_documents < 1:
            raise EngineError("retain_documents must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise EngineError("retain_bytes must be >= 1")
        self.max_documents = max_documents
        self.max_bytes = max_bytes
        self._entries: Deque[_SpoolEntry] = deque()
        self._sealed_bytes = 0
        self._current: Optional[_SpoolEntry] = None
        self._encoder: Optional[EventFrameEncoder] = None
        self.evicted_documents = 0
        self.evicted_bytes = 0

    # ------------------------------------------------------------ accounting

    @property
    def documents(self) -> int:
        """Sealed documents currently retained."""
        return len(self._entries)

    @property
    def byte_size(self) -> int:
        """Frame bytes currently retained (sealed + in-progress)."""
        current = self._current.byte_size if self._current is not None else 0
        return self._sealed_bytes + current

    def accounting(self) -> Dict[str, int]:
        """Flat counters for ``/stats`` surfaces."""
        return {
            "documents": self.documents,
            "bytes": self.byte_size,
            "evicted_documents": self.evicted_documents,
            "evicted_bytes": self.evicted_bytes,
        }

    # ------------------------------------------------------------ producing

    def begin_document(self, doc_seq: int) -> None:
        self._current = _SpoolEntry(doc_seq)
        self._encoder = EventFrameEncoder()

    def add_events(self, events: List[Event], element_count: int) -> None:
        current = self._current
        if current is None or not events:
            return
        assert self._encoder is not None
        frame = self._encoder.encode(events)
        current.frames.append(frame)
        current.byte_size += len(frame)
        current.element_count += element_count

    def seal_document(self) -> None:
        current = self._current
        if current is None:
            return
        self._current = None
        self._encoder = None
        self._entries.append(current)
        self._sealed_bytes += current.byte_size
        self._evict()

    def abort_document(self) -> None:
        """Drop the in-progress document (parse failure / session close)."""
        self._current = None
        self._encoder = None

    def _evict(self) -> None:
        entries = self._entries
        while entries:
            over_docs = (
                self.max_documents is not None
                and len(entries) > self.max_documents
            )
            over_bytes = (
                self.max_bytes is not None and self._sealed_bytes > self.max_bytes
            )
            if not over_docs and not over_bytes:
                break
            dropped = entries.popleft()
            self._sealed_bytes -= dropped.byte_size
            self.evicted_documents += 1
            self.evicted_bytes += dropped.byte_size

    # ------------------------------------------------------------ replaying

    def replay_units(self) -> List[Tuple[bool, List[bytes]]]:
        """The retained window in order: ``(sealed, frames)`` per document."""
        units: List[Tuple[bool, List[bytes]]] = [
            (True, entry.frames) for entry in self._entries
        ]
        if self._current is not None and self._current.frames:
            units.append((False, self._current.frames))
        return units

    # ------------------------------------------------------------ snapshot

    def snapshot_state(self) -> Dict[str, Any]:
        def encode_entry(entry: _SpoolEntry) -> Dict[str, Any]:
            return {
                "doc_seq": entry.doc_seq,
                "element_count": entry.element_count,
                "frames": [
                    base64.b64encode(frame).decode("ascii")
                    for frame in entry.frames
                ],
            }

        return {
            "max_documents": self.max_documents,
            "max_bytes": self.max_bytes,
            "evicted_documents": self.evicted_documents,
            "evicted_bytes": self.evicted_bytes,
            "entries": [encode_entry(entry) for entry in self._entries],
            "current": (
                encode_entry(self._current) if self._current is not None else None
            ),
        }

    @classmethod
    def restore_state(cls, state: Dict[str, Any]) -> "RetentionSpool":
        spool = cls(
            max_documents=state.get("max_documents"),
            max_bytes=state.get("max_bytes"),
        )
        spool.evicted_documents = int(state.get("evicted_documents", 0))
        spool.evicted_bytes = int(state.get("evicted_bytes", 0))

        def decode_entry(payload: Dict[str, Any]) -> _SpoolEntry:
            entry = _SpoolEntry(int(payload["doc_seq"]))
            entry.element_count = int(payload["element_count"])
            for encoded in payload["frames"]:
                frame = base64.b64decode(encoded)
                entry.frames.append(frame)
                entry.byte_size += len(frame)
            return entry

        for payload in state.get("entries", []):
            entry = decode_entry(payload)
            spool._entries.append(entry)
            spool._sealed_bytes += entry.byte_size
        current = state.get("current")
        if current is not None:
            entry = decode_entry(current)
            spool._current = entry
            # The encoder's interning table must continue exactly where the
            # snapshotting process stopped.  The codec is deterministic, so
            # re-encoding the decoded frames rebuilds the identical state.
            encoder = EventFrameEncoder()
            decoder = EventFrameDecoder()
            for frame in entry.frames:
                encoder.encode(decoder.decode(frame))
            spool._encoder = encoder
        return spool


# --------------------------------------------------------------------------
# window stats


class WindowStats:
    """One sealed observation window of an unbounded stream session."""

    __slots__ = (
        "index",
        "documents",
        "elements",
        "matches",
        "duration_s",
        "busy_s",
        "docs_per_s",
        "elements_per_s",
        "matches_per_s",
        "peak_live_entries",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_max_ms",
    )

    def __init__(
        self,
        index: int,
        documents: int,
        elements: int,
        matches: int,
        duration_s: float,
        busy_s: float,
        peak_live_entries: int,
        latencies_ms: List[float],
    ) -> None:
        self.index = index
        self.documents = documents
        self.elements = elements
        self.matches = matches
        self.duration_s = duration_s
        self.busy_s = busy_s
        wall = duration_s if duration_s > 0 else 1e-9
        self.docs_per_s = documents / wall
        self.elements_per_s = elements / wall
        self.matches_per_s = matches / wall
        self.peak_live_entries = peak_live_entries
        ordered = sorted(latencies_ms)
        if ordered:
            self.latency_p50_ms = ordered[len(ordered) // 2]
            self.latency_p95_ms = ordered[
                min(len(ordered) - 1, int(len(ordered) * 0.95))
            ]
            self.latency_max_ms = ordered[-1]
        else:
            self.latency_p50_ms = 0.0
            self.latency_p95_ms = 0.0
            self.latency_max_ms = 0.0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """Flat JSON-able form (``/stats``)."""
        return {
            "index": self.index,
            "documents": self.documents,
            "elements": self.elements,
            "matches": self.matches,
            "duration_s": self.duration_s,
            "busy_s": self.busy_s,
            "docs_per_s": self.docs_per_s,
            "elements_per_s": self.elements_per_s,
            "matches_per_s": self.matches_per_s,
            "peak_live_entries": self.peak_live_entries,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_max_ms": self.latency_max_ms,
        }

    def __repr__(self) -> str:
        return (
            f"<WindowStats #{self.index} docs={self.documents} "
            f"docs/s={self.docs_per_s:.1f} matches/s={self.matches_per_s:.1f} "
            f"peak_live={self.peak_live_entries}>"
        )


# --------------------------------------------------------------------------
# the session


class DocumentStreamSession:
    """One unbounded stream of XML documents over a shared engine.

    Create via ``engine.document_stream(...)`` (core) or
    ``Engine.document_stream(...)`` (facade).  Feed with
    :meth:`feed_text` / :meth:`feed_bytes` (auto boundary detection),
    :meth:`feed_document` (one complete document per call) or
    :meth:`feed_framed` (length-framed bytes, ``framing="framed"``); every
    feed returns the :class:`~repro.core.results.Match` pairs it completed.
    Not thread-safe; feed from one task at a time.

    ``on_error="skip"`` makes the session resilient: a document that fails
    to parse is abandoned (machines reset, ``documents_failed`` counted)
    and processing resumes at the next boundary — the mode a long-lived
    service wants.  The default ``"raise"`` propagates, marking the
    session failed, matching :class:`~repro.core.session.StreamSession`.
    """

    def __init__(
        self,
        engine: Any,
        parser: str = "native",
        framing: str = "auto",
        encoding: Optional[str] = None,
        retain_documents: Optional[int] = None,
        retain_bytes: Optional[int] = None,
        window_documents: int = 100,
        on_window: Optional[Callable[[WindowStats], None]] = None,
        on_document: Optional[Callable[[int], None]] = None,
        on_error: str = "raise",
        resumable: bool = True,
        live_sample_interval: int = 64,
        callback_adapter: Optional[
            Callable[[str, Callable[..., None]], Callable[[Solution], None]]
        ] = None,
    ) -> None:
        if parser not in PARSER_BACKENDS:
            raise ValueError(
                f"unknown parser backend {parser!r}; expected one of {PARSER_BACKENDS}"
            )
        if framing not in FRAMING_MODES:
            raise ValueError(
                f"unknown framing mode {framing!r}; expected one of {FRAMING_MODES}"
            )
        if on_error not in ("raise", "skip"):
            raise ValueError("on_error must be 'raise' or 'skip'")
        if window_documents < 1:
            raise EngineError("window_documents must be >= 1")
        if engine._started or engine._finished:
            raise EngineError(
                "document_stream() needs a fresh engine position; call "
                "engine.reset() first"
            )
        self._engine = engine
        self.parser = parser
        self.framing = framing
        self._encoding = encoding
        self._resumable = resumable
        self._on_error = on_error
        self._callback_adapter = callback_adapter
        self._scanner = DocumentBoundaryScanner() if framing == "auto" else None
        self._byte_decoder: Optional[IncrementalByteDecoder] = None
        self._frame_buffer = bytearray()
        self._frame_expected: Optional[int] = None
        self._spool: Optional[RetentionSpool] = None
        if retain_documents is not None or retain_bytes is not None:
            self._spool = RetentionSpool(
                max_documents=retain_documents, max_bytes=retain_bytes
            )
        #: Per-document event source; None between documents.
        self._source: Optional[Union[StreamTokenizer, ExpatEventSource]] = None
        #: Raw text of the in-progress document (expat + resumable only):
        #: expat parser state cannot be serialized, so mid-document
        #: snapshots re-drive a fresh parser over this prefix.
        self._doc_spool: Optional[List[str]] = None
        self._skipping = False
        self._closed = False
        self._failed = False
        # Stream-global counters (survive document boundaries).
        self.documents = 0
        self.documents_failed = 0
        self.total_elements = 0
        self.total_matches = 0
        self.bytes_fed = 0
        # Window bookkeeping.
        self.window_documents = window_documents
        self._on_window = on_window
        self._on_document = on_document
        self.windows: Deque[WindowStats] = deque(maxlen=64)
        self._window_index = 0
        self._window_started: Optional[float] = None
        self._window_docs = 0
        self._window_elements = 0
        self._window_matches = 0
        self._window_busy = 0.0
        self._window_peak_live = 0
        self._window_latencies: List[float] = []
        self._doc_busy = 0.0
        #: Live stack entries are sampled every N start elements (plus at
        #: every chunk boundary); N=1 is exact but costs one machine scan
        #: per element.
        self._sample_interval = max(1, live_sample_interval)
        self._sample_countdown = self._sample_interval

    # ------------------------------------------------------------ properties

    @property
    def engine(self) -> Any:
        """The :class:`~repro.core.multi.MultiQueryEvaluator` this drives."""
        return self._engine

    @property
    def closed(self) -> bool:
        """True once :meth:`close` completed (or the session failed)."""
        return self._closed

    @property
    def failed(self) -> bool:
        """True when a feed raised under ``on_error='raise'``."""
        return self._failed

    @property
    def in_document(self) -> bool:
        """True while positioned inside a partially-fed document."""
        return self._source is not None

    @property
    def elements(self) -> int:
        """Total start elements across all documents (current included)."""
        return self.total_elements + self._engine._element_order

    @property
    def spool(self) -> Optional[RetentionSpool]:
        """The retention spool, when rolling retention is enabled."""
        return self._spool

    def live_entries(self) -> int:
        """Live stack entries across every machine right now."""
        return sum(
            runtime.evaluator.machine.total_live_entries()
            for runtime in self._engine._index.runtimes
        )

    def stats(self) -> Dict[str, Any]:
        """Flat JSON-able counters plus the last sealed window."""
        last = self.windows[-1].as_dict() if self.windows else None
        payload: Dict[str, Any] = {
            "documents": self.documents,
            "documents_failed": self.documents_failed,
            "elements": self.elements,
            "matches": self.total_matches,
            "bytes_fed": self.bytes_fed,
            "in_document": self.in_document,
            "subscriptions": len(self._engine),
            "live_entries": self.live_entries(),
            "window": last,
        }
        if self._spool is not None:
            payload["spool"] = self._spool.accounting()
        return payload

    # ------------------------------------------------------------ feeding

    def feed_text(self, chunk: str) -> List[Match]:
        """Feed concatenated-document text; returns completed pairs."""
        self._check_auto_framing()
        self.bytes_fed += len(chunk)
        pairs: List[Match] = []
        for segment, completed in self._scanner.feed(chunk):
            self._process_segment(segment, completed, pairs)
        return pairs

    def feed_bytes(self, chunk: bytes) -> List[Match]:
        """Feed concatenated-document bytes (UTF-8 or ``encoding``)."""
        self._check_auto_framing()
        if self._byte_decoder is None:
            self._byte_decoder = IncrementalByteDecoder(self._encoding)
        text = self._byte_decoder.decode(chunk)
        return self.feed_text(text) if text else []

    def feed_document(self, document: str) -> List[Match]:
        """Feed exactly one complete document (explicit frame mode)."""
        self._check_open()
        if self._scanner is not None and self._scanner.in_document:
            raise EngineError(
                "feed_document called mid-document; finish the auto-framed "
                "document first"
            )
        self.bytes_fed += len(document)
        pairs: List[Match] = []
        self._process_segment(document, True, pairs)
        return pairs

    def feed_framed(self, chunk: bytes) -> List[Match]:
        """Feed length-framed bytes (see :func:`frame_document`)."""
        self._check_open()
        if self.framing != "framed":
            raise EngineError(
                "feed_framed needs framing='framed'; this session autodetects "
                "boundaries (use feed_text/feed_bytes)"
            )
        buffer = self._frame_buffer
        buffer += chunk
        pairs: List[Match] = []
        while True:
            if self._frame_expected is None:
                value = 0
                shift = 0
                index = 0
                complete = False
                while index < len(buffer):
                    byte = buffer[index]
                    value |= (byte & 0x7F) << shift
                    index += 1
                    if not byte & 0x80:
                        complete = True
                        break
                    shift += 7
                    if shift > 63:
                        raise EngineError("corrupt document frame length")
                if not complete:
                    break
                del buffer[:index]
                self._frame_expected = value
            expected = self._frame_expected
            if len(buffer) < expected:
                break
            payload = bytes(buffer[:expected])
            del buffer[:expected]
            self._frame_expected = None
            self.bytes_fed += expected
            self._process_segment(payload.decode("utf-8"), True, pairs)
        return pairs

    def close(self) -> Dict[str, Any]:
        """End the stream session; returns the final :meth:`stats`.

        A partially-fed document is abandoned (machines reset, counted in
        ``documents_failed``); subscriptions stay registered and the engine
        is left between documents, ready for any other session surface.
        Idempotent.
        """
        if self._closed:
            return self.stats()
        if self._scanner is not None:
            tail = self._scanner.finish()
        else:
            tail = ""
        if (
            self._source is not None
            or tail
            or self._frame_buffer
            or self._frame_expected is not None
        ):
            self._abandon_document()
        self._closed = True
        self._seal_window(force=True)
        return self.stats()

    def __enter__(self) -> "DocumentStreamSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ subscribe

    def subscribe(
        self,
        query: Any,
        callback: Optional[Callable[..., None]] = None,
        name: Optional[str] = None,
        replay_window: bool = False,
    ) -> Any:
        """Register a standing query on the stream.

        With ``replay_window=False`` this is plain engine registration:
        between documents the subscription may share a machine; mid-document
        it gets a private machine and remainder-only coverage of the
        current document — either way it sees every following document.

        With ``replay_window=True`` (needs rolling retention) the retained
        window — sealed documents plus the partial current one — first
        replays through a private machine, then the machine is grafted into
        live dispatch at exactly the current stream position: replayed +
        live deliveries equal what a from-the-start subscriber saw over the
        same documents, with no duplicate and no gap.
        """
        subscription, _ = self.subscribe_replay(
            query, callback=callback, name=name, replay_window=replay_window
        )
        return subscription

    def subscribe_replay(
        self,
        query: Any,
        callback: Optional[Callable[..., None]] = None,
        name: Optional[str] = None,
        replay_window: bool = True,
    ) -> Tuple[Any, List[Match]]:
        """Like :meth:`subscribe`, also returning the replayed pairs."""
        self._check_open()
        adapted = callback
        if not replay_window:
            subscription = self._engine.subscribe(query, name=name)
            if callback is not None:
                if self._callback_adapter is not None:
                    adapted = self._callback_adapter(subscription.name, callback)
                subscription.callback = adapted
            return subscription, []
        if self._spool is None:
            raise EngineError(
                "replay_window=True needs rolling retention; open the stream "
                "with retain_documents= and/or retain_bytes="
            )
        return self._subscribe_with_replay(query, callback, name)

    def _subscribe_with_replay(
        self,
        query: Any,
        callback: Optional[Callable[..., None]],
        name: Optional[str],
    ) -> Tuple[Any, List[Match]]:
        from .builder import shared_compiled_cache
        from .multi import Subscription

        engine = self._engine
        name = engine._claim_name(name)
        source = query if isinstance(query, str) else query.source
        compiled = shared_compiled_cache.acquire(query)
        runtime = engine._new_runtime(compiled)
        adapted: Optional[Callable[[Solution], None]] = callback
        if callback is not None and self._callback_adapter is not None:
            adapted = self._callback_adapter(name, callback)
        subscription = Subscription(
            name=name, source=source, runtime=runtime, callback=adapted
        )
        runtime.subscribers.append(subscription)
        # Replay the retained window through the private machine.  The
        # evaluator sees *every* event of each replayed document, so its own
        # per-document pre-order counter reproduces the canonical solution
        # identities the live engine injected at parse time.
        pairs: List[Match] = []
        assert self._spool is not None
        try:
            for sealed, frames in self._spool.replay_units():
                decoder = EventFrameDecoder()
                feed = runtime.evaluator.feed
                for frame in frames:
                    for event in decoder.decode(frame):
                        solutions = feed(event)
                        if solutions:
                            runtime.deliver(solutions, pairs)
                if sealed:
                    runtime.reset()
        except Exception:
            shared_compiled_cache.release(compiled)
            raise
        # Graft into live dispatch: the machine is warm at exactly the
        # engine's current position, so the next engine.push continues the
        # document with no duplicate and no gap.
        engine._subscriptions[name] = subscription
        engine._index.add(runtime)
        return subscription, pairs

    # ------------------------------------------------------------ internals

    def _check_open(self) -> None:
        if self._failed:
            raise EngineError("stream session aborted by an earlier error")
        if self._closed:
            raise EngineError("stream session already closed")

    def _check_auto_framing(self) -> None:
        self._check_open()
        if self._scanner is None:
            raise EngineError(
                "feed_text/feed_bytes need framing='auto'; this session is "
                "length-framed (use feed_framed or feed_document)"
            )

    def _begin_document(self) -> None:
        if self.parser == "expat":
            self._source = ExpatEventSource(encoding=self._encoding)
            self._doc_spool = [] if self._resumable else None
        else:
            self._source = StreamTokenizer(encoding=self._encoding)
            self._doc_spool = None
        if self._spool is not None:
            self._spool.begin_document(self.documents + self.documents_failed)
        if self._window_started is None:
            self._window_started = time.monotonic()
        self._doc_busy = 0.0
        if self._on_document is not None:
            self._on_document(self.documents + self.documents_failed)

    def _process_segment(
        self, text: str, completed: bool, pairs: List[Match]
    ) -> None:
        if self._skipping:
            if completed:
                self._skipping = False
            return
        started = time.perf_counter()
        try:
            if self._source is None:
                self._begin_document()
            source = self._source
            assert source is not None
            if self._doc_spool is not None:
                self._doc_spool.append(text)
            events = source.feed(text)
            self._push_events(events, pairs)
            if completed:
                trailing = source.close()
                self._push_events(trailing, pairs)
                self._doc_busy += time.perf_counter() - started
                self._complete_document()
                return
        except Exception:
            self._doc_busy += time.perf_counter() - started
            self._handle_parse_error(completed)
            return
        self._doc_busy += time.perf_counter() - started

    def _push_events(self, events: List[Event], pairs: List[Match]) -> None:
        if not events:
            return
        run = self._engine._kernel.run
        before = len(pairs)
        elements = 0
        countdown = self._sample_countdown
        peak = self._window_peak_live
        done = 0
        for at, event in enumerate(events):
            if event.__class__ is StartElement:
                elements += 1
                countdown -= 1
                if countdown <= 0:
                    # Sample live entries just before this start tag runs.
                    countdown = self._sample_interval
                    run(events[done:at], pairs)
                    done = at
                    live = self.live_entries()
                    if live > peak:
                        peak = live
        run(events[done:] if done else events, pairs)
        self._sample_countdown = countdown
        self._window_peak_live = peak
        matched = len(pairs) - before
        self.total_matches += matched
        self._window_matches += matched
        if self._spool is not None:
            self._spool.add_events(events, elements)
        # Sample live-entry pressure at chunk granularity: at document
        # boundaries the stacks are empty by definition, so only mid-stream
        # samples reveal the true high-water mark.
        live = self.live_entries()
        if live > self._window_peak_live:
            self._window_peak_live = live

    def _complete_document(self) -> None:
        engine = self._engine
        elements = engine._element_order
        self.total_elements += elements
        self._window_elements += elements
        self.documents += 1
        self._window_docs += 1
        self._window_busy += self._doc_busy
        self._window_latencies.append(self._doc_busy * 1000.0)
        self._source = None
        self._doc_spool = None
        if self._spool is not None:
            self._spool.seal_document()
        # Unlike engine.reset(), keeps every subscription's delivered count
        # (the stream-global delivery history is the point of the session).
        self._engine._kernel.reset()
        if self._window_docs >= self.window_documents:
            self._seal_window()

    def _abandon_document(self) -> None:
        self.documents_failed += 1
        self._source = None
        self._doc_spool = None
        if self._spool is not None:
            self._spool.abort_document()
        self._frame_buffer.clear()
        self._frame_expected = None
        self._engine._kernel.reset()

    def _handle_parse_error(self, completed: bool) -> None:
        self._abandon_document()
        if self._on_error == "raise":
            self._failed = True
            self._closed = True
            raise
        # on_error == "skip": resume at the next document boundary.  If the
        # failing segment already completed its document, the stream is
        # aligned again; otherwise discard until the scanner reports one.
        if not completed:
            self._skipping = True

    def _seal_window(self, force: bool = False) -> None:
        if self._window_docs == 0 and not force:
            return
        started = self._window_started
        if started is None:
            return
        window = WindowStats(
            index=self._window_index,
            documents=self._window_docs,
            elements=self._window_elements,
            matches=self._window_matches,
            duration_s=time.monotonic() - started,
            busy_s=self._window_busy,
            peak_live_entries=self._window_peak_live,
            latencies_ms=self._window_latencies,
        )
        self.windows.append(window)
        self._window_index += 1
        self._window_started = None
        self._window_docs = 0
        self._window_elements = 0
        self._window_matches = 0
        self._window_busy = 0.0
        self._window_peak_live = 0
        self._window_latencies = []
        if self._on_window is not None:
            self._on_window(window)

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> Dict[str, Any]:
        """Versioned JSON-able snapshot: engine + stream + spool metadata.

        Works between documents and mid-document (for ``parser="expat"``
        mid-document snapshots need ``resumable=True``, which spools the
        current document's raw prefix exactly like
        :class:`~repro.core.session.StreamSession` does).  Restore with
        ``MultiQueryEvaluator().restore_session(snap)``, which returns the
        rebuilt :class:`DocumentStreamSession`; subscription callbacks do
        not travel.
        """
        if self._failed:
            raise CheckpointError("cannot snapshot an aborted stream session")
        if self._closed:
            raise CheckpointError("cannot snapshot a closed stream session")
        state: Dict[str, Any] = {
            "parser": DOCSTREAM_PARSER,
            "inner_parser": self.parser,
            "framing": self.framing,
            "encoding": self._encoding,
            "on_error": self._on_error,
            "resumable": self._resumable,
            "window_documents": self.window_documents,
            "counters": {
                "documents": self.documents,
                "documents_failed": self.documents_failed,
                "total_elements": self.total_elements,
                "total_matches": self.total_matches,
                "bytes_fed": self.bytes_fed,
                "window_index": self._window_index,
            },
        }
        if self._scanner is not None:
            state["scanner"] = self._scanner.snapshot_state()
        if self._frame_buffer or self._frame_expected is not None:
            state["frame_buffer"] = base64.b64encode(
                bytes(self._frame_buffer)
            ).decode("ascii")
            state["frame_expected"] = self._frame_expected
        if self._byte_decoder is not None:
            state["byte_decoder"] = self._byte_decoder.snapshot_state()
        if self._spool is not None:
            state["spool"] = self._spool.snapshot_state()
        if self._source is not None:
            if isinstance(self._source, StreamTokenizer):
                state["source"] = {"tokenizer": self._source.snapshot_state()}
            else:
                if self._doc_spool is None:
                    raise CheckpointError(
                        "cannot snapshot mid-document: this expat stream "
                        "session was opened with resumable=False"
                    )
                state["source"] = {"expat_spool": encode_spool(list(self._doc_spool))}
        else:
            state["source"] = None
        return make_snapshot(engine_state(self._engine), state)

    @classmethod
    def _from_snapshot(cls, engine: Any, state: Dict[str, Any]) -> "DocumentStreamSession":
        """Rebuild a stream session (engine already restored)."""
        from .checkpoint import decode_spool

        inner = state.get("inner_parser", "native")
        if inner not in PARSER_BACKENDS:
            raise CheckpointError(f"unknown parser backend {inner!r} in snapshot")
        session = cls.__new__(cls)
        session._engine = engine
        session.parser = inner
        session.framing = state.get("framing", "auto")
        session._encoding = state.get("encoding")
        session._resumable = bool(state.get("resumable", True))
        session._on_error = state.get("on_error", "raise")
        session._callback_adapter = None
        session._scanner = None
        if "scanner" in state:
            session._scanner = DocumentBoundaryScanner.restore_state(
                state["scanner"]
            )
        elif session.framing == "auto":
            session._scanner = DocumentBoundaryScanner()
        session._byte_decoder = None
        decoder_state = state.get("byte_decoder")
        if decoder_state is not None:
            session._byte_decoder = IncrementalByteDecoder.restore_state(
                decoder_state
            )
        session._frame_buffer = bytearray(
            base64.b64decode(state.get("frame_buffer", ""))
        )
        session._frame_expected = state.get("frame_expected")
        spool_state = state.get("spool")
        session._spool = (
            RetentionSpool.restore_state(spool_state)
            if spool_state is not None
            else None
        )
        session._skipping = False
        session._closed = False
        session._failed = False
        counters = state.get("counters", {})
        session.documents = int(counters.get("documents", 0))
        session.documents_failed = int(counters.get("documents_failed", 0))
        session.total_elements = int(counters.get("total_elements", 0))
        session.total_matches = int(counters.get("total_matches", 0))
        session.bytes_fed = int(counters.get("bytes_fed", 0))
        session.window_documents = int(state.get("window_documents", 100))
        session._on_window = None
        session._on_document = None
        session.windows = deque(maxlen=64)
        session._window_index = int(counters.get("window_index", 0))
        session._window_started = None
        session._window_docs = 0
        session._window_elements = 0
        session._window_matches = 0
        session._window_busy = 0.0
        session._window_peak_live = 0
        session._window_latencies = []
        session._doc_busy = 0.0
        session._sample_interval = 64
        session._sample_countdown = session._sample_interval
        source_state = state.get("source")
        session._source = None
        session._doc_spool = None
        if source_state is not None:
            session._window_started = time.monotonic()
            if "tokenizer" in source_state:
                session._source = StreamTokenizer.restore_state(
                    source_state["tokenizer"]
                )
            else:
                prefix = decode_spool(source_state["expat_spool"])
                source = ExpatEventSource(encoding=session._encoding)
                doc_spool: List[str] = []
                for chunk in prefix:
                    text = chunk if isinstance(chunk, str) else chunk.decode("utf-8")
                    doc_spool.append(text)
                    # Re-drive the prefix to rebuild parser state; the
                    # events were already pushed before the snapshot.
                    source.feed(text)
                session._source = source
                session._doc_spool = doc_spool if session._resumable else None
        return session
