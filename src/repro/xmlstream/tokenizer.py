"""A from-scratch, incremental (pull-based) XML tokenizer.

ViteX only needs a single sequential scan of the document, so the tokenizer is
written as an incremental state machine: callers feed text chunks of arbitrary
size with :meth:`StreamTokenizer.feed` and get the completed events back — or,
with a sink, have each construct handed to a consumer the moment it is read.
Nothing about the document is ever materialised beyond the
current open-element stack and the unfinished tail of the last chunk, which is
what gives the engine its constant-memory behaviour on unbounded streams.

The tokenizer supports the XML subset that streaming query processing papers
(including ViteX) use:

* start tags with attributes (single- or double-quoted),
* end tags and empty-element tags (``<a/>``),
* character data with the five predefined entities and decimal/hexadecimal
  character references,
* comments, processing instructions, CDATA sections, an optional XML
  declaration and an optional (skipped) DOCTYPE declaration.

Namespaces are treated syntactically: qualified names are reported verbatim
(``ns:tag``), which matches what the paper's query language operates on.

It deliberately does *not* implement DTD entity expansion or validation.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import XMLSyntaxError
from .reader import IncrementalByteDecoder
from .events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA


# Bulk-scanning fast path: one precompiled regex match per markup construct
# instead of a character-at-a-time state machine — and, for a tag spelling
# already validated, one dict probe instead of the regex (tag memo, below).
# The name pattern mirrors _is_name_start/_is_name_char ([^\W\d] is the
# unicode-aware "letter or underscore" class); any construct the fast
# patterns do not recognise falls back to the character-level slow path,
# which reports precise errors and handles chunk-boundary splits.
_NAME_PATTERN = r"(?:[^\W\d]|:)[\w:.\-]*"
START_TAG_RE = re.compile(
    r"<(%(name)s)"
    r"((?:\s+%(name)s\s*=\s*(?:\"[^\"]*\"|'[^']*'))*)"
    r"\s*(/?)>" % {"name": _NAME_PATTERN}
)
END_TAG_RE = re.compile(r"</\s*(%s)\s*>" % _NAME_PATTERN)
_ATTRIBUTE_RE = re.compile(r"(%s)\s*=\s*(?:\"([^\"]*)\"|'([^']*)')" % _NAME_PATTERN)

# Tag memo policy, shared by StreamTokenizer._scan and the fused scan in
# core/fastpath.py.  Documents repeat a few dozen tag spellings, so a start
# tag is probed by its raw text ``buffer[lt : first ">" + 1]`` (searched at
# most TAG_MEMO_KEY_CAP characters ahead, which also bounds the key) and a
# hit replaces the regex match, its group extraction and the attribute parse.
# Soundness: only memoise_start_tag inserts, and only a text START_TAG_RE
# and parse_attribute_string accepted in full, whose meaning depends on
# nothing outside it.  A ">" inside a quoted value cuts the probe short of
# the tag; that prefix has unbalanced quotes, was never a whole valid tag,
# so was never a key.  Duplicate attributes and bad entities raise before
# the insert and therefore raise on every occurrence.  End tags need no
# table: the literal ``</name>`` of the open element is compared in place.
# A full table starts over (no per-entry bookkeeping), so unique tags —
# ``<entry id="...">`` — can neither grow it nor shut out a later vocabulary.
# Not configurable.
TAG_MEMO_KEY_CAP = 256
_TAG_MEMO_ENTRY_CAP = 4096
#: Process-wide table of the incremental tokenizer (sessions and document
#: streams create one tokenizer per document): raw start tag ->
#: ``(name, attributes, empty, newlines inside the tag)``.
_TAG_MEMO: Dict[str, tuple] = {}


def memoise_start_tag(
    memo: Dict[str, tuple], buffer: str, lt: int, gt: int, end: int, entry: tuple
) -> None:
    """Remember a fully validated start tag ``buffer[lt:end]`` under the cap.

    ``gt`` is the probe's first ``>`` (``-1`` when none was in reach): a tag
    whose first ``>`` sits inside a quoted value ends later than ``gt + 1``
    and is never stored, so a probe cut there cannot hit.
    """
    if end == gt + 1:
        if len(memo) >= _TAG_MEMO_ENTRY_CAP:
            memo.clear()
        memo[buffer[lt:end]] = entry


#: Literal whitespace an attribute value normalises to a space.
_VALUE_WHITESPACE = str.maketrans("\t\n\r", "   ")


def parse_attribute_string(
    raw: str, tag_name: str, line: Optional[int]
) -> Tuple[Tuple[str, str], ...]:
    """Build the attribute tuple from a regex-validated attribute string.

    ``raw`` must already match the attribute group of ``START_TAG_RE``.
    Shared by the incremental tokenizer and the fused fast path so the two
    can never drift on entity decoding or duplicate detection.  Values are
    normalised as XML 1.0 §3.3.3 says, like expat: a literal line break
    (``\r\n``, ``\r`` or ``\n``) or tab becomes a space *before* entity
    decoding, so ``&#10;`` and ``&#9;`` keep their characters.  Raises
    :class:`XMLSyntaxError` for duplicates and malformed entity references.
    """
    attributes: List[Tuple[str, str]] = []
    seen: set = set()
    for match in _ATTRIBUTE_RE.finditer(raw):
        name = match.group(1)
        value = match.group(2)
        if value is None:
            value = match.group(3)
        if "\n" in value or "\t" in value or "\r" in value:
            value = value.replace("\r\n", " ").translate(_VALUE_WHITESPACE)
        if "&" in value:
            value = decode_entities(value, line=line)
        if name in seen:
            raise XMLSyntaxError(
                f"duplicate attribute '{name}' in tag '{tag_name}'", line=line
            )
        seen.add(name)
        attributes.append((name, value))
    return tuple(attributes)


def normalise_line_ends(text: str) -> str:
    """``\r\n`` and a lone ``\r`` become ``\n`` (XML 1.0 §2.11)."""
    if "\r" in text:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def decode_entities(text: str, line: Optional[int] = None) -> str:
    """Resolve predefined entities and character references in ``text``.

    Raises :class:`XMLSyntaxError` for malformed or unknown references.
    """
    if "&" not in text:
        return text
    out: List[str] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char != "&":
            out.append(char)
            index += 1
            continue
        end = text.find(";", index + 1)
        if end == -1:
            raise XMLSyntaxError("unterminated entity reference", line=line)
        name = text[index + 1:end]
        if not name:
            raise XMLSyntaxError("empty entity reference", line=line)
        if name.startswith("#x") or name.startswith("#X"):
            try:
                out.append(chr(int(name[2:], 16)))
            except ValueError:
                raise XMLSyntaxError(
                    f"invalid hexadecimal character reference '&{name};'", line=line
                ) from None
        elif name.startswith("#"):
            try:
                out.append(chr(int(name[1:], 10)))
            except ValueError:
                raise XMLSyntaxError(
                    f"invalid character reference '&{name};'", line=line
                ) from None
        else:
            try:
                out.append(_PREDEFINED_ENTITIES[name])
            except KeyError:
                raise XMLSyntaxError(
                    f"unknown entity reference '&{name};'", line=line
                ) from None
        index = end + 1
    return "".join(out)


#: Drops what it is given: where the scan puts a sink's return values.
_DISCARD = deque(maxlen=0).append


class StreamTokenizer:
    """Incremental XML tokenizer producing :mod:`repro.xmlstream.events` events.

    Typical use::

        tokenizer = StreamTokenizer()
        for chunk in chunks:
            for event in tokenizer.feed(chunk):
                handle(event)
        for event in tokenizer.close():
            handle(event)

    The tokenizer keeps only the currently open element names (for
    well-formedness checking and depth tracking) plus any unparsed tail of the
    most recent chunk, so its memory use is bounded by the document depth, not
    the document size.

    Every construct the scan completes goes to a *sink*: four callables,
    ``start_record(position, name, level, attributes, line)``,
    ``end_record(position, name, level, line)``,
    ``chars_record(position, text, level)`` and ``other(event)`` for a
    whole rare event (document boundaries, comments, processing
    instructions).  The default sink is the event list: the event classes
    build each record and the list :meth:`feed` and :meth:`close` return
    keeps it.  ``sink`` hands the records to another consumer as they are
    scanned instead — the engine's :class:`~repro.core.kernel.Kernel`, so a
    match is delivered the moment its deciding tag is read, with no event
    object built — and :meth:`feed` and :meth:`close` then return empty
    lists.  Both cost one call per record: the scan keeps what a record
    callable returns, and a sink's return values are dropped.
    """

    def __init__(
        self, coalesce_text: bool = True, encoding: Optional[str] = None, *, sink=None
    ) -> None:
        self._encoding = encoding
        self._byte_decoder = None  # created lazily by feed_bytes
        self._buffer = ""
        self._events: Optional[List[Event]] = None
        if sink is None:
            events = self._events = []
            self._start_record = StartElement
            self._end_record = EndElement
            self._chars_record = Characters
            self._other = self._keep = events.append
        else:
            self._start_record = sink.start_record
            self._end_record = sink.end_record
            self._chars_record = sink.chars_record
            self._other = sink.other
            self._keep = _DISCARD
        self._open_elements: List[str] = []
        self._position = 0
        self._line = 1
        self._started = False
        self._finished = False
        self._root_seen = False
        self._root_closed = False
        self._coalesce_text = coalesce_text
        self._pending_text: List[str] = []
        self._pending_text_level = 0

    # ------------------------------------------------------------------ API

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._open_elements)

    @property
    def finished(self) -> bool:
        """True once :meth:`close` has completed successfully."""
        return self._finished

    def feed(self, chunk: str) -> List[Event]:
        """Feed a text chunk and return the events completed by it."""
        if self._finished:
            raise XMLSyntaxError("tokenizer already closed")
        if not self._started:
            self._started = True
            self._emit(StartDocument(position=self._next_position()))
        buffer = self._buffer + chunk
        # A trailing ``\r`` waits at the end of the carried tail until the
        # next chunk shows whether a ``\n`` follows it (one line end).
        held = buffer[-1:] == "\r"
        self._buffer = normalise_line_ends(buffer[:-1] if held else buffer)
        self._scan()
        if held:
            self._buffer += "\r"
        return self._drain()

    def feed_bytes(self, chunk: bytes) -> List[Event]:
        """Feed a byte chunk split at an arbitrary offset.

        Bytes are decoded incrementally (:class:`IncrementalByteDecoder`):
        the encoding is detected once from the BOM / XML declaration, and a
        multibyte sequence straddling the chunk boundary is carried over to
        the next call instead of failing.  A document may be fed one byte at
        a time and produces the event stream of the one-shot parse.
        """
        if self._byte_decoder is None:
            if self._finished:
                raise XMLSyntaxError("tokenizer already closed")
            self._byte_decoder = IncrementalByteDecoder(self._encoding)
        text = self._byte_decoder.decode(chunk)
        # Feed even when no text is ready yet: the first call must emit
        # StartDocument exactly like the text push API does.
        return self.feed(text)

    def close(self) -> List[Event]:
        """Signal end of input and return the final events.

        Raises :class:`XMLSyntaxError` if the document is incomplete.
        """
        if self._finished:
            return []
        if self._byte_decoder is not None:
            # Flush the decoder: raises EncodingError when the stream ends in
            # the middle of a multibyte sequence.  The flushed text joins the
            # buffer and is consumed by the final _scan below.
            self._buffer += self._byte_decoder.decode(b"", final=True)
        self._buffer = normalise_line_ends(self._buffer)  # a held trailing \r
        if not self._started:
            self._started = True
            self._emit(StartDocument(position=self._next_position()))
        self._scan(final=True)
        if self._buffer.strip():
            raise XMLSyntaxError(
                "unexpected trailing content at end of document", line=self._line
            )
        if self._open_elements:
            raise XMLSyntaxError(
                f"document ended with unclosed element '{self._open_elements[-1]}'",
                line=self._line,
            )
        if not self._root_seen:
            raise XMLSyntaxError("document contains no root element", line=self._line)
        self._flush_text()
        self._emit(EndDocument(position=self._next_position()))
        self._finished = True
        return self._drain()

    def tokenize(self, text: str) -> Iterator[Event]:
        """Tokenize a complete document given as a single string."""
        yield from self.feed(text)
        yield from self.close()

    # ------------------------------------------------------------ snapshot

    def snapshot_state(self) -> dict:
        """JSON-able state of the tokenizer mid-stream (checkpoint format).

        Captures everything a later :meth:`feed` reads: the unparsed buffer
        tail, the open-element stack, position/line counters, the pending
        coalesced text and the incremental byte decoder (with its undecoded
        byte tail) when :meth:`feed_bytes` has been used.  Must not be
        called with undrained events (the session API always drains).
        """
        if self._events:
            raise ValueError("cannot snapshot a tokenizer with undrained events")
        state: dict = {
            "buffer": self._buffer,
            "open_elements": list(self._open_elements),
            "position": self._position,
            "line": self._line,
            "started": self._started,
            "finished": self._finished,
            "root_seen": self._root_seen,
            "root_closed": self._root_closed,
            "coalesce_text": self._coalesce_text,
            "pending_text": "".join(self._pending_text),
            "has_pending": bool(self._pending_text),
            "pending_level": self._pending_text_level,
            "encoding": self._encoding,
        }
        if self._byte_decoder is not None:
            state["decoder"] = self._byte_decoder.snapshot_state()
        return state

    @classmethod
    def restore_state(cls, state: dict, *, sink=None) -> "StreamTokenizer":
        """Rebuild a tokenizer from :meth:`snapshot_state` output."""
        tokenizer = cls(
            coalesce_text=state.get("coalesce_text", True),
            encoding=state.get("encoding"),
            sink=sink,
        )
        tokenizer._buffer = state["buffer"]
        tokenizer._open_elements = list(state["open_elements"])
        tokenizer._position = state["position"]
        tokenizer._line = state["line"]
        tokenizer._started = state["started"]
        tokenizer._finished = state["finished"]
        tokenizer._root_seen = state["root_seen"]
        tokenizer._root_closed = state["root_closed"]
        if state.get("has_pending"):
            tokenizer._pending_text = [state["pending_text"]]
        tokenizer._pending_text_level = state.get("pending_level", 0)
        decoder = state.get("decoder")
        if decoder is not None:
            tokenizer._byte_decoder = IncrementalByteDecoder.restore_state(decoder)
        return tokenizer

    # ------------------------------------------------------------ internals

    def _next_position(self) -> int:
        position = self._position
        self._position += 1
        return position

    def _emit(self, event: Event) -> None:
        self._other(event)

    def _drain(self) -> List[Event]:
        # The list stays: the sink's bound ``append`` keeps filling it.
        events = self._events
        if not events:
            return []
        drained = events[:]
        events.clear()
        return drained

    def _count_lines(self, text: str) -> None:
        self._line += text.count("\n")

    def _queue_text(self, raw: str) -> None:
        if not raw:
            return
        text = decode_entities(raw, line=self._line)
        if not self._open_elements:
            # Text outside the root element must be whitespace only.
            if text.strip():
                raise XMLSyntaxError(
                    "character data outside of the root element", line=self._line
                )
            return
        if self._coalesce_text:
            self._pending_text.append(text)
            self._pending_text_level = len(self._open_elements)
        else:
            self._text_record(text, len(self._open_elements))

    def _queue_raw_text(self, text: str) -> None:
        """Queue text that must not undergo entity expansion (CDATA)."""
        if not text:
            return
        if not self._open_elements:
            if text.strip():
                raise XMLSyntaxError(
                    "CDATA section outside of the root element", line=self._line
                )
            return
        if self._coalesce_text:
            self._pending_text.append(text)
            self._pending_text_level = len(self._open_elements)
        else:
            self._text_record(text, len(self._open_elements))

    def _text_record(self, text: str, level: int) -> None:
        self._keep(self._chars_record(self._next_position(), text, level))

    def _flush_text(self) -> None:
        # NB: clears the pending list in place; _scan holds an alias to it.
        if not self._pending_text:
            return
        text = "".join(self._pending_text)
        self._pending_text.clear()
        if text:
            self._text_record(text, self._pending_text_level)

    def _scan(self, final: bool = False) -> None:
        buffer = self._buffer
        index = 0
        length = len(buffer)
        # Hot-loop locals: attribute lookups cost real time at ~1M iterations.
        # ``position`` and ``line`` shadow the instance counters and are
        # written back before any call that reads them (slow path, text
        # queueing helpers) and on loop exit.
        start_record = self._start_record
        end_record = self._end_record
        chars_record = self._chars_record
        keep = self._keep
        open_elements = self._open_elements
        pending_text = self._pending_text
        coalesce = self._coalesce_text
        position = self._position
        line = self._line
        track_lines = "\n" in buffer
        find = buffer.find
        count = buffer.count
        startswith = buffer.startswith
        memo_get = _TAG_MEMO.get
        start_match = START_TAG_RE.match
        end_match = END_TAG_RE.match
        while index < length:
            lt = find("<", index)
            if lt == -1:
                # Everything left is character data; keep a tail in case an
                # entity reference is split across chunks.
                remainder = buffer[index:]
                if final or "&" not in remainder:
                    self._position = position
                    self._line = line
                    self._queue_text(remainder)
                    position = self._position
                    line = self._line + remainder.count("\n")
                    index = length
                break
            if lt > index:
                text = buffer[index:lt]
                if open_elements:
                    if "&" in text:
                        text = decode_entities(text, line=line)
                    if coalesce:
                        pending_text.append(text)
                        self._pending_text_level = len(open_elements)
                    else:
                        keep(chars_record(position, text, len(open_elements)))
                        position += 1
                elif text.strip():
                    raise XMLSyntaxError(
                        "character data outside of the root element", line=line
                    )
                if track_lines:
                    line += count("\n", index, lt)
            second = buffer[lt + 1] if lt + 1 < length else ""
            if second == "/":
                # The literal spelling of the expected end tag *is* the
                # well-formedness check; whitespace spellings and every
                # mismatch take the regex / slow path below.
                end = -1
                if open_elements:
                    name = open_elements[-1]
                    if startswith(f"</{name}>", lt):
                        end = lt + len(name) + 3
                if end == -1:
                    match = end_match(buffer, lt)
                    if match is not None:
                        name = match.group(1)
                        end = match.end()
                        if track_lines:
                            line += count("\n", lt, end)
                        if not open_elements or open_elements[-1] != name:
                            # Re-raise through the slow path for the exact message.
                            self._line = line
                            self._handle_end_tag(name)
                if end != -1:
                    if pending_text:
                        text = (
                            pending_text[0]
                            if len(pending_text) == 1
                            else "".join(pending_text)
                        )
                        pending_text.clear()
                        if text:
                            keep(chars_record(position, text, self._pending_text_level))
                            position += 1
                    level = len(open_elements)
                    open_elements.pop()
                    if not open_elements:
                        self._root_closed = True
                    keep(end_record(position, name, level, line))
                    position += 1
                    index = end
                    continue
            elif second not in ("!", "?", ""):
                gt = find(">", lt, lt + TAG_MEMO_KEY_CAP)
                hit = memo_get(buffer[lt:gt + 1])
                if hit is not None:
                    name, attributes, empty, newlines = hit
                    end = gt + 1
                    line += newlines
                    if self._root_closed:
                        raise self._second_root(name, line)
                else:
                    match = start_match(buffer, lt)
                    if match is not None:
                        name, raw_attributes, empty = match.group(1, 2, 3)
                        end = match.end()
                        newlines = count("\n", lt, end) if track_lines else 0
                        line += newlines
                        if self._root_closed:
                            raise self._second_root(name, line)
                        # Duplicate attributes / bad entities raise here, so
                        # such a tag is never memoised and raises every time.
                        attributes = (
                            parse_attribute_string(raw_attributes, name, line)
                            if raw_attributes else ()
                        )
                        hit = (name, attributes, empty, newlines)
                        memoise_start_tag(_TAG_MEMO, buffer, lt, gt, end, hit)
                if hit is not None:
                    if pending_text:
                        text = (
                            pending_text[0]
                            if len(pending_text) == 1
                            else "".join(pending_text)
                        )
                        pending_text.clear()
                        if text:
                            keep(chars_record(position, text, self._pending_text_level))
                            position += 1
                    open_elements.append(name)
                    self._root_seen = True
                    level = len(open_elements)
                    # NodeRef.line is the line the tag begins on (as expat
                    # reports it); errors above keep the line it ends on.
                    keep(start_record(position, name, level, attributes, line - newlines))
                    position += 1
                    if empty:
                        open_elements.pop()
                        if not open_elements:
                            self._root_closed = True
                        keep(end_record(position, name, level, line))
                        position += 1
                    index = end
                    continue
            self._position = position
            self._line = line
            consumed = self._scan_markup(buffer, lt, final)
            position = self._position
            line = self._line
            if consumed is None:
                index = lt
                break
            index = consumed
        self._position = position
        self._line = line
        self._buffer = buffer[index:]

    def _scan_markup(self, buffer: str, start: int, final: bool) -> Optional[int]:
        """Parse one markup construct starting at ``buffer[start] == '<'``.

        Returns the index just past the construct, or ``None`` if the
        construct is incomplete (more input needed).
        """
        length = len(buffer)
        if start + 1 >= length:
            if final:
                raise XMLSyntaxError("unexpected end of input after '<'", line=self._line)
            return None
        second = buffer[start + 1]

        if second == "!":
            if buffer.startswith("<!--", start):
                end = buffer.find("-->", start + 4)
                if end == -1:
                    if final:
                        raise XMLSyntaxError("unterminated comment", line=self._line)
                    return None
                self._flush_text()
                text = buffer[start + 4:end]
                self._count_lines(buffer[start:end + 3])
                self._emit(
                    Comment(
                        position=self._next_position(),
                        text=text,
                        level=len(self._open_elements),
                    )
                )
                return end + 3
            if buffer.startswith("<![CDATA[", start):
                end = buffer.find("]]>", start + 9)
                if end == -1:
                    if final:
                        raise XMLSyntaxError("unterminated CDATA section", line=self._line)
                    return None
                text = buffer[start + 9:end]
                self._count_lines(buffer[start:end + 3])
                self._queue_raw_text(text)
                return end + 3
            if buffer.startswith("<!DOCTYPE", start):
                end = self.find_doctype_end(buffer, start)
                if end is None:
                    if final:
                        raise XMLSyntaxError("unterminated DOCTYPE declaration", line=self._line)
                    return None
                self._count_lines(buffer[start:end])
                return end
            # Could be a partially received "<!--" or "<![CDATA[".
            if not final and length - start < 9:
                return None
            raise XMLSyntaxError(
                f"unsupported markup declaration near '{buffer[start:start + 9]}'",
                line=self._line,
            )

        if second == "?":
            end = buffer.find("?>", start + 2)
            if end == -1:
                if final:
                    raise XMLSyntaxError(
                        "unterminated processing instruction", line=self._line
                    )
                return None
            content = buffer[start + 2:end]
            self._count_lines(buffer[start:end + 2])
            target, _, data = content.partition(" ")
            target = target.strip()
            if target.lower() != "xml":
                self._flush_text()
                self._emit(
                    ProcessingInstruction(
                        position=self._next_position(),
                        target=target,
                        data=data.strip(),
                        level=len(self._open_elements),
                    )
                )
            return end + 2

        if second == "/":
            end = buffer.find(">", start + 2)
            if end == -1:
                if final:
                    raise XMLSyntaxError("unterminated end tag", line=self._line)
                return None
            name = buffer[start + 2:end].strip()
            self._count_lines(buffer[start:end + 1])
            self._handle_end_tag(name)
            return end + 1

        # Ordinary start tag or empty-element tag.
        end = self._find_tag_end(buffer, start)
        if end is None:
            if final:
                raise XMLSyntaxError("unterminated start tag", line=self._line)
            return None
        raw_tag = buffer[start + 1:end]
        start_line = self._line
        self._count_lines(buffer[start:end + 1])
        empty = raw_tag.endswith("/")
        if empty:
            raw_tag = raw_tag[:-1]
        name, attributes = self._parse_tag_content(raw_tag)
        self._handle_start_tag(name, attributes, start_line)
        if empty:
            self._handle_end_tag(name)
        return end + 1

    @staticmethod
    def find_doctype_end(buffer: str, start: int) -> Optional[int]:
        """Find the index just past a DOCTYPE declaration (handles internal subsets)."""
        depth = 0
        index = start
        length = len(buffer)
        while index < length:
            char = buffer[index]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == ">" and depth <= 0:
                return index + 1
            index += 1
        return None

    @staticmethod
    def _find_tag_end(buffer: str, start: int) -> Optional[int]:
        """Find the ``>`` closing the tag at ``start``, ignoring ``>`` in quotes."""
        index = start + 1
        length = len(buffer)
        quote: Optional[str] = None
        while index < length:
            char = buffer[index]
            if quote is not None:
                if char == quote:
                    quote = None
            elif char in "\"'":
                quote = char
            elif char == ">":
                return index
            index += 1
        return None

    def _parse_tag_content(self, raw: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        raw = raw.strip()
        if not raw:
            raise XMLSyntaxError("empty tag", line=self._line)
        index = 0
        length = len(raw)
        if not _is_name_start(raw[0]):
            raise XMLSyntaxError(
                f"invalid element name starting with '{raw[0]}'", line=self._line
            )
        while index < length and _is_name_char(raw[index]):
            index += 1
        name = raw[:index]
        attributes: List[Tuple[str, str]] = []
        seen: set = set()
        while index < length:
            while index < length and raw[index].isspace():
                index += 1
            if index >= length:
                break
            attr_start = index
            if not _is_name_start(raw[index]):
                raise XMLSyntaxError(
                    f"invalid attribute name in tag '{name}'", line=self._line
                )
            while index < length and _is_name_char(raw[index]):
                index += 1
            attr_name = raw[attr_start:index]
            while index < length and raw[index].isspace():
                index += 1
            if index >= length or raw[index] != "=":
                raise XMLSyntaxError(
                    f"attribute '{attr_name}' has no value in tag '{name}'",
                    line=self._line,
                )
            index += 1
            while index < length and raw[index].isspace():
                index += 1
            if index >= length or raw[index] not in "\"'":
                raise XMLSyntaxError(
                    f"attribute '{attr_name}' value must be quoted", line=self._line
                )
            quote = raw[index]
            index += 1
            value_end = raw.find(quote, index)
            if value_end == -1:
                raise XMLSyntaxError(
                    f"unterminated value for attribute '{attr_name}'", line=self._line
                )
            value = decode_entities(raw[index:value_end], line=self._line)
            index = value_end + 1
            if attr_name in seen:
                raise XMLSyntaxError(
                    f"duplicate attribute '{attr_name}' in tag '{name}'",
                    line=self._line,
                )
            seen.add(attr_name)
            attributes.append((attr_name, value))
        return name, tuple(attributes)

    @staticmethod
    def _second_root(name: str, line: int) -> XMLSyntaxError:
        return XMLSyntaxError(
            f"element '{name}' appears after the root element was closed", line=line
        )

    def _handle_start_tag(
        self, name: str, attributes: Tuple[Tuple[str, str], ...], line: int
    ) -> None:
        """Emit a start tag that begins on ``line`` (``self._line`` is past it)."""
        if self._root_closed:
            raise self._second_root(name, self._line)
        self._flush_text()
        self._open_elements.append(name)
        self._root_seen = True
        self._keep(self._start_record(
            self._next_position(), name, len(self._open_elements), attributes, line
        ))

    def _handle_end_tag(self, name: str) -> None:
        if not self._open_elements:
            raise XMLSyntaxError(
                f"end tag '</{name}>' without matching start tag", line=self._line
            )
        expected = self._open_elements[-1]
        if name != expected:
            raise XMLSyntaxError(
                f"end tag '</{name}>' does not match open element '{expected}'",
                line=self._line,
            )
        self._flush_text()
        level = len(self._open_elements)
        self._open_elements.pop()
        if not self._open_elements:
            self._root_closed = True
        self._keep(self._end_record(self._next_position(), name, level, self._line))


def tokenize(text: str, coalesce_text: bool = True) -> Iterator[Event]:
    """Tokenize a complete XML document held in a string."""
    tokenizer = StreamTokenizer(coalesce_text=coalesce_text)
    yield from tokenizer.tokenize(text)


def tokenize_chunks(chunks: Iterable[str], coalesce_text: bool = True) -> Iterator[Event]:
    """Tokenize a document supplied as an iterable of text chunks."""
    tokenizer = StreamTokenizer(coalesce_text=coalesce_text)
    for chunk in chunks:
        yield from tokenizer.feed(chunk)
    yield from tokenizer.close()
