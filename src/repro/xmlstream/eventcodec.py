"""Length-prefixed binary codec for the streaming event model.

The sharded service's protocol v2 ships *parsed events* to worker
processes instead of raw XML, so the document is tokenized exactly once
in the front process.  This module is the wire format: a stateful
encoder/decoder pair that turns a run of :class:`~repro.xmlstream.events`
NamedTuples into a compact byte frame and back, byte-exactly.

Format (all integers are unsigned LEB128 varints):

``frame   := magic:u8 event_count:varint record*``
``record  := type_code:u8 body``

Type codes: 0 StartDocument, 1 EndDocument, 2 StartElement, 3 EndElement,
4 Characters, 5 Comment, 6 ProcessingInstruction.

Tag and attribute *names* are interned per document: the encoder keeps a
string table that persists across frames, and a name is written either as
``0 len bytes`` (new entry — the decoder appends it to its own table) or
as ``index`` (1-based reference to an existing entry).  Attribute values,
text, comment bodies and PI data are written inline as ``len bytes``
UTF-8.  Optional ``line`` fields encode as ``line + 1`` with ``0``
meaning ``None``.  Event ``position`` is delta-encoded against the
previous record's position (positions are monotonic within a document),
so a contiguous stream costs one byte per event.

Both sides must process frames for one document in order on a fresh
encoder/decoder pair — the string table is the only cross-frame state,
and it is append-only, which is what makes the format deterministic:
encoding the same event stream always yields the same bytes.

The decoder is strict: unknown type codes, references past the end of
the string table, truncated payloads and trailing garbage all raise
:class:`EventCodecError` rather than yielding partial event lists.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ViteXError
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

__all__ = [
    "EVENTS_PER_FRAME",
    "EventCodecError",
    "EventFrameDecoder",
    "EventFrameEncoder",
]

#: Soft batching target for producers: flush a frame once it holds this
#: many events.  Purely advisory — frames of any size decode fine.
EVENTS_PER_FRAME = 1024

#: First byte of every frame; rejects raw-XML/JSON bytes fed to the
#: decoder by mistake (both would start with ``<`` or ``{``).
_FRAME_MAGIC = 0xEF

_T_START_DOCUMENT = 0
_T_END_DOCUMENT = 1
_T_START_ELEMENT = 2
_T_END_ELEMENT = 3
_T_CHARACTERS = 4
_T_COMMENT = 5
_T_PROCESSING_INSTRUCTION = 6


class EventCodecError(ViteXError):
    """A frame could not be decoded (truncation, corruption, bad magic)."""


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise EventCodecError(f"cannot encode negative varint {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    length = len(data)
    while True:
        if offset >= length:
            raise EventCodecError("truncated frame: varint runs past the end")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise EventCodecError("corrupt frame: varint wider than 64 bits")


class EventFrameEncoder:
    """Encode runs of events into binary frames for one document.

    The instance carries the per-document name-interning table; create a
    fresh encoder per document (or call :meth:`reset` between documents)
    and keep it paired with exactly one :class:`EventFrameDecoder` on the
    consuming side.
    """

    __slots__ = ("_names", "_last_position")

    def __init__(self) -> None:
        self._names: Dict[str, int] = {}
        self._last_position = 0

    def reset(self) -> None:
        """Forget all interned names; start a new document."""
        self._names.clear()
        self._last_position = 0

    def _write_name(self, out: bytearray, name: str) -> None:
        index = self._names.get(name)
        if index is not None:
            _write_varint(out, index)
            return
        self._names[name] = len(self._names) + 1
        _write_varint(out, 0)
        raw = name.encode("utf-8")
        _write_varint(out, len(raw))
        out += raw

    @staticmethod
    def _write_text(out: bytearray, text: str) -> None:
        raw = text.encode("utf-8")
        _write_varint(out, len(raw))
        out += raw

    def encode(self, events: Iterable[Event]) -> bytes:
        """Return one frame holding ``events`` (possibly empty).

        The loop body inlines the varint/name/text writes for the dominant
        event kinds — the encoder runs in the sharding front, where every
        microsecond spent here is serial overhead no worker count can
        amortise.  Multi-byte varints and first-occurrence names fall back
        to the shared helpers; the byte output is identical either way.
        """
        out = bytearray((_FRAME_MAGIC,))
        body = bytearray()
        append = body.append
        names = self._names
        count = 0
        last = self._last_position
        for event in events:
            count += 1
            position = event[0]
            delta = position - last
            last = position
            if delta < 0:
                # Positions are monotonic per document; a producer that
                # rewinds (tests, hand-built streams) still encodes, just
                # not delta-compactly: flag with a zig-zag-style escape.
                append(0x7F)
                _write_varint(body, -delta)
                delta = 0
            cls = event.__class__
            if cls is StartElement or isinstance(event, StartElement):
                append(_T_START_ELEMENT)
                if delta < 0x80:
                    append(delta)
                else:
                    _write_varint(body, delta)
                index = names.get(event.name)
                if index is not None and index < 0x80:
                    append(index)
                else:
                    self._write_name(body, event.name)
                level = event.level
                if 0 <= level < 0x80:
                    append(level)
                else:
                    _write_varint(body, level)
                attributes = event.attributes
                attr_count = len(attributes)
                if attr_count < 0x80:
                    append(attr_count)
                else:
                    _write_varint(body, attr_count)
                for attr_name, attr_value in attributes:
                    index = names.get(attr_name)
                    if index is not None and index < 0x80:
                        append(index)
                    else:
                        self._write_name(body, attr_name)
                    raw = attr_value.encode("utf-8")
                    raw_len = len(raw)
                    if raw_len < 0x80:
                        append(raw_len)
                    else:
                        _write_varint(body, raw_len)
                    body += raw
                line = 0 if event.line is None else event.line + 1
                if 0 <= line < 0x80:
                    append(line)
                else:
                    _write_varint(body, line)
            elif cls is EndElement or isinstance(event, EndElement):
                append(_T_END_ELEMENT)
                if delta < 0x80:
                    append(delta)
                else:
                    _write_varint(body, delta)
                index = names.get(event.name)
                if index is not None and index < 0x80:
                    append(index)
                else:
                    self._write_name(body, event.name)
                level = event.level
                if 0 <= level < 0x80:
                    append(level)
                else:
                    _write_varint(body, level)
                line = 0 if event.line is None else event.line + 1
                if 0 <= line < 0x80:
                    append(line)
                else:
                    _write_varint(body, line)
            elif cls is Characters or isinstance(event, Characters):
                append(_T_CHARACTERS)
                if delta < 0x80:
                    append(delta)
                else:
                    _write_varint(body, delta)
                raw = event.text.encode("utf-8")
                raw_len = len(raw)
                if raw_len < 0x80:
                    append(raw_len)
                else:
                    _write_varint(body, raw_len)
                body += raw
                level = event.level
                if 0 <= level < 0x80:
                    append(level)
                else:
                    _write_varint(body, level)
            elif isinstance(event, Comment):
                append(_T_COMMENT)
                _write_varint(body, delta)
                self._write_text(body, event.text)
                _write_varint(body, event.level)
            elif isinstance(event, ProcessingInstruction):
                append(_T_PROCESSING_INSTRUCTION)
                _write_varint(body, delta)
                self._write_text(body, event.target)
                self._write_text(body, event.data)
                _write_varint(body, event.level)
            elif isinstance(event, StartDocument):
                append(_T_START_DOCUMENT)
                _write_varint(body, delta)
            elif isinstance(event, EndDocument):
                append(_T_END_DOCUMENT)
                _write_varint(body, delta)
            else:
                raise EventCodecError(
                    f"cannot encode object of type {type(event).__name__}"
                )
        self._last_position = last
        _write_varint(out, count)
        out += body
        return bytes(out)


class EventFrameDecoder:
    """Decode frames produced by one :class:`EventFrameEncoder`.

    Frames must be decoded in production order; the decoder rebuilds the
    same append-only name table the encoder built.
    """

    __slots__ = ("_names", "_last_position")

    def __init__(self) -> None:
        self._names: List[str] = []
        self._last_position = 0

    def reset(self) -> None:
        """Forget all interned names; start a new document."""
        self._names.clear()
        self._last_position = 0

    def decode(self, frame: bytes) -> List[Event]:
        """Return the exact event list ``frame`` was encoded from."""
        events: List[Event] = []
        append = events.append
        self.walk(
            frame,
            lambda position, name, level, attributes, line: append(
                StartElement(position, name, level, attributes, line)
            ),
            lambda position, name, level, line: append(
                EndElement(position, name, level, line)
            ),
            lambda position, text, level: append(Characters(position, text, level)),
            append,
        )
        return events

    def walk(
        self,
        frame: bytes,
        start: Callable[[int, str, int, Tuple[Tuple[str, str], ...], Optional[int]], Any],
        end: Callable[[int, str, int, Optional[int]], Any],
        chars: Callable[[int, str, int], Any],
        other: Callable[[Event], Any],
    ) -> None:
        """Hand every record of ``frame`` to a callback, in order.

        The one frame record loop: :meth:`decode` and the engine's frame
        feed both run on it.  The dominant record kinds never become event
        objects — ``start(position, name, level, attributes, line)``,
        ``end(position, name, level, line)`` and ``chars(position, text,
        level)`` receive the fields of :class:`StartElement`,
        :class:`EndElement` and :class:`Characters` in field order — while
        the rare kinds (document boundaries, comments, processing
        instructions) reach ``other`` as event objects.

        The loop inlines every field read: at roughly five varints per
        record, per-field helper calls are the dominant decode cost, and
        the single-byte fast path (``byte < 0x80``) covers almost all
        fields of a real document.  Multi-byte varints fall back to
        :func:`_read_varint`; truncation is policed by the ``IndexError``
        trap around the loop plus explicit bounds checks on string slices
        (slicing past the end would silently shorten, not raise).  A
        malformed record raises after the records before it were handed
        over, so a consumer aborts the document on :class:`EventCodecError`.
        """
        if not frame or frame[0] != _FRAME_MAGIC:
            raise EventCodecError("not an event frame (bad magic byte)")
        count, offset = _read_varint(frame, 1)
        names = self._names
        last = self._last_position
        length = len(frame)
        try:
            for _ in range(count):
                code = frame[offset]
                offset += 1
                negative = False
                back = 0
                if code == 0x7F:
                    negative = True
                    back, offset = _read_varint(frame, offset)
                    code = frame[offset]
                    offset += 1
                byte = frame[offset]
                if byte < 0x80:
                    delta = byte
                    offset += 1
                else:
                    delta, offset = _read_varint(frame, offset)
                position = last - back if negative else last + delta
                last = position
                if code == _T_START_ELEMENT:
                    # name reference (0 = new entry follows inline)
                    byte = frame[offset]
                    if byte < 0x80:
                        index = byte
                        offset += 1
                    else:
                        index, offset = _read_varint(frame, offset)
                    if index:
                        if index > len(names):
                            raise EventCodecError(
                                f"corrupt frame: name reference {index} past "
                                f"table of {len(names)} entries"
                            )
                        name = names[index - 1]
                    else:
                        byte = frame[offset]
                        if byte < 0x80:
                            text_len = byte
                            offset += 1
                        else:
                            text_len, offset = _read_varint(frame, offset)
                        stop = offset + text_len
                        if stop > length:
                            raise EventCodecError(
                                "truncated frame: string runs past the end"
                            )
                        name = frame[offset:stop].decode("utf-8")
                        offset = stop
                        names.append(name)
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    byte = frame[offset]
                    if byte < 0x80:
                        attr_count = byte
                        offset += 1
                    else:
                        attr_count, offset = _read_varint(frame, offset)
                    attributes = []
                    for _ in range(attr_count):
                        byte = frame[offset]
                        if byte < 0x80:
                            index = byte
                            offset += 1
                        else:
                            index, offset = _read_varint(frame, offset)
                        if index:
                            if index > len(names):
                                raise EventCodecError(
                                    f"corrupt frame: name reference {index} "
                                    f"past table of {len(names)} entries"
                                )
                            attr_name = names[index - 1]
                        else:
                            byte = frame[offset]
                            if byte < 0x80:
                                text_len = byte
                                offset += 1
                            else:
                                text_len, offset = _read_varint(frame, offset)
                            stop = offset + text_len
                            if stop > length:
                                raise EventCodecError(
                                    "truncated frame: string runs past the end"
                                )
                            attr_name = frame[offset:stop].decode("utf-8")
                            offset = stop
                            names.append(attr_name)
                        byte = frame[offset]
                        if byte < 0x80:
                            text_len = byte
                            offset += 1
                        else:
                            text_len, offset = _read_varint(frame, offset)
                        stop = offset + text_len
                        if stop > length:
                            raise EventCodecError(
                                "truncated frame: string runs past the end"
                            )
                        attributes.append(
                            (attr_name, frame[offset:stop].decode("utf-8"))
                        )
                        offset = stop
                    byte = frame[offset]
                    if byte < 0x80:
                        raw_line = byte
                        offset += 1
                    else:
                        raw_line, offset = _read_varint(frame, offset)
                    start(
                        position,
                        name,
                        level,
                        tuple(attributes),
                        None if raw_line == 0 else raw_line - 1,
                    )
                elif code == _T_END_ELEMENT:
                    byte = frame[offset]
                    if byte < 0x80:
                        index = byte
                        offset += 1
                    else:
                        index, offset = _read_varint(frame, offset)
                    if index:
                        if index > len(names):
                            raise EventCodecError(
                                f"corrupt frame: name reference {index} past "
                                f"table of {len(names)} entries"
                            )
                        name = names[index - 1]
                    else:
                        byte = frame[offset]
                        if byte < 0x80:
                            text_len = byte
                            offset += 1
                        else:
                            text_len, offset = _read_varint(frame, offset)
                        stop = offset + text_len
                        if stop > length:
                            raise EventCodecError(
                                "truncated frame: string runs past the end"
                            )
                        name = frame[offset:stop].decode("utf-8")
                        offset = stop
                        names.append(name)
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    byte = frame[offset]
                    if byte < 0x80:
                        raw_line = byte
                        offset += 1
                    else:
                        raw_line, offset = _read_varint(frame, offset)
                    end(
                        position,
                        name,
                        level,
                        None if raw_line == 0 else raw_line - 1,
                    )
                elif code == _T_CHARACTERS:
                    byte = frame[offset]
                    if byte < 0x80:
                        text_len = byte
                        offset += 1
                    else:
                        text_len, offset = _read_varint(frame, offset)
                    stop = offset + text_len
                    if stop > length:
                        raise EventCodecError(
                            "truncated frame: string runs past the end"
                        )
                    text = frame[offset:stop].decode("utf-8")
                    offset = stop
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    chars(position, text, level)
                elif code == _T_COMMENT:
                    byte = frame[offset]
                    if byte < 0x80:
                        text_len = byte
                        offset += 1
                    else:
                        text_len, offset = _read_varint(frame, offset)
                    stop = offset + text_len
                    if stop > length:
                        raise EventCodecError(
                            "truncated frame: string runs past the end"
                        )
                    text = frame[offset:stop].decode("utf-8")
                    offset = stop
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    other(Comment(position, text, level))
                elif code == _T_PROCESSING_INSTRUCTION:
                    byte = frame[offset]
                    if byte < 0x80:
                        text_len = byte
                        offset += 1
                    else:
                        text_len, offset = _read_varint(frame, offset)
                    stop = offset + text_len
                    if stop > length:
                        raise EventCodecError(
                            "truncated frame: string runs past the end"
                        )
                    target = frame[offset:stop].decode("utf-8")
                    offset = stop
                    byte = frame[offset]
                    if byte < 0x80:
                        text_len = byte
                        offset += 1
                    else:
                        text_len, offset = _read_varint(frame, offset)
                    stop = offset + text_len
                    if stop > length:
                        raise EventCodecError(
                            "truncated frame: string runs past the end"
                        )
                    data = frame[offset:stop].decode("utf-8")
                    offset = stop
                    byte = frame[offset]
                    if byte < 0x80:
                        level = byte
                        offset += 1
                    else:
                        level, offset = _read_varint(frame, offset)
                    other(ProcessingInstruction(position, target, data, level))
                elif code == _T_START_DOCUMENT:
                    other(StartDocument(position))
                elif code == _T_END_DOCUMENT:
                    other(EndDocument(position))
                else:
                    raise EventCodecError(
                        f"corrupt frame: unknown type code {code}"
                    )
        except IndexError:
            raise EventCodecError(
                "truncated frame: event record runs past the end"
            ) from None
        except UnicodeDecodeError as exc:
            raise EventCodecError(f"corrupt frame: invalid UTF-8 ({exc})") from exc
        if offset != length:
            raise EventCodecError(
                f"corrupt frame: {length - offset} trailing bytes after "
                f"the last record"
            )
        self._last_position = last
