"""Fuzz and round-trip tests for the binary event codec.

Protocol v2 ships these frames between the sharded front and its workers,
so the bar is *exact* round-trip: for any event stream the decoder must
return ``==``-identical NamedTuples, and any truncated or corrupted frame
must raise :class:`EventCodecError` rather than yield partial data.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlstream.eventcodec import (
    EVENTS_PER_FRAME,
    EventCodecError,
    EventFrameDecoder,
    EventFrameEncoder,
)
from repro.xmlstream.events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from repro.xmlstream.tokenizer import StreamTokenizer


def roundtrip(events, frames=1):
    """Encode ``events`` split over ``frames`` frames; return the decode."""
    encoder = EventFrameEncoder()
    decoder = EventFrameDecoder()
    out = []
    step = max(1, (len(events) + frames - 1) // frames) if events else 1
    for start in range(0, max(len(events), 1), step):
        frame = encoder.encode(events[start : start + step])
        assert isinstance(frame, bytes)
        out.extend(decoder.decode(frame))
    return out


class TestEveryEventType:
    def test_all_seven_types_roundtrip(self):
        events = [
            StartDocument(0),
            ProcessingInstruction(1, "xml-stylesheet", 'href="a.css"', 0),
            Comment(2, " prologue ", 0),
            StartElement(3, "root", 1, (("id", "r1"), ("lang", "en")), 1),
            Characters(4, "hello", 1),
            StartElement(5, "child", 2, (), 2),
            Characters(6, "world", 2),
            EndElement(7, "child", 2, 2),
            Comment(8, " inline ", 1),
            ProcessingInstruction(9, "target", "", 1),
            EndElement(10, "root", 1, 3),
            EndDocument(11),
        ]
        assert roundtrip(events) == events

    def test_none_lines_and_empty_strings(self):
        events = [
            StartElement(0, "a", 1, (("empty", ""),), None),
            Characters(1, "", 1),
            EndElement(2, "a", 1, None),
        ]
        decoded = roundtrip(events)
        assert decoded == events
        assert decoded[0].line is None
        assert decoded[2].line is None

    def test_type_identity_preserved(self):
        decoded = roundtrip([Comment(0, "x", 1), Characters(1, "x", 1)])
        assert type(decoded[0]) is Comment
        assert type(decoded[1]) is Characters


class TestUnicode:
    def test_astral_plane_and_multibyte_text(self):
        text = "𝔘𝔫𝔦𝔠𝔬𝔡𝔢 — 中文 ▒ \U0001f40d\U0001f600 ﷽"
        events = [
            StartElement(0, "Δτ", 1, (("ключ", "значение\U0001f680"),), 1),
            Characters(1, text, 1),
            EndElement(2, "Δτ", 1, 1),
        ]
        assert roundtrip(events) == events

    def test_cdata_style_payload_roundtrips_verbatim(self):
        # CDATA sections surface as Characters events whose text may hold
        # markup characters; the codec must not interpret any of it.
        payload = "<not><xml> && \"quotes\" ]]> \x0b tail"
        events = [
            StartElement(0, "c", 1, (), None),
            Characters(1, payload, 1),
            EndElement(2, "c", 1, None),
        ]
        decoded = roundtrip(events)
        assert decoded[1].text == payload

    def test_huge_attribute_values(self):
        big = "v" * 2_000_000 + "\U0001f40d"
        events = [StartElement(0, "e", 1, (("big", big), ("b2", big)), 1)]
        decoded = roundtrip(events)
        assert decoded[0].attributes[0][1] == big
        assert decoded[0].attributes[1][1] == big


class TestWalk:
    EVENTS = [
        StartDocument(0),
        StartElement(1, "root", 1, (("id", "r1"),), 1),
        Characters(2, "hello", 1),
        Comment(3, " c ", 1),
        EndElement(4, "root", 1, 2),
        EndDocument(5),
    ]

    def test_dominant_kinds_arrive_as_fields_and_rare_kinds_as_events(self):
        frame = EventFrameEncoder().encode(self.EVENTS)
        seen = []
        EventFrameDecoder().walk(
            frame,
            lambda *fields: seen.append(("start", fields)),
            lambda *fields: seen.append(("end", fields)),
            lambda *fields: seen.append(("chars", fields)),
            lambda event: seen.append(("other", event)),
        )
        assert seen == [
            ("other", StartDocument(0)),
            ("start", (1, "root", 1, (("id", "r1"),), 1)),
            ("chars", (2, "hello", 1)),
            ("other", Comment(3, " c ", 1)),
            ("end", (4, "root", 1, 2)),
            ("other", EndDocument(5)),
        ]

    def test_records_before_a_truncation_are_handed_over(self):
        frame = EventFrameEncoder().encode(self.EVENTS)
        seen = []

        def record(*fields):
            seen.append(fields)

        with pytest.raises(EventCodecError):
            EventFrameDecoder().walk(frame[:-2], record, record, record, record)
        assert seen[:2] == [(StartDocument(0),), (1, "root", 1, (("id", "r1"),), 1)]
        assert (EndDocument(5),) not in seen


class TestInterning:
    def test_repeated_names_cost_one_byte_after_first(self):
        first = EventFrameEncoder().encode(
            [StartElement(i, "record", 2, (("k", "v"),), None) for i in range(2)]
        )
        # Same stream but with distinct names: must be strictly larger
        # because every name is spelled out.
        distinct = EventFrameEncoder().encode(
            [StartElement(i, f"record{i}", 2, ((f"k{i}", "v"),), None) for i in range(2)]
        )
        assert len(first) < len(distinct)

    def test_interning_table_persists_across_frames(self):
        encoder = EventFrameEncoder()
        decoder = EventFrameDecoder()
        frame1 = encoder.encode([StartElement(0, "tag", 1, (("a", "1"),), None)])
        frame2 = encoder.encode([StartElement(1, "tag", 2, (("a", "2"),), None)])
        assert len(frame2) < len(frame1)  # second frame references, not spells
        assert decoder.decode(frame1)[0].name == "tag"
        assert decoder.decode(frame2)[0] == StartElement(1, "tag", 2, (("a", "2"),), None)

    def test_decoding_frames_out_of_order_is_detected(self):
        encoder = EventFrameEncoder()
        encoder.encode([StartElement(0, "tag", 1, (), None)])  # interns "tag"
        frame2 = encoder.encode([StartElement(1, "tag", 1, (), None)])
        with pytest.raises(EventCodecError, match="name reference"):
            EventFrameDecoder().decode(frame2)

    def test_reset_starts_a_new_document(self):
        encoder = EventFrameEncoder()
        decoder = EventFrameDecoder()
        decoder.decode(encoder.encode([StartElement(5, "a", 1, (), None)]))
        encoder.reset()
        decoder.reset()
        events = [StartElement(0, "a", 1, (), None)]
        assert decoder.decode(encoder.encode(events)) == events


class TestRejection:
    def _frame(self):
        return EventFrameEncoder().encode(
            [
                StartElement(0, "name", 1, (("attr", "value"),), 3),
                Characters(1, "text body", 1),
                EndElement(2, "name", 1, 4),
            ]
        )

    def test_every_truncation_is_rejected(self):
        frame = self._frame()
        for cut in range(len(frame)):
            with pytest.raises(EventCodecError):
                EventFrameDecoder().decode(frame[:cut])

    def test_trailing_garbage_is_rejected(self):
        with pytest.raises(EventCodecError, match="trailing"):
            EventFrameDecoder().decode(self._frame() + b"\x00")

    def test_bad_magic_is_rejected(self):
        with pytest.raises(EventCodecError, match="magic"):
            EventFrameDecoder().decode(b"<xml>not a frame</xml>")
        with pytest.raises(EventCodecError, match="magic"):
            EventFrameDecoder().decode(b"")

    def test_unknown_type_code_is_rejected(self):
        frame = bytearray(EventFrameEncoder().encode([StartDocument(0)]))
        # byte layout: magic, count=1, type_code, delta
        frame[2] = 0x63
        with pytest.raises(EventCodecError, match="unknown type code"):
            EventFrameDecoder().decode(bytes(frame))

    def test_invalid_utf8_is_rejected(self):
        frame = bytearray(
            EventFrameEncoder().encode([Characters(0, "AAAA", 1)])
        )
        index = bytes(frame).index(b"AAAA")
        frame[index : index + 4] = b"\xff\xfe\xff\xfe"
        with pytest.raises(EventCodecError, match="UTF-8"):
            EventFrameDecoder().decode(bytes(frame))


# ---------------------------------------------------------------------------
# Property-based fuzz
# ---------------------------------------------------------------------------

_text = st.text(max_size=60)
_name = st.text(
    alphabet=st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
    min_size=1,
    max_size=8,
)
_level = st.integers(min_value=0, max_value=200)
_line = st.one_of(st.none(), st.integers(min_value=0, max_value=10**9))
_position = st.integers(min_value=0, max_value=10**12)

_event = st.one_of(
    st.builds(StartDocument, _position),
    st.builds(EndDocument, _position),
    st.builds(
        StartElement,
        _position,
        _name,
        _level,
        st.lists(st.tuples(_name, _text), max_size=4).map(tuple),
        _line,
    ),
    st.builds(EndElement, _position, _name, _level, _line),
    st.builds(Characters, _position, _text, _level),
    st.builds(Comment, _position, _text, _level),
    st.builds(ProcessingInstruction, _position, _name, _text, _level),
)


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_event, max_size=40), st.integers(min_value=1, max_value=5))
    def test_random_streams_roundtrip(self, events, frames):
        assert roundtrip(events, frames=frames) == events

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash_only_raise(self, data):
        decoder = EventFrameDecoder()
        try:
            decoder.decode(data)
        except EventCodecError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_event, min_size=1, max_size=10), st.data())
    def test_truncations_of_valid_frames_raise(self, events, data):
        frame = EventFrameEncoder().encode(events)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(EventCodecError):
            EventFrameDecoder().decode(frame[:cut])


class TestRealDocuments:
    DOC = (
        '<?xml version="1.0"?><?pi data?><!-- head -->'
        "<root a='1' b='two'><item id='i1'>text &amp; more</item>"
        "<item id='i2'><![CDATA[raw <cdata> ]]]]><![CDATA[> body]]></item>"
        "<nested><deep><deeper lang='中文'>𝔘nicode</deeper></deep></nested>"
        "</root><!-- tail -->"
    )

    def test_tokenizer_output_roundtrips(self):
        tokenizer = StreamTokenizer()
        events = list(tokenizer.feed(self.DOC)) + list(tokenizer.close())
        assert roundtrip(events, frames=3) == events

    def test_frame_batching_constant_is_sane(self):
        assert EVENTS_PER_FRAME >= 1
