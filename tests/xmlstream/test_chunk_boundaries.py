"""Chunk-boundary fuzzing for the push-mode byte APIs.

A push session receives bytes split wherever the network decided to split
them: inside a multibyte UTF-8 sequence, inside an entity reference, inside
a tag, even inside the byte-order mark.  These tests split a corpus
document at *every* byte offset (and into 1-byte chunks) and require the
event stream to be identical to the one-shot parse.
"""

from __future__ import annotations

import pytest

from repro.errors import EncodingError
from repro.xmlstream.expat_backend import ExpatEventSource
from repro.xmlstream.reader import IncrementalByteDecoder
from repro.xmlstream.tokenizer import StreamTokenizer, tokenize

#: Deliberately nasty corpus: multibyte UTF-8 (2-, 3- and 4-byte sequences),
#: entities and character references in text and attribute values, CDATA,
#: comments, a processing instruction and split-prone markup.
NASTY_DOC = (
    '<?xml version="1.0" encoding="utf-8"?>'
    "<catalog état=\"café &amp; crème\">"
    "<entry id='e1'>☃ snowman &lt;tag&gt; &#x10348; &#169;</entry>"
    "<entry id='e2'><![CDATA[raw & <unparsed> bits]]></entry>"
    "<!-- comment with ümläuts -->"
    "<?target some data?>"
    "<empty/>"
    "<deep><a><b>text</b></a></deep>"
    "</catalog>"
)


#: Line ends the pure tokenizer must normalise as expat does (XML 1.0 §2.11).
LINE_END_DOCS = ("<a>x\r\ny</a>", "<a>x\ry</a>", "<r>\r<a/>\r\n<a/></r>")


def _shape(events):
    """Text, element names and start-tag lines: what expat and pure share."""
    return [
        (type(e).__name__, getattr(e, "name", None), getattr(e, "text", None),
         e.line if type(e).__name__ == "StartElement" else None)
        for e in events
        if type(e).__name__ in ("StartElement", "EndElement", "Characters")
    ]


def _events_from_chunks(chunks):
    tokenizer = StreamTokenizer()
    events = []
    for chunk in chunks:
        events.extend(tokenizer.feed_bytes(chunk))
    events.extend(tokenizer.close())
    return events


class TestEveryByteOffset:
    def test_two_chunk_split_at_every_offset(self):
        data = NASTY_DOC.encode("utf-8")
        expected = list(tokenize(NASTY_DOC))
        for offset in range(len(data) + 1):
            events = _events_from_chunks([data[:offset], data[offset:]])
            assert events == expected, f"split at byte {offset} diverged"

    @pytest.mark.parametrize("doc", LINE_END_DOCS)
    def test_line_ends_match_expat_at_every_offset(self, doc):
        data = doc.encode("utf-8")
        source = ExpatEventSource()
        expected = _shape(source.feed_bytes(data) + source.close())
        for offset in range(len(data) + 1):
            events = _events_from_chunks([data[:offset], data[offset:]])
            assert _shape(events) == expected, f"split at byte {offset} diverged"

    def test_one_byte_chunks(self):
        data = NASTY_DOC.encode("utf-8")
        expected = list(tokenize(NASTY_DOC))
        events = _events_from_chunks(data[i : i + 1] for i in range(len(data)))
        assert events == expected

    def test_one_byte_chunks_expat_structure_matches(self):
        # expat normalises differently in text details but the structural
        # events (names, levels, attribute values) must agree.
        data = NASTY_DOC.encode("utf-8")
        source = ExpatEventSource()
        events = []
        for i in range(len(data)):
            events.extend(source.feed_bytes(data[i : i + 1]))
        events.extend(source.close())
        names = [
            (type(e).__name__, getattr(e, "name", None))
            for e in events
            if type(e).__name__ in ("StartElement", "EndElement")
        ]
        expected = [
            (type(e).__name__, getattr(e, "name", None))
            for e in tokenize(NASTY_DOC)
            if type(e).__name__ in ("StartElement", "EndElement")
        ]
        assert names == expected

    def test_utf16_with_bom_one_byte_chunks(self):
        doc = "<r a='é'>☃</r>"
        data = doc.encode("utf-16")
        expected = list(tokenize(doc))
        events = _events_from_chunks(data[i : i + 1] for i in range(len(data)))
        assert events == expected

    def test_declaration_encoding_split_across_chunks(self):
        doc = "<?xml version='1.0' encoding='latin-1'?><r>café</r>"
        data = doc.encode("latin-1")
        expected = list(tokenize(doc))
        for offset in range(len(data) + 1):
            events = _events_from_chunks([data[:offset], data[offset:]])
            assert events == expected, f"split at byte {offset} diverged"


class TestDecoderEdges:
    def test_truncated_multibyte_at_eof_raises_encoding_error(self):
        data = "<r>☃</r>".encode("utf-8")
        tokenizer = StreamTokenizer()
        tokenizer.feed_bytes(data[:4])  # ends inside the 3-byte snowman
        with pytest.raises(EncodingError):
            # close() flushes the incremental decoder, which reports the
            # dangling partial sequence.
            tokenizer.close()

    def test_decoder_detects_bom_split_one_byte_at_a_time(self):
        decoder = IncrementalByteDecoder()
        data = "<r/>".encode("utf-8-sig")
        text = ""
        for i in range(len(data)):
            text += decoder.decode(data[i : i + 1])
        text += decoder.decode(b"", final=True)
        assert text == "<r/>"
        assert decoder.detected_encoding == "utf-8-sig"

    def test_decoder_unknown_encoding(self):
        decoder = IncrementalByteDecoder("no-such-codec")
        with pytest.raises(EncodingError):
            decoder.decode(b"<r/>", final=True)

    def test_entity_reference_split_everywhere(self):
        doc = "<r>x&amp;y &#xE9; &quot;q&quot;</r>"
        data = doc.encode("utf-8")
        expected = list(tokenize(doc))
        for offset in range(len(data) + 1):
            events = _events_from_chunks([data[:offset], data[offset:]])
            assert events == expected, f"split at byte {offset} diverged"
