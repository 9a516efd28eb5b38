"""Tests for the unified event producers (native tokenizer vs xml.sax bridge)."""

from __future__ import annotations

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import Characters, EndElement, StartElement
from repro.xmlstream.sax import PARSER_BACKENDS, iter_events


DOCUMENTS = [
    "<a/>",
    "<a><b>text</b><c x='1'/></a>",
    "<root>pre<child attr='v'>inner</child>post</root>",
    "<a>&lt;escaped&gt; &amp; more</a>",
    "<a>\n  <b>\n    <c>deep</c>\n  </b>\n</a>",
    '<?xml version="1.0"?><doc><!-- comment --><item id="1">x</item></doc>',
    "<m><m><m><leaf/></m></m></m>",
]


def _shape(events):
    """Project events to a back-end independent comparable form."""
    shape = []
    for event in events:
        if isinstance(event, StartElement):
            shape.append(("start", event.name, event.level, tuple(sorted(event.attributes))))
        elif isinstance(event, EndElement):
            shape.append(("end", event.name, event.level))
        elif isinstance(event, Characters):
            shape.append(("text", event.text, event.level))
    return shape


class TestBackendEquivalence:
    @pytest.mark.parametrize("document", DOCUMENTS)
    def test_native_and_expat_produce_same_shape(self, document):
        native = _shape(iter_events(document, parser="native"))
        expat = _shape(iter_events(document, parser="expat"))
        assert native == expat

    @pytest.mark.parametrize("parser", PARSER_BACKENDS)
    def test_levels_start_at_one(self, parser):
        events = list(iter_events("<a><b/></a>", parser=parser))
        starts = [event for event in events if isinstance(event, StartElement)]
        assert [start.level for start in starts] == [1, 2]

    @pytest.mark.parametrize("parser", PARSER_BACKENDS)
    def test_attributes_preserved(self, parser):
        events = list(iter_events("<a id='1' name='x'/>", parser=parser))
        start = next(event for event in events if isinstance(event, StartElement))
        assert start.attribute_dict() == {"id": "1", "name": "x"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            list(iter_events("<a/>", parser="sax2"))


class TestErrorTranslation:
    @pytest.mark.parametrize("parser", PARSER_BACKENDS)
    def test_malformed_document_raises_xml_syntax_error(self, parser):
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a><b></a>", parser=parser))

    @pytest.mark.parametrize("parser", PARSER_BACKENDS)
    def test_unclosed_document_raises(self, parser):
        with pytest.raises(XMLSyntaxError):
            list(iter_events("<a><b>", parser=parser))

    @pytest.mark.parametrize("parser", PARSER_BACKENDS)
    @pytest.mark.parametrize(
        "document,line",
        [
            ("<a></a></a>", 1),  # end tag with no open element
            ("<a>\n<b></a>", 2),  # mismatched end tag
            ("<a/><b/>", 1),  # a second root element
            ("<a>\n\n<b>", 3),  # unclosed at end of input
        ],
    )
    def test_error_reports_the_line_it_was_found_on(self, parser, document, line):
        with pytest.raises(XMLSyntaxError) as caught:
            list(iter_events(document, parser=parser))
        assert caught.value.line == line


class TestChunkedSources:
    @pytest.mark.parametrize("parser", PARSER_BACKENDS)
    def test_generator_of_chunks(self, parser):
        def chunks():
            yield "<root>"
            for index in range(5):
                yield f"<item n='{index}'>v{index}</item>"
            yield "</root>"

        events = list(iter_events(chunks(), parser=parser))
        starts = [event.name for event in events if isinstance(event, StartElement)]
        assert starts == ["root"] + ["item"] * 5

    @pytest.mark.parametrize("parser", PARSER_BACKENDS)
    def test_file_source(self, parser, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b>x</b></a>", encoding="utf-8")
        events = list(iter_events(str(path), parser=parser))
        assert _shape(events) == _shape(iter_events("<a><b>x</b></a>", parser=parser))

    def test_small_chunk_size_native(self):
        document = "<root><a>1</a><b attr='v'>2</b></root>"
        reference = _shape(iter_events(document, parser="native"))
        tiny = _shape(iter_events(document, parser="native", chunk_size=3))
        assert tiny == reference
