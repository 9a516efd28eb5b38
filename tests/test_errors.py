"""Unit tests for the shared exception hierarchy."""

from __future__ import annotations

import pytest

from repro.errors import (
    DatasetError,
    EncodingError,
    EngineError,
    StreamStateError,
    UnsupportedFeatureError,
    ViteXError,
    XMLError,
    XMLSyntaxError,
    XPathError,
    XPathSyntaxError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            XMLError,
            XMLSyntaxError,
            EncodingError,
            XPathError,
            XPathSyntaxError,
            UnsupportedFeatureError,
            EngineError,
            StreamStateError,
            DatasetError,
        ],
    )
    def test_everything_derives_from_vitex_error(self, exception_type):
        assert issubclass(exception_type, ViteXError)

    def test_xml_syntax_error_is_xml_error(self):
        assert issubclass(XMLSyntaxError, XMLError)

    def test_xpath_syntax_error_is_xpath_error(self):
        assert issubclass(XPathSyntaxError, XPathError)
        assert issubclass(UnsupportedFeatureError, XPathError)

    def test_stream_state_error_is_engine_error(self):
        assert issubclass(StreamStateError, EngineError)


class TestXMLSyntaxErrorFormatting:
    def test_message_with_line_and_column(self):
        error = XMLSyntaxError("broken tag", line=12, column=5)
        assert error.line == 12
        assert error.column == 5
        assert "line 12" in str(error)
        assert "column 5" in str(error)

    def test_message_with_line_only(self):
        error = XMLSyntaxError("broken tag", line=3)
        assert "line 3" in str(error)
        assert "column" not in str(error)

    def test_message_without_location(self):
        error = XMLSyntaxError("broken tag")
        assert str(error) == "broken tag"


class TestXPathSyntaxErrorFormatting:
    def test_pointer_rendering(self):
        error = XPathSyntaxError("unexpected ']'", position=4, expression="//a[]")
        text = str(error)
        assert "//a[]" in text
        assert "^" in text
        # The caret lines up with the reported position.
        caret_line = text.splitlines()[-1]
        assert caret_line.index("^") - 2 == 4  # two-space indent before the expression

    def test_message_without_expression(self):
        error = XPathSyntaxError("bad token", position=None, expression=None)
        assert str(error) == "bad token"
