"""Tests that XPath features outside XP{/,//,*,[]} are rejected explicitly.

The paper's fragment is child axes, descendant axes, wildcards and predicates
(plus attribute access and value tests).  Anything else must raise
:class:`~repro.errors.UnsupportedFeatureError` rather than silently returning
wrong answers.
"""

from __future__ import annotations

import pytest

from repro.errors import UnsupportedFeatureError, XPathError
from repro.xpath.normalize import compile_query
from repro.xpath.parser import parse_xpath


UNSUPPORTED_EXPRESSIONS = [
    "//a[3]",                     # positional predicate
    "//a[position()=2]",          # position() function
    "//a[count(b)>1]",            # count() function
    "//a[contains(b,'x')]",       # string function
    "//a[last()]",                # last() function
    "//a/node()",                 # node() test
    "//a/..",                     # parent step (lexes as two dots)
    "//a[/b]",                    # absolute path inside a predicate
    "//a/text()[b]",              # predicate on text()
    "//a[text()]",                # direct text-node test
    "//a[text()='v']",            # comparison against one text node
    "//a[.//text()='v']",         # comparison against descendant text nodes
    ".//a",                       # '.' step outside a predicate
]


class TestUnsupportedFeatures:
    @pytest.mark.parametrize("expression", UNSUPPORTED_EXPRESSIONS)
    def test_rejected_with_specific_error(self, expression):
        with pytest.raises(XPathError):
            compile_query(expression)

    def test_positional_predicate_error_type(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_xpath("//a[3]")

    def test_error_message_mentions_query(self):
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            parse_xpath("//a[position()=2]")
        assert "position" in str(excinfo.value)

    def test_attribute_with_further_steps_rejected(self):
        with pytest.raises(XPathError):
            compile_query("//a/@id/b")

    def test_attribute_in_middle_of_main_path_rejected(self):
        with pytest.raises(XPathError):
            compile_query("//a/@id/text()")

    def test_text_in_middle_of_main_path_rejected(self):
        with pytest.raises(XPathError):
            compile_query("//a/text()/b")


class TestSupportedCornerFeatures:
    """Features that are inside the fragment and must keep compiling."""

    @pytest.mark.parametrize(
        "expression",
        [
            "//a",
            "/a/b/c",
            "//*",
            "//a/@id",
            "//@id",
            "//a/@*",
            "//a/text()",
            "//a[b]",
            "//a[@id]",
            "//a[.//b/c]",
            "//a[b='x' and @id!='2' or not(c)]",
            "//a[.='v']",
            "//a[.//text()]",
            "//a[b>1.5][c<=2]",
            "//section[author]//table[position]//cell",
            "//ProteinEntry[reference]/@id",
        ],
    )
    def test_still_supported(self, expression):
        tree = compile_query(expression)
        assert tree.size >= 1
