"""Tests for the treebank-style recursive parse-tree generator."""

from __future__ import annotations

import pytest

from repro.core.engine import evaluate
from repro.baselines.dom_eval import evaluate_with_dom
from repro.datasets.treebank import TreebankConfig, TreebankGenerator, treebank_of
from repro.errors import DatasetError
from repro.xmlstream.dom import parse_document


def nests_in_itself(document, tag):
    """True when some ``tag`` element has an ancestor with the same tag."""
    return any(up.tag == tag for element in document.find_all(tag) for up in element.ancestors())


class TestGeneration:
    def test_well_formed_and_deterministic(self):
        generator = treebank_of(sentences=20, seed=3)
        text = generator.text()
        parse_document(text)  # raises XMLSyntaxError when malformed
        assert text == generator.text()

    def test_sentence_count(self):
        generator = treebank_of(sentences=12, seed=1)
        document = parse_document(generator.text())
        assert len(document.find_all("sentence")) == 12

    def test_grammar_tags_are_recursive(self):
        generator = treebank_of(sentences=40, max_depth=14, seed=2)
        document = parse_document(generator.text())
        # The hallmark of treebank data: grammatical categories nest inside
        # themselves (NP within NP, S within S, ...).
        assert nests_in_itself(document, "NP") or nests_in_itself(document, "VP")
        assert document.max_depth > 8

    def test_max_depth_bounds_nesting(self):
        shallow = parse_document(treebank_of(sentences=30, max_depth=6, seed=2).text())
        deep = parse_document(treebank_of(sentences=30, max_depth=18, seed=2).text())
        assert deep.max_depth > shallow.max_depth
        # The cap plus the bounded tail of terminal productions.
        assert shallow.max_depth <= 6 + 6

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            TreebankGenerator(TreebankConfig(sentences=0))
        with pytest.raises(DatasetError):
            TreebankGenerator(TreebankConfig(max_depth=1))
        with pytest.raises(DatasetError):
            TreebankGenerator(TreebankConfig(recursion_bias=1.5))


class TestQueriesOverTreebank:
    @pytest.mark.parametrize(
        "query",
        [
            "//S//NP//NN",
            "//NP[PP]//NN/text()",
            "//VP//VP//VB",
            "//S[VP/VB]//NP[not(PP)]/NN",
            "//sentence//PP//NNP",
        ],
    )
    def test_twigm_matches_oracle(self, query):
        text = treebank_of(sentences=25, seed=5).text()
        assert evaluate(query, text).keys() == evaluate_with_dom(query, text).keys()

    def test_descendant_queries_find_nested_matches(self):
        text = treebank_of(sentences=30, seed=6).text()
        nested_np = evaluate("//NP//NP", text)
        assert len(nested_np) > 0
