"""Backend conformance: pure tokenizer vs direct expat backend.

The engine is backend-agnostic only if both producers emit the same event
sequence for the same document.  These tests check that property on a fixed
corpus and on hypothesis-generated random documents, and additionally check
that full query evaluation (which engages the fused fast paths) returns
identical result sets across backends and against the push-API event path.

Generated documents put whitespace and newlines inside start tags and
before ``/>``, so ``StartElement.line`` — the line the tag *begins* on, on
both backends — is compared, and so is every solution's ``NodeRef.line``.

Known, documented divergences excluded from the comparison:

* ``EndElement.line`` — not part of any answer, and not compared;
* ``\r\n`` normalisation and DTD-defined entities (outside the supported
  subset; not generated here).
"""

from __future__ import annotations

import random
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import TwigMEvaluator
from repro.datasets.randomtree import RandomTreeConfig, RandomTreeGenerator
from repro.xmlstream.events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from repro.xmlstream.sax import iter_events
from repro.xpath.generator import QueryGenerator, QueryGeneratorConfig

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_DOC_CONFIG = RandomTreeConfig(
    vocabulary=("a", "b", "c"),
    attributes=("id", "key"),
    values=("1", "2"),
    max_depth=6,
    max_children=3,
)
_QUERY_CONFIG = QueryGeneratorConfig(
    vocabulary=("a", "b", "c"),
    attributes=("id", "key"),
    values=("1", "2"),
    min_steps=1,
    max_steps=4,
)

#: Separators the document strategy draws from: required whitespace before
#: an attribute, optional whitespace before ``>`` / ``/>``.
_SEPARATORS = (" ", "\n", " \n\t", "\n\n  ")
_OPTIONAL = ("", " ", "\n", "\n \n")
_START_TAG = re.compile(r'<(\w+)((?: \w+="[^"]*")*)>(</\1>)?')
_ATTRIBUTE = re.compile(r'\w+="[^"]*"')


def generated_document(seed: int) -> str:
    """A random tree whose start tags span lines.

    Whitespace and newlines go after the element name, between attributes
    and before ``>``; childless elements become ``<name .../>`` with
    whitespace before the ``/>``.
    """
    rng = random.Random(seed)

    def rewrite(match) -> str:
        name, attributes, end_tag = match.groups()
        parts = [f"<{name}"]
        for attribute in _ATTRIBUTE.findall(attributes):
            parts.append(rng.choice(_SEPARATORS) + attribute)
        parts.append(rng.choice(_OPTIONAL))
        parts.append("/>" if end_tag else ">")
        return "".join(parts)

    document = RandomTreeGenerator(config=_DOC_CONFIG, seed=seed).text()
    return _START_TAG.sub(rewrite, document)


CORPUS = [
    "<a/>",
    "<a><b>text</b><c x='1'/></a>",
    "<root>pre<child attr='v'>inner</child>post</root>",
    "<a>&lt;escaped&gt; &amp; more</a>",
    "<a>\n  <b>\n    <c>deep</c>\n  </b>\n</a>",
    '<?xml version="1.0"?><doc><!-- comment --><item id="1">x</item></doc>',
    "<m><m><m><leaf/></m></m></m>",
    "<a>one<!-- note -->two</a>",
    "<a><![CDATA[1 < 2 && x]]>tail</a>",
    "<a><?pi data here?><b/></a>",
    "<a x='1' y=\"2\" z='&amp;'>v</a>",
    "<a>\n<d\n\n key='2'/>\n<b\n>x</b\n><c k='1'\n  j='2'\n/></a>",
    # XML 1.0 §2.11: \r\n and a lone \r are read as one \n
    "<a>x\r\ny</a>",
    "<a>x\ry</a>",
    "<r>\r<a/>\r\n<a/></r>",
]


def projection(events):
    """Backend-independent view of an event sequence (end-tag lines excluded)."""
    shape = []
    for event in events:
        if isinstance(event, StartElement):
            shape.append(
                ("start", event.position, event.name, event.level, event.attributes, event.line)
            )
        elif isinstance(event, EndElement):
            shape.append(("end", event.position, event.name, event.level))
        elif isinstance(event, Characters):
            shape.append(("text", event.position, event.text, event.level))
        elif isinstance(event, Comment):
            shape.append(("comment", event.position, event.text, event.level))
        elif isinstance(event, ProcessingInstruction):
            shape.append(("pi", event.position, event.target, event.data, event.level))
        elif isinstance(event, StartDocument):
            shape.append(("start-document", event.position))
        elif isinstance(event, EndDocument):
            shape.append(("end-document", event.position))
    return shape


class TestCorpusConformance:
    def test_identical_event_sequences_on_corpus(self):
        for document in CORPUS:
            pure = projection(iter_events(document, parser="pure"))
            expat = projection(iter_events(document, parser="expat"))
            assert pure == expat, f"event streams diverge for {document!r}"

    def test_identical_event_sequences_chunked(self):
        for document in CORPUS:
            for chunk_size in (1, 3, 7):
                pure = projection(
                    iter_events(document, parser="pure", chunk_size=chunk_size)
                )
                expat = projection(
                    iter_events(document, parser="expat", chunk_size=chunk_size)
                )
                assert pure == expat

    def test_identical_solutions_on_corpus(self):
        """The fused scans agree too: values and NodeRef.line, element and text."""
        for document in CORPUS:
            for query in ("//*", "//*/text()"):
                pure = TwigMEvaluator(query).evaluate(document, parser="pure")
                expat = TwigMEvaluator(query).evaluate(document, parser="expat")
                assert pure.solutions == expat.solutions, (document, query)

    def test_pure_alias_matches_native(self):
        for document in CORPUS:
            native = projection(iter_events(document, parser="native"))
            pure = projection(iter_events(document, parser="pure"))
            assert native == pure


class TestRandomDocumentConformance:
    @SETTINGS
    @given(doc_seed=st.integers(min_value=0, max_value=10_000))
    def test_event_streams_identical(self, doc_seed):
        document = generated_document(doc_seed)
        pure = projection(iter_events(document, parser="pure"))
        expat = projection(iter_events(document, parser="expat"))
        assert pure == expat

    @SETTINGS
    @given(
        doc_seed=st.integers(min_value=0, max_value=10_000),
        query_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_result_sets_identical_across_backends(self, doc_seed, query_seed):
        document = generated_document(doc_seed)
        query = QueryGenerator(config=_QUERY_CONFIG, seed=query_seed).generate_expression()
        pure = TwigMEvaluator(query).evaluate(document, parser="pure")
        expat = TwigMEvaluator(query).evaluate(document, parser="expat")
        # Solution equality covers NodeRef.line.
        assert pure.solutions == expat.solutions

    @SETTINGS
    @given(
        doc_seed=st.integers(min_value=0, max_value=10_000),
        query_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_fused_paths_match_push_api(self, doc_seed, query_seed):
        """evaluate() (fused) must agree with event-at-a-time feed()."""
        document = generated_document(doc_seed)
        query = QueryGenerator(config=_QUERY_CONFIG, seed=query_seed).generate_expression()

        fused = TwigMEvaluator(query).evaluate(document, parser="pure")
        fused_expat = TwigMEvaluator(query).evaluate(document, parser="expat")

        pushed = TwigMEvaluator(query)
        for event in iter_events(document, parser="pure"):
            pushed.feed(event)
        push_results = pushed.finish()

        assert fused.solutions == push_results.solutions
        assert fused_expat.solutions == push_results.solutions

    @SETTINGS
    @given(
        doc_seed=st.integers(min_value=0, max_value=10_000),
        query_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_statistics_identical_across_paths(self, doc_seed, query_seed):
        """The fused fast paths maintain the same counters as the event path."""
        document = generated_document(doc_seed)
        query = QueryGenerator(config=_QUERY_CONFIG, seed=query_seed).generate_expression()

        fused = TwigMEvaluator(query)
        fused.evaluate(document, parser="pure")

        pushed = TwigMEvaluator(query)
        for event in iter_events(document, parser="pure"):
            pushed.feed(event)
        pushed.finish()

        assert fused.statistics.as_dict() == pushed.statistics.as_dict()
