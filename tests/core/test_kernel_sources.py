"""Every source × every subscription shape answers to the DOM oracle.

The TwigM transition functions (``core/transitions.py``) are driven, through
the one kernel (``core/kernel.py``), from seven sources — an event list, the
pure one-shot scan, a pure push session fed at random chunk boundaries, a
pure file read through the event pipeline, expat one-shot, expat fed in byte
chunks, and binary event frames — and consumed by three subscription shapes:
the single-query facade ``repro.evaluate``, an :class:`~repro.Engine` with
one subscription, and one engine holding every query (containment families
included).  Each combination, with statistics collection on and off, must
give the per-query result sets of :func:`~repro.baselines.evaluate_with_dom`
— ``NodeRef.line`` included — on generated queries over generated documents
sprinkled with comments, CDATA, processing instructions and start tags that
span lines.  The many-query engine also pins the delivery contract: each
subscription's pushed sequence is the same from all seven sources and holds
every ``results()`` solution exactly once.  Statistics are pinned too: per
subscription, equal within the event-record sources and within the fused
ones; for the single-query facade, equal across every source.
"""

from __future__ import annotations

import io
import random
import re

import pytest

import repro
from repro import Engine, EngineConfig
from repro.baselines import evaluate_with_dom
from repro.core import engine as engine_module
from repro.core.engine import TwigMEvaluator
from repro.core.results import Solution
from repro.datasets.randomtree import RandomTreeConfig, RandomTreeGenerator
from repro.xmlstream.eventcodec import EventFrameDecoder, EventFrameEncoder
from repro.xmlstream.tokenizer import tokenize
from repro.xpath.generator import QueryGenerator, QueryGeneratorConfig

DOC_CONFIG = RandomTreeConfig(
    vocabulary=("a", "b", "c"),
    attributes=("id", "key"),
    values=("1", "2", "x<y"),
    max_depth=6,
    max_children=4,
    attribute_probability=0.4,
    text_probability=0.4,
    branch_probability=1.0,
)
QUERY_CONFIG = QueryGeneratorConfig(
    vocabulary=("a", "b", "c"),
    attributes=("id", "key"),
    values=("1", "2"),
    min_steps=1,
    max_steps=3,
)

#: Generated queries plus the shapes generation rarely hits: text output,
#: value tests on text, and linear predicate-free paths (the only queries
#: containment sharing folds into families).
QUERIES = [
    QueryGenerator(config=QUERY_CONFIG, seed=seed).generate_expression()
    for seed in range(14)
] + ["//b/text()", "//c[.='x<y']", "//a//c", "/a/b", "//b/c", "//c"]

#: Markup dropped right after a start tag: inside the root, so CDATA is legal.
_INSERTS = ("", "", "\n", "<!-- c\n -->", "<?pi d?>", "<![CDATA[x<y]]>")
_SEPARATORS = (" ", "\n", " \n\t")
_START_TAG = re.compile(r'<(\w+)((?: \w+="[^"]*")*)>(</\1>)?')
_ATTRIBUTE = re.compile(r'\w+="[^"]*"')


def _document(seed: int) -> str:
    rng = random.Random(seed)

    def rewrite(match) -> str:
        name, attributes, end_tag = match.groups()
        tag = [f"<{name}"]
        for attribute in _ATTRIBUTE.findall(attributes):
            tag.append(rng.choice(_SEPARATORS) + attribute)
        tag.append(rng.choice(("", "\n")))
        if end_tag:
            return "".join(tag) + "/>"
        return "".join(tag) + ">" + rng.choice(_INSERTS)

    body = RandomTreeGenerator(config=DOC_CONFIG, seed=seed).text()
    declaration, _, root = body.partition("\n")
    return f"{declaration}\n<!-- head -->\n{_START_TAG.sub(rewrite, root)}\n<?tail x?>\n"


#: Twelve documents of more than a handful of elements (a generated root
#: may draw no children).
DOCUMENTS = [doc for doc in map(_document, range(40)) if doc.count("<") > 12][:12]


def _cuts(text, seed: int):
    """``text`` cut at a few random offsets (str or bytes alike)."""
    rng = random.Random(seed)
    offsets = sorted(rng.sample(range(1, len(text)), min(6, len(text) - 1)))
    return [text[a:b] for a, b in zip([0] + offsets, offsets + [len(text)])]


def _frames(document: str, seed: int):
    """The document's events as binary frames from one encoder."""
    events = list(tokenize(document))
    encoder = EventFrameEncoder()
    return [encoder.encode(run) for run in _cuts(events, seed)]


# ----------------------------------------------------------------- sources
#
# Each source feeds one document two ways: to the single-query facade (a
# ``repro.evaluate`` call) and to an Engine (filling ``engine.results()``).


def _facade(query, source, stats, **options):
    return repro.evaluate(query, source, collect_statistics=stats, **options)


def _frame_events(document, seed):
    decoder = EventFrameDecoder()
    return [event for frame in _frames(document, seed) for event in decoder.decode(frame)]


FACADE = {
    "events": lambda q, doc, seed, stats: _facade(q, list(tokenize(doc)), stats),
    "pure-oneshot": lambda q, doc, seed, stats: _facade(q, doc, stats, parser="pure"),
    "pure-chunked": lambda q, doc, seed, stats: _facade(
        q, iter(_cuts(doc, seed)), stats, parser="pure"
    ),
    "pure-file": lambda q, doc, seed, stats: _facade(
        q, io.StringIO(doc), stats, parser="pure"
    ),
    "expat-oneshot": lambda q, doc, seed, stats: _facade(q, doc, stats, parser="expat"),
    "expat-chunked": lambda q, doc, seed, stats: _facade(
        q, io.BytesIO(doc.encode()), stats, parser="expat", chunk_size=7
    ),
    "frames": lambda q, doc, seed, stats: _facade(q, _frame_events(doc, seed), stats),
}


def _session(engine, parser, chunks, feed):
    session = engine.open(parser=parser)
    for chunk in chunks:
        getattr(session, feed)(chunk)
    session.finish()


def _frame_session(engine, document, seed):
    session = engine.core.event_session()
    for frame in _frames(document, seed):
        session.feed_frame(frame)
    session.finish()


ENGINE = {
    "events": lambda e, doc, seed: e.evaluate(list(tokenize(doc))),
    "pure-oneshot": lambda e, doc, seed: e.evaluate(doc, parser="pure"),
    "pure-chunked": lambda e, doc, seed: _session(
        e, "pure", _cuts(doc, seed), "feed_text"
    ),
    "pure-file": lambda e, doc, seed: e.evaluate(io.StringIO(doc), parser="pure"),
    "expat-oneshot": lambda e, doc, seed: e.evaluate(doc, parser="expat"),
    "expat-chunked": lambda e, doc, seed: _session(
        e, "expat", _cuts(doc.encode(), seed), "feed_bytes"
    ),
    "frames": _frame_session,
}

SOURCES = sorted(FACADE)
SHAPES = ["facade", "one-subscription", "many"]


@pytest.fixture(scope="module")
def oracle():
    return {
        (index, query): evaluate_with_dom(query, document).solutions
        for index, document in enumerate(DOCUMENTS)
        for query in QUERIES
    }


def _many(source, stats, index, document):
    """Every query on one engine: (results, pushed sequence) per query."""
    pushed = {query: [] for query in QUERIES}
    with Engine(EngineConfig(collect_statistics=stats)) as engine:
        for number, query in enumerate(QUERIES):
            engine.subscribe(
                query,
                callback=lambda match, seen=pushed[query]: seen.append(match.solution),
                name=f"q{number}",
            )
        ENGINE[source](engine, document, index)
        results = engine.results()
    return {query: results[f"q{n}"].solutions for n, query in enumerate(QUERIES)}, pushed


@pytest.fixture(scope="module")
def reference_pushes():
    """Each subscription's pushed sequence from the event-list source."""
    return [_many("events", True, index, doc)[1] for index, doc in enumerate(DOCUMENTS)]


def _answers(source, shape, stats, index, document):
    """Per-query solution lists for one document from one source × shape."""
    if shape == "facade":
        return {
            query: FACADE[source](query, document, index, stats).solutions
            for query in QUERIES
        }
    if shape == "one-subscription":
        answers = {}
        for query in QUERIES:
            with Engine(EngineConfig(collect_statistics=stats)) as engine:
                engine.subscribe(query, name="q")
                ENGINE[source](engine, document, index)
                answers[query] = engine.results()["q"].solutions
        return answers
    return _many(source, stats, index, document)[0]


@pytest.mark.parametrize("stats", [True, False], ids=["stats", "nostats"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("source", SOURCES)
def test_source_and_shape_agree_with_the_oracle(oracle, source, shape, stats):
    for index, document in enumerate(DOCUMENTS):
        answers = _answers(source, shape, stats, index, document)
        for query in QUERIES:
            assert answers[query] == oracle[(index, query)], (
                f"{source} × {shape}: {query!r} on document {index}"
            )


@pytest.mark.parametrize("source", SOURCES)
def test_each_subscription_gets_one_sequence_from_every_source(
    reference_pushes, source
):
    for index, document in enumerate(DOCUMENTS):
        results, pushed = _many(source, False, index, document)
        assert pushed == reference_pushes[index], f"{source} on document {index}"
        for query in QUERIES:
            # Exactly once: the pushed sequence is a permutation of results().
            assert sorted(pushed[query], key=Solution.order_key) == results[query], (
                f"{source}: {query!r} on document {index}"
            )


#: Sources whose per-subscription statistics agree.  The event-record
#: sources count every record a machine is dispatched in its ``events``
#: counter; the fused scans count none and see text as coalesced runs.
STATISTICS_CLASSES = [
    ("events", "pure-chunked", "frames", "pure-file"),
    ("pure-oneshot", "expat-oneshot", "expat-chunked"),
]


def _statistics(source, index, document):
    with Engine() as engine:
        for number, query in enumerate(QUERIES):
            engine.subscribe(query, name=f"q{number}")
        ENGINE[source](engine, document, index)
        return engine.statistics()


@pytest.mark.parametrize("sources", STATISTICS_CLASSES, ids=["records", "fused"])
def test_subscription_statistics_agree_within_a_source_class(sources):
    for index, document in enumerate(DOCUMENTS):
        expected = _statistics(sources[0], index, document)
        for source in sources[1:]:
            assert _statistics(source, index, document) == expected, (
                f"{source} on document {index}"
            )


@pytest.mark.parametrize("query", QUERIES)
def test_single_query_statistics_agree_across_backends(query):
    for index, document in enumerate(DOCUMENTS):
        staged = TwigMEvaluator(query)
        staged.evaluate(list(tokenize(document)))
        expected = staged.statistics.as_dict()
        for parser in ("pure", "expat"):
            evaluator = TwigMEvaluator(query)
            evaluator.evaluate(document, parser=parser)
            assert evaluator.statistics.as_dict() == expected, parser
        chunked = TwigMEvaluator(query)
        chunked.evaluate(iter(_cuts(document, index)), parser="pure")
        assert chunked.statistics.as_dict() == expected, "pure chunks"
        fed = TwigMEvaluator(query)
        for event in tokenize(document):
            fed.feed(event)
        fed.finish()
        assert fed.statistics.as_dict() == expected, "feed"


def test_the_one_entry_scan_keeps_no_delivery_batches(monkeypatch):
    """The single-query scan's collector holds every solution; nothing else
    may (a buffered batch per emission cost peak RSS on match-dense runs)."""
    sinks = []
    scan = engine_module.fused_pure_multi_evaluate

    def spy(index, document, deliveries):
        sinks.append(deliveries)
        return scan(index, document, deliveries)

    monkeypatch.setattr(engine_module, "fused_pure_multi_evaluate", spy)
    document = "<r>" + "<e><e/><e>t</e></e>" * 2000 + "</r>"
    result = TwigMEvaluator("//e").evaluate(document, parser="pure")
    assert len(result) == 6000
    assert len(sinks) == 1
    assert len(sinks[0]) == 0
