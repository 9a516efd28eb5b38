"""Cross-backend result-set identity over a dataset × query corpus.

Acceptance property of the pluggable-backend refactor: for every dataset ×
query pair below, the pure tokenizer and the expat backend — each through
its fused fast path and through the event pipeline — return byte-identical
solution sets.

The same corpus backs the differential checks after it: every other way of
running a query (the DOM oracle, the naive enumeration baseline, chunked
streaming, eager emission, statistics off, one shared multi-query pass)
must return the solution set of the fused fast path.
"""

from __future__ import annotations

import io

import pytest

from repro.baselines.dom_eval import evaluate_with_dom
from repro.baselines.naive import NaiveStreamingEvaluator
from repro.core.engine import TwigMEvaluator
from repro.core.multi import MultiQueryEvaluator
from repro.datasets.auction import AuctionConfig, AuctionGenerator
from repro.datasets.newsfeed import NewsFeedConfig, NewsFeedGenerator
from repro.datasets.protein import ProteinConfig, ProteinDatabaseGenerator
from repro.datasets.recursive import RecursiveBookGenerator, RecursiveConfig
from repro.datasets.treebank import TreebankConfig, TreebankGenerator
from repro.xmlstream.sax import iter_events

SCALE = 0.1  # small but structurally representative documents


def _protein(scale):
    return ProteinDatabaseGenerator(ProteinConfig(entries=max(1, int(400 * scale))), seed=11)


def _recursive(scale):
    depth = max(2, int(4 * scale))
    return RecursiveBookGenerator(
        RecursiveConfig(
            section_depth=depth,
            table_depth=depth,
            section_groups=max(1, int(4 * scale)),
            cells_per_table=2,
            author_probability=0.6,
            position_probability=0.6,
        ),
        seed=12,
    )


def _auction(scale):
    return AuctionGenerator(
        AuctionConfig(
            items=max(1, int(150 * scale)),
            people=max(1, int(80 * scale)),
            open_auctions=max(1, int(100 * scale)),
        ),
        seed=13,
    )


def _newsfeed(scale):
    return NewsFeedGenerator(NewsFeedConfig(updates=max(10, int(1500 * scale))), seed=14)


def _treebank(scale):
    return TreebankGenerator(TreebankConfig(sentences=max(5, int(150 * scale)), max_depth=14), seed=15)


#: name -> (seeded dataset factory, queries run over it)
CORPUS = {
    "protein": (
        _protein,
        (
            "//ProteinEntry[reference]/@id",
            "//ProteinEntry/header/accession",
            "//ProteinEntry[organism/source='Homo sapiens']/@id",
            "//reference//year",
            "//ProteinEntry[feature and keyword]/protein",
        ),
    ),
    "recursive": (
        _recursive,
        (
            "//section[author]//table[position]//cell",
            "//section//table//cell",
            "//section//section//cell",
            "//table[position]//cell",
            "/book//section[author]//cell",
        ),
    ),
    "auction": (
        _auction,
        (
            "//item[price>250]/name",
            "//open_auction[bidder]/current",
            "//person[address/country='Germany']/name",
            "//listitem//listitem/text",
            "//item[mailbox/mail]/@id",
        ),
    ),
    "newsfeed": (
        _newsfeed,
        (
            "//update[quote/@symbol='ACME']",
            "//update/quote[price>400]/@symbol",
            "//headline[@section='markets']/title",
        ),
    ),
    "treebank": (
        _treebank,
        (
            "//S//NP//NN",
            "//NP[PP]//NN/text()",
            "//VP//VP//VB",
            "//S[VP/VB]//NP[not(PP)]/NN",
            "//sentence//PP//NNP",
        ),
    ),
}


def workload_cases():
    for name, (_, queries) in CORPUS.items():
        for query in queries:
            yield pytest.param(name, query, id=f"{name}:{query}")


@pytest.fixture(scope="module")
def documents():
    return {name: factory(SCALE).text() for name, (factory, _) in CORPUS.items()}


@pytest.mark.parametrize("workload_name,query", list(workload_cases()))
def test_backends_produce_identical_result_sets(documents, workload_name, query):
    document = documents[workload_name]
    pure = TwigMEvaluator(query).evaluate(document, parser="pure")
    expat = TwigMEvaluator(query).evaluate(document, parser="expat")
    assert pure.keys() == expat.keys()

    # The event pipeline (push API) must agree with both fused paths.
    pushed = TwigMEvaluator(query)
    for event in iter_events(document, parser="pure"):
        pushed.feed(event)
    assert pushed.finish().keys() == pure.keys()


def test_corpus_queries_find_answers(documents):
    # A corpus whose queries return nothing would compare empty sets and
    # never exercise candidate bookkeeping.
    empty = [
        (name, query)
        for name, (_, queries) in CORPUS.items()
        for query in queries
        if not TwigMEvaluator(query).evaluate(documents[name])
    ]
    assert not empty


@pytest.fixture(scope="module")
def fused_keys(documents):
    """Each case's solution keys from the default fused fast path."""
    return {
        (name, query): TwigMEvaluator(query).evaluate(documents[name]).keys()
        for name, (_, queries) in CORPUS.items()
        for query in queries
    }


PARSERS = ("pure", "expat")


@pytest.mark.parametrize("workload_name,query", list(workload_cases()))
def test_results_match_dom_oracle(documents, fused_keys, workload_name, query):
    oracle = evaluate_with_dom(query, documents[workload_name]).keys()
    assert fused_keys[workload_name, query] == oracle


@pytest.mark.parametrize("workload_name,query", list(workload_cases()))
def test_naive_enumeration_agrees(documents, fused_keys, workload_name, query):
    naive = NaiveStreamingEvaluator(query).evaluate(documents[workload_name])
    assert naive.keys() == fused_keys[workload_name, query]


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("workload_name,query", list(workload_cases()))
def test_chunked_stream_matches_fused_path(documents, fused_keys, workload_name, query, parser):
    # A prime chunk size puts chunk boundaries inside tags, attribute
    # values and character data all through the document.
    streamed = TwigMEvaluator(query).evaluate(
        io.StringIO(documents[workload_name]), parser=parser, chunk_size=1021
    )
    assert streamed.keys() == fused_keys[workload_name, query]


@pytest.mark.parametrize("workload_name,query", list(workload_cases()))
def test_eager_emission_keeps_answers_and_sheds_candidates(documents, fused_keys, workload_name, query):
    document = documents[workload_name]
    lazy = TwigMEvaluator(query)
    lazy.evaluate(iter([document]))
    eager = TwigMEvaluator(query, eager_emission=True)
    assert eager.evaluate(iter([document])).keys() == fused_keys[workload_name, query]
    if "[" in query:
        assert eager.statistics.peak_candidate_count <= lazy.statistics.peak_candidate_count
    else:
        # No step waits on a predicate, so every match is emitted as soon
        # as its output node is seen and no candidate is ever held.
        assert eager.statistics.peak_candidate_count == 0


@pytest.mark.parametrize("workload_name,query", list(workload_cases()))
def test_statistics_off_keeps_answers(documents, fused_keys, workload_name, query):
    quiet = TwigMEvaluator(query, collect_statistics=False)
    assert quiet.evaluate(documents[workload_name]).keys() == fused_keys[workload_name, query]


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("workload_name", sorted(CORPUS))
def test_shared_pass_matches_single_query_runs(documents, fused_keys, workload_name, parser):
    queries = CORPUS[workload_name][1]
    with MultiQueryEvaluator() as evaluator:
        for query in queries:
            evaluator.subscribe(query, name=query)
        results = evaluator.evaluate(documents[workload_name], parser=parser)
    assert {query: results[query].keys() for query in queries} == {
        query: fused_keys[workload_name, query] for query in queries
    }
