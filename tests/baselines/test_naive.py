"""Unit tests for the naive enumerating streaming evaluator."""

from __future__ import annotations

import pytest

from repro.baselines.naive import NaiveStreamingEvaluator, evaluate_naive
from repro.core.engine import evaluate
from repro.core.engine import TwigMEvaluator
from repro.datasets.recursive import (
    RecursiveBookGenerator,
    RecursiveConfig,
    small_recursive_document,
)
from repro.errors import StreamStateError
from repro.xmlstream.tokenizer import tokenize
from repro.xpath.generator import linear_descendant_query


class TestCorrectness:
    @pytest.mark.parametrize(
        "query",
        [
            "//book",
            "//book/@id",
            "//book[author]/title",
            "//book[@year]/price/text()",
            "//book[price>20]/@id",
            "//*[title]",
            "/library/journal/title",
        ],
    )
    def test_agrees_with_twigm_on_simple_doc(self, query, simple_doc):
        assert evaluate_naive(query, simple_doc).keys() == evaluate(query, simple_doc).keys()

    @pytest.mark.parametrize(
        "query",
        ["//a//b", "//a/b", "//a//a//b", "//a[b]//c", "//a[@key]//b", "//a[.//c]//b"],
    )
    def test_agrees_with_twigm_on_recursive_doc(self, query, recursive_doc):
        assert evaluate_naive(query, recursive_doc).keys() == evaluate(query, recursive_doc).keys()

    def test_incremental_stream_api(self, simple_doc):
        values = [s.value for s in NaiveStreamingEvaluator("//book/@id").stream(simple_doc)]
        assert sorted(values) == ["b1", "b2"]

    def test_feed_api(self, simple_doc):
        evaluator = NaiveStreamingEvaluator("//book")
        for event in tokenize(simple_doc):
            evaluator.feed(event)
        assert len(evaluator.finish()) == 2

    def test_feed_after_finish_rejected(self, simple_doc):
        evaluator = NaiveStreamingEvaluator("//book")
        evaluator.evaluate(simple_doc)
        evaluator.finish()
        with pytest.raises(StreamStateError):
            evaluator.feed(list(tokenize("<x/>"))[1])


class TestEnumerationCost:
    def test_match_records_grow_exponentially_with_query_size(self):
        document = small_recursive_document(section_depth=8, table_depth=1)
        record_counts = []
        for steps in (1, 2, 3, 4):
            naive = NaiveStreamingEvaluator(linear_descendant_query("section", steps))
            naive.evaluate(document)
            record_counts.append(naive.statistics.records_created)
        # Strictly growing, and growing faster than linearly: the increase
        # between consecutive sizes must itself increase (binomial growth).
        assert record_counts == sorted(record_counts)
        deltas = [b - a for a, b in zip(record_counts, record_counts[1:])]
        assert deltas[1] > deltas[0]
        assert deltas[2] > deltas[1]

    def test_twigm_work_grows_much_slower(self):
        document = small_recursive_document(section_depth=8, table_depth=1)
        steps = 4
        query = linear_descendant_query("section", steps)
        naive = NaiveStreamingEvaluator(query)
        naive.evaluate(document)
        twigm = TwigMEvaluator(query)
        twigm.evaluate(document)
        assert naive.statistics.records_created > 2 * twigm.statistics.pushes

    def test_twigm_work_stays_polynomial_in_query_size(self):
        """E3: ``//section[author]`` x k over sections nested 10 deep.

        The naive record count accelerates with every added step while
        TwigM's work stays within k times its single-step work.
        """
        document = RecursiveBookGenerator(
            RecursiveConfig(
                section_depth=10,
                table_depth=4,
                section_groups=2,
                cells_per_table=2,
                author_probability=1.0,
                position_probability=1.0,
                noise_per_section=0,
            ),
            seed=21,
        ).text()
        naive_records, twigm_work = [], []
        for steps in range(1, 6):
            query = linear_descendant_query("section", steps, predicate_tag="author")
            naive = NaiveStreamingEvaluator(query)
            naive_keys = naive.evaluate(document).keys()
            twigm = TwigMEvaluator(query)
            assert twigm.evaluate(document).keys() == naive_keys
            naive_records.append(naive.statistics.records_created)
            twigm_work.append(twigm.statistics.work_units())
        deltas = [b - a for a, b in zip(naive_records, naive_records[1:])]
        assert all(later >= earlier for earlier, later in zip(deltas, deltas[1:]))
        assert naive_records[-1] > 3 * twigm_work[-1]
        assert twigm_work[-1] <= twigm_work[0] * 5 * 4

    def test_statistics_dictionary(self, simple_doc):
        naive = NaiveStreamingEvaluator("//book[author]/@id")
        naive.evaluate(simple_doc)
        data = naive.statistics.as_dict()
        assert data["records_created"] > 0
        assert data["solutions_distinct"] == 2
        assert naive.statistics.work_units() > 0

    def test_live_records_drop_to_zero(self, simple_doc):
        naive = NaiveStreamingEvaluator("//book[author]//title")
        naive.evaluate(simple_doc)
        assert naive.statistics.live_records == 0
        assert naive.statistics.peak_live_records > 0


class TestPaperScenario:
    def test_predicate_arriving_late_still_filters(self):
        document = "<a><b><c>target</c></b><flag/></a>"
        assert len(evaluate_naive("//a[flag]//c", document)) == 1
        assert len(evaluate_naive("//a[missing]//c", document)) == 0

    def test_duplicate_solutions_deduplicated(self, recursive_doc):
        keys = evaluate_naive("//a//b", recursive_doc).keys()
        assert len(keys) == len(set(keys))
