"""Integration tests for streaming-specific behaviour.

These cover the three requirements the paper's motivation section lists for
streaming environments: single sequential scan, incremental result
production, and scalable memory.
"""

from __future__ import annotations

import tracemalloc

from repro.core.engine import TwigMEvaluator, stream_evaluate
from repro.datasets.newsfeed import NewsFeedConfig, NewsFeedGenerator
from repro.datasets.protein import ProteinConfig, ProteinDatabaseGenerator
from repro.xmlstream.events import EndDocument, StartElement
from repro.xmlstream.tokenizer import tokenize


class TestSingleSequentialScan:
    def test_engine_consumes_each_event_exactly_once(self, simple_doc):
        """The evaluator works from a generator that cannot be rewound."""

        consumed = []

        def one_shot_events():
            for event in tokenize(simple_doc):
                consumed.append(event.position)
                yield event

        evaluator = TwigMEvaluator("//book[author]/@id")
        for event in one_shot_events():
            evaluator.feed(event)
        result = evaluator.finish()
        assert sorted(s.value for s in result) == ["b1", "b2"]
        assert consumed == sorted(consumed)
        assert len(consumed) == len(set(consumed))

    def test_results_identical_to_buffered_run(self, simple_doc):
        streamed = sorted(s.value for s in stream_evaluate("//book/@id", simple_doc))
        evaluator = TwigMEvaluator("//book/@id")
        buffered = sorted(s.value for s in evaluator.evaluate(simple_doc))
        assert streamed == buffered


class TestIncrementalResults:
    def test_first_solution_emitted_early_in_the_stream(self):
        generator = NewsFeedGenerator(NewsFeedConfig(updates=500, first_match_at=3), seed=9)
        document = generator.text()
        events = list(tokenize(document))
        evaluator = TwigMEvaluator(generator.CANONICAL_QUERY)
        first_emission_index = None
        for index, event in enumerate(events):
            if evaluator.feed(event) and first_emission_index is None:
                first_emission_index = index
        assert first_emission_index is not None
        # The first matching update sits near the start of a 500-update feed,
        # so its solution must be known within the first few percent of events.
        assert first_emission_index < len(events) * 0.05

    def test_solution_count_matches_plan(self):
        generator = NewsFeedGenerator(NewsFeedConfig(updates=300), seed=10)
        count = sum(1 for _ in stream_evaluate(generator.CANONICAL_QUERY, generator.chunks()))
        assert count == generator.expected_symbol_updates("ACME")

    def test_solutions_spread_across_the_stream(self):
        # Matches sit all along the feed, so emission must follow them
        # rather than bunch up at the end of the document.
        generator = NewsFeedGenerator(NewsFeedConfig(updates=500), seed=14)
        events = list(tokenize(generator.text()))
        evaluator = TwigMEvaluator(generator.CANONICAL_QUERY)
        emitted_at = []
        for index, event in enumerate(events):
            emitted_at.extend(index for _ in evaluator.feed(event))
        evaluator.finish()
        assert len(emitted_at) == generator.expected_symbol_updates("ACME")
        assert emitted_at[len(emitted_at) // 2] < len(events) * 0.85

    def test_emission_order_is_stream_order_for_independent_matches(self):
        document = "<r>" + "".join(f"<x n='{i}'/>" for i in range(20)) + "</r>"
        values = [s.value for s in stream_evaluate("//x/@n", document)]
        assert values == [str(i) for i in range(20)]


class TestBoundedState:
    def test_live_state_does_not_grow_with_stream_length(self):
        query = "//ProteinEntry[reference]/@id"
        small = ProteinDatabaseGenerator(ProteinConfig(entries=40), seed=6)
        large = ProteinDatabaseGenerator(ProteinConfig(entries=400), seed=6)

        def peak_state(generator):
            evaluator = TwigMEvaluator(query)
            evaluator.evaluate(generator.chunks())
            return evaluator.statistics.peak_stack_entries

        assert peak_state(large) <= peak_state(small) + 2

    def test_peak_allocation_does_not_scale_with_document_size(self):
        # The paper's "stable at 1 MB" (Feature 3), adapted: streaming an 8x
        # larger document from chunks keeps the traced allocation peak in
        # single-digit MB and far from 8x.
        def peak_allocation_mb(target_bytes):
            generator = ProteinDatabaseGenerator(ProteinConfig(target_bytes=target_bytes), seed=11)
            tracemalloc.start()
            try:
                evaluator = TwigMEvaluator("//ProteinEntry[reference]/@id")
                evaluator.evaluate(generator.chunks())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak / (1024 * 1024), evaluator.statistics.elements

        small, small_elements = peak_allocation_mb(50 * 1024)
        large, large_elements = peak_allocation_mb(400 * 1024)
        assert large_elements > 4 * small_elements
        assert large < 8.0
        assert large < small * 3 + 1.0

    def test_peak_candidates_track_pending_predicates_not_document_size(self):
        # All references sit inside the entry, so candidates never pile up
        # beyond one entry's worth regardless of entry count.
        query = "//ProteinEntry[reference]/@id"
        generator = ProteinDatabaseGenerator(ProteinConfig(entries=200), seed=6)
        evaluator = TwigMEvaluator(query)
        evaluator.evaluate(generator.chunks())
        assert evaluator.statistics.peak_candidate_count <= 4

    def test_stack_depth_tracks_document_depth(self):
        def nested(depth):
            return "".join(f"<d{i}>" for i in range(depth)) + "<x/>" + "".join(
                f"</d{i}>" for i in reversed(range(depth))
            )

        evaluator = TwigMEvaluator("//x")
        evaluator.evaluate(nested(30))
        shallow_peak = evaluator.statistics.peak_stack_entries
        evaluator2 = TwigMEvaluator("//x")
        evaluator2.evaluate(nested(31))
        assert evaluator2.statistics.peak_stack_entries <= shallow_peak + 1


class TestEventStreamEdgeCases:
    def test_document_with_only_root(self):
        evaluator = TwigMEvaluator("//a")
        result = evaluator.evaluate("<a/>")
        assert len(result) == 1

    def test_end_document_event_finalises(self, simple_doc):
        evaluator = TwigMEvaluator("//book")
        for event in tokenize(simple_doc):
            evaluator.feed(event)
            if isinstance(event, EndDocument):
                break
        result = evaluator.finish()
        assert len(result) == 2

    def test_events_without_document_markers(self):
        # Hand-built event lists (no StartDocument/EndDocument) also work.
        events = [event for event in tokenize("<a><b/></a>") if isinstance(event, StartElement) or event.__class__.__name__ == "EndElement"]
        evaluator = TwigMEvaluator("//b")
        for event in events:
            evaluator.feed(event)
        assert len(evaluator.finish()) == 1
