"""Unit and behavioural tests for the TwigM evaluation engine."""

from __future__ import annotations

import pytest

from repro.core.engine import TwigMEvaluator, evaluate, stream_evaluate
from repro.core.results import SolutionKind
from repro.errors import StreamStateError
from repro.xmlstream.sax import iter_events
from repro.xmlstream.tokenizer import tokenize


class TestBasicQueries:
    def test_single_element_query(self, simple_doc):
        result = evaluate("//book", simple_doc)
        assert len(result) == 2
        assert all(s.kind is SolutionKind.ELEMENT for s in result)

    def test_child_path(self, simple_doc):
        assert len(evaluate("/library/book/title", simple_doc)) == 2

    def test_absolute_root_mismatch_returns_nothing(self, simple_doc):
        assert len(evaluate("/book", simple_doc)) == 0

    def test_descendant_axis(self, simple_doc):
        assert len(evaluate("//title", simple_doc)) == 3

    def test_wildcard(self, simple_doc):
        # //* selects every element, including the document element.
        assert len(evaluate("//*", simple_doc)) == 12
        assert len(evaluate("/library/*", simple_doc)) == 3

    def test_attribute_output(self, simple_doc):
        result = evaluate("//book/@id", simple_doc)
        assert sorted(s.value for s in result) == ["b1", "b2"]
        assert all(s.kind is SolutionKind.ATTRIBUTE for s in result)

    def test_attribute_wildcard_output(self, simple_doc):
        values = sorted(s.value for s in evaluate("//book/@*", simple_doc))
        assert values == ["1999", "b1", "b2"]

    def test_text_output(self, simple_doc):
        values = evaluate("//book/title/text()", simple_doc).values()
        assert values == ["Streams", "Trees"]

    def test_no_matches(self, simple_doc):
        assert len(evaluate("//nonexistent", simple_doc)) == 0


class TestPredicates:
    def test_existence_predicate(self, simple_doc):
        result = evaluate("//book[author]/@id", simple_doc)
        assert sorted(result.values()) == ["b1", "b2"]

    def test_attribute_existence_predicate(self, simple_doc):
        result = evaluate("//book[@year]/@id", simple_doc)
        assert result.values() == ["b1"]

    def test_attribute_value_predicate(self, simple_doc):
        assert evaluate("//book[@id='b2']/title/text()", simple_doc).values() == ["Trees"]

    def test_string_value_predicate(self, simple_doc):
        assert evaluate("//book[author='Grace']/@id", simple_doc).values() == ["b2"]

    def test_numeric_comparison_predicate(self, simple_doc):
        assert evaluate("//book[price>20]/@id", simple_doc).values() == ["b1"]
        assert evaluate("//book[price<=12]/@id", simple_doc).values() == ["b2"]

    def test_and_predicate(self, simple_doc):
        assert evaluate("//book[author='Ada' and price>20]/@id", simple_doc).values() == ["b1"]
        assert evaluate("//book[author='Ada' and price<20]/@id", simple_doc).values() == []

    def test_or_predicate(self, simple_doc):
        values = evaluate("//book[author='Ada' or author='Linus']/@id", simple_doc).values()
        assert values == ["b1", "b2"]

    def test_not_predicate(self, simple_doc):
        assert evaluate("//book[not(@year)]/@id", simple_doc).values() == ["b2"]

    def test_nested_predicate_path(self, simple_doc):
        assert len(evaluate("//library[book/author]", simple_doc)) == 1
        assert len(evaluate("//library[book/editor]", simple_doc)) == 0

    def test_self_value_predicate(self, simple_doc):
        assert evaluate("//author[.='Ada']", simple_doc).elements()[0].tag == "author"

    def test_predicate_satisfied_after_candidate_seen(self):
        # The predicate element (flag) arrives after the candidate output
        # element has already been seen and closed — the paper's motivating
        # scenario for recording pattern matches.
        document = "<a><b><c>target</c></b><flag/></a>"
        assert len(evaluate("//a[flag]//c", document)) == 1
        document_without = "<a><b><c>target</c></b></a>"
        assert len(evaluate("//a[flag]//c", document_without)) == 0


class TestRecursiveDocuments:
    def test_descendant_axis_on_recursive_data(self, recursive_doc):
        assert len(evaluate("//a//b", recursive_doc)) == 5
        assert len(evaluate("//a//a", recursive_doc)) == 5
        assert len(evaluate("//a/a/a", recursive_doc)) == 3

    def test_child_vs_descendant_distinction(self, recursive_doc):
        child = evaluate("//a/b", recursive_doc).keys()
        descendant = evaluate("//a//b", recursive_doc).keys()
        assert set(child) <= set(descendant)
        assert len(child) < len(descendant)

    def test_duplicate_solutions_not_reported(self, recursive_doc):
        # //a//b could match the same b through many different a ancestors.
        result = evaluate("//a//b", recursive_doc)
        keys = result.keys()
        assert len(keys) == len(set(keys))


class TestEngineLifecycle:
    def test_feed_api_matches_evaluate(self, simple_doc):
        evaluator = TwigMEvaluator("//book/@id")
        solutions = []
        for event in tokenize(simple_doc):
            solutions.extend(evaluator.feed(event))
        result = evaluator.finish()
        assert sorted(s.value for s in solutions) == ["b1", "b2"]
        assert len(result) == 2

    def test_feed_after_finish_rejected(self, simple_doc):
        evaluator = TwigMEvaluator("//book")
        evaluator.evaluate(simple_doc)
        with pytest.raises(StreamStateError):
            evaluator.feed(next(iter(tokenize("<x/>"))))

    def test_reset_allows_reuse(self, simple_doc):
        evaluator = TwigMEvaluator("//book")
        first = evaluator.evaluate(simple_doc)
        evaluator.reset()
        second = evaluator.evaluate(simple_doc)
        assert first.keys() == second.keys()

    def test_event_list_source(self, simple_doc):
        events = list(tokenize(simple_doc))
        assert len(evaluate("//book", events)) == 2

    def test_expat_backend(self, simple_doc):
        native = evaluate("//book[author]/@id", simple_doc, parser="native").keys()
        expat = evaluate("//book[author]/@id", simple_doc, parser="expat").keys()
        assert native == expat

    def test_stacks_empty_after_run(self, simple_doc):
        evaluator = TwigMEvaluator("//book[author]//title")
        evaluator.evaluate(simple_doc)
        assert evaluator.machine.stacks_empty()

    def test_finish_with_open_elements_rejected(self):
        evaluator = TwigMEvaluator("//a")
        events = list(tokenize("<a><b/></a>"))
        # Feed only the first two events (document start + <a>).
        evaluator.feed(events[0])
        evaluator.feed(events[1])
        with pytest.raises(StreamStateError):
            evaluator.finish()


class TestIncrementalStreaming:
    def test_solutions_stream_before_document_ends(self):
        document = "<feed>" + "".join(
            f"<item n='{i}'><v>{i}</v></item>" for i in range(10)
        ) + "</feed>"
        evaluator = TwigMEvaluator("//item/@n")
        seen = []
        events = list(tokenize(document))
        for index, event in enumerate(events):
            for solution in evaluator.feed(event):
                seen.append((index, solution.value))
        # The first solution must be known well before the last event.
        assert seen[0][0] < len(events) - 2
        assert [value for _, value in seen] == [str(i) for i in range(10)]

    def test_stream_evaluate_generator(self, simple_doc):
        values = [s.value for s in stream_evaluate("//book/@id", simple_doc)]
        assert sorted(values) == ["b1", "b2"]

    def test_stream_on_chunked_generator_source(self):
        def chunks():
            yield "<root>"
            for index in range(100):
                yield f"<row id='{index}'/>"
            yield "</root>"

        count = sum(1 for _ in stream_evaluate("//row/@id", chunks()))
        assert count == 100


class TestStatisticsTracking:
    def test_counters_populated(self, simple_doc):
        evaluator = TwigMEvaluator("//book[author]/title")
        evaluator.evaluate(simple_doc)
        stats = evaluator.statistics
        # The tags the machine is dispatched: two books, three authors and
        # three titles (library, price and journal are never dispatched).
        assert stats.elements == 8
        assert stats.pushes == stats.pops
        assert stats.pushes > 0
        assert stats.max_depth == 3
        assert stats.solutions_distinct == 2
        assert stats.peak_stack_entries >= 1
        assert stats.work_units() > 0

    def test_live_entries_return_to_zero(self, simple_doc):
        evaluator = TwigMEvaluator("//book[author]//title")
        evaluator.evaluate(simple_doc)
        assert evaluator.statistics.live_entries == 0
