"""Unit tests for the multi-query (indexed subscription) evaluator."""

from __future__ import annotations

import random

import pytest

from repro.baselines import evaluate_with_dom
from repro.core.engine import TwigMEvaluator, evaluate
from repro.core.multi import MultiQueryEvaluator, evaluate_many
from repro.core.results import Solution
from repro.datasets.newsfeed import NewsFeedConfig, NewsFeedGenerator
from repro.errors import EngineError
from repro.xmlstream.sax import iter_events
from repro.xmlstream.tokenizer import tokenize


QUERIES = ["//book/@id", "//book[author]/title", "//journal//title/text()"]


def reference_pairs(queries, document, parser="native"):
    """The pre-index reference semantics: feed every event to every machine.

    This is the per-machine loop the indexed engine replaced; the dispatch
    index must produce byte-identical ``(name, solution)`` streams.
    """
    evaluators = [(f"q{i}", TwigMEvaluator(q)) for i, q in enumerate(queries)]
    pairs = []
    for event in iter_events(document, parser=parser):
        for name, evaluator in evaluators:
            for solution in evaluator.feed(event):
                pairs.append((name, solution))
    return pairs


def _per_subscription(pairs):
    """Each subscription's solutions, in document order."""
    grouped = {}
    for name, solution in pairs:
        grouped.setdefault(name, []).append(solution)
    return {
        name: sorted(solutions, key=Solution.order_key)
        for name, solutions in grouped.items()
    }


class TestRegistration:
    def test_register_returns_subscription(self):
        evaluator = MultiQueryEvaluator()
        subscription = evaluator.register("//a", name="mine")
        assert subscription.name == "mine"
        assert subscription.query == "//a"
        assert len(evaluator) == 1

    def test_auto_names_are_unique(self):
        evaluator = MultiQueryEvaluator()
        first = evaluator.register("//a")
        second = evaluator.register("//b")
        assert first.name != second.name

    def test_duplicate_name_rejected(self):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//a", name="dup")
        with pytest.raises(EngineError):
            evaluator.register("//b", name="dup")

    def test_feed_without_queries_rejected(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        with pytest.raises(EngineError):
            evaluator.feed(next(iter(tokenize(simple_doc))))


class TestSharedPassCorrectness:
    def test_results_match_individual_evaluation(self, simple_doc):
        combined = evaluate_many(QUERIES, simple_doc)
        for query in QUERIES:
            assert combined[query].keys() == evaluate(query, simple_doc).keys()

    @pytest.mark.parametrize("parser", ["pure", "expat"])
    def test_a_query_given_twice_is_answered_once(self, simple_doc, parser):
        queries = ["//book[author]/title", "//book/@id", "//book[author]/title"]
        combined = evaluate_many(queries, simple_doc, parser=parser)
        assert sorted(combined) == ["//book/@id", "//book[author]/title"]
        for query in queries:
            oracle = evaluate_with_dom(query, simple_doc)
            assert combined[query].solutions == oracle.solutions

    def test_results_by_subscription_name(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="books")
        evaluator.register("//journal", name="journals")
        results = evaluator.evaluate(simple_doc)
        assert len(results["books"]) == 2
        assert len(results["journals"]) == 1

    def test_statistics_per_subscription(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="books")
        evaluator.register("//title", name="titles")
        evaluator.evaluate(simple_doc)
        stats = evaluator.statistics()
        assert stats["books"]["solutions_distinct"] == 2
        assert stats["titles"]["solutions_distinct"] == 3

    def test_incremental_stream_pairs(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book/@id", name="ids")
        evaluator.register("//author/text()", name="authors")
        pairs = list(evaluator.stream(simple_doc))
        names = {name for name, _ in pairs}
        assert names == {"ids", "authors"}
        assert len([p for p in pairs if p[0] == "ids"]) == 2
        assert len([p for p in pairs if p[0] == "authors"]) == 3

    def test_callbacks_invoked(self, simple_doc):
        seen = []
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book/@id", name="ids", callback=seen.append)
        evaluator.evaluate(simple_doc)
        assert sorted(s.value for s in seen) == ["b1", "b2"]
        assert evaluator.subscriptions[0].delivered == 2

    def test_reset_allows_second_stream(self, simple_doc, recursive_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//b", name="bs")
        first = evaluator.evaluate(recursive_doc)
        evaluator.reset()
        second = evaluator.evaluate(simple_doc)
        assert len(first["bs"]) == 5
        assert len(second["bs"]) == 0

    def test_register_after_run_rejected(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book")
        evaluator.evaluate(simple_doc)
        with pytest.raises(EngineError):
            evaluator.register("//title")


class TestIndexedDispatchParity:
    """The indexed engine must match the per-machine reference loop exactly."""

    @pytest.mark.parametrize("parser", ["pure", "expat"])
    def test_stream_pairs_byte_identical(self, simple_doc, parser):
        evaluator = MultiQueryEvaluator()
        for index, query in enumerate(QUERIES):
            evaluator.register(query, name=f"q{index}")
        pairs = list(evaluator.stream(simple_doc, parser=parser))
        assert pairs == reference_pairs(QUERIES, simple_doc, parser=parser)

    @pytest.mark.parametrize("parser", ["pure", "expat"])
    def test_recursive_document_parity(self, recursive_doc, parser):
        queries = ["//a//b", "//a[b]/c", "//a[@key='1']//b/text()", "//*[c]"]
        evaluator = MultiQueryEvaluator()
        for index, query in enumerate(queries):
            evaluator.register(query, name=f"q{index}")
        pairs = list(evaluator.stream(recursive_doc, parser=parser))
        # ``//a//b`` rides the ``//b`` family anchor: it emits each ``b`` at
        # its own end tag, where a private machine emits them all at the
        # outermost ``a``'s.  Each subscription still gets every solution
        # of the reference exactly once.
        assert _per_subscription(pairs) == _per_subscription(
            reference_pairs(queries, recursive_doc, parser=parser)
        )

    @pytest.mark.parametrize("parser", ["pure", "expat"])
    def test_fused_evaluate_matches_stream(self, simple_doc, parser):
        streamed = MultiQueryEvaluator()
        fused = MultiQueryEvaluator()
        for index, query in enumerate(QUERIES):
            streamed.register(query, name=f"q{index}")
            fused.register(query, name=f"q{index}")
        pairs = list(streamed.stream(simple_doc, parser=parser))
        results = fused.evaluate(simple_doc, parser=parser)
        for index in range(len(QUERIES)):
            name = f"q{index}"
            assert results[name].keys() == sorted(
                {s.key() for n, s in pairs if n == name}
            )


class TestSubscriptionLifecycle:
    def test_unregister_removes_subscription(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="books")
        evaluator.register("//title", name="titles")
        evaluator.unregister("titles")
        assert len(evaluator) == 1
        assert evaluator.machine_count == 1
        results = evaluator.evaluate(simple_doc)
        assert set(results) == {"books"}

    def test_unregister_unknown_name_rejected(self):
        evaluator = MultiQueryEvaluator()
        with pytest.raises(EngineError):
            evaluator.unregister("ghost")

    def test_unregister_mid_stream(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="books")
        evaluator.register("//author", name="authors")
        pairs = []
        for index, event in enumerate(tokenize(simple_doc)):
            pairs.extend(evaluator.feed(event))
            if index == 12:  # after the first book closed
                evaluator.unregister("authors")
        names = [name for name, _ in pairs]
        assert names.count("books") == 2
        # Only deliveries up to the unregistration point remain.
        assert 0 < names.count("authors") < 3

    def test_unregister_keeps_shared_machine_for_remaining_duplicate(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="first")
        evaluator.register("//book", name="second")
        assert evaluator.machine_count == 1
        evaluator.unregister("first")
        assert evaluator.machine_count == 1
        results = evaluator.evaluate(simple_doc)
        assert len(results["second"]) == 2

    def test_register_mid_stream_sees_stream_suffix(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="early")
        late = None
        pairs = []
        for index, event in enumerate(tokenize(simple_doc)):
            pairs.extend(evaluator.feed(event))
            if index == 12 and late is None:  # after the first book closed
                late = evaluator.register("//book", name="late")
        by_name = {}
        for name, solution in pairs:
            by_name.setdefault(name, []).append(solution)
        assert len(by_name["early"]) == 2
        # The late machine missed the first book entirely.
        assert len(by_name["late"]) == 1
        assert by_name["late"][0].key() == by_name["early"][1].key()

    def test_pause_and_resume_delivery(self, simple_doc):
        seen = []
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="books", callback=seen.append)
        paused_pairs = []
        resumed_pairs = []
        events = list(tokenize(simple_doc))
        evaluator.pause("books")
        for event in events[:13]:  # first book closes while paused
            paused_pairs.extend(evaluator.feed(event))
        assert paused_pairs == [] and seen == []  # nothing delivered while paused
        assert evaluator.subscriptions[0].delivered == 0
        evaluator.resume("books")
        for event in events[13:]:
            resumed_pairs.extend(evaluator.feed(event))
        assert len(resumed_pairs) == 1  # second book delivered after resume
        assert len(seen) == 1
        assert evaluator.subscriptions[0].delivered == 1
        # The machine kept running: pull-style results remain complete.
        assert len(evaluator.results()["books"]) == 2

    def test_callback_exceptions_are_isolated(self, simple_doc):
        good = []

        def bad_callback(solution):
            raise RuntimeError("subscriber bug")

        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="bad", callback=bad_callback)
        evaluator.register("//book", name="good", callback=good.append)
        results = evaluator.evaluate(simple_doc)
        assert len(good) == 2  # the healthy subscriber saw everything
        assert len(results["bad"]) == 2  # pull-style results unaffected
        bad = evaluator._subscriptions["bad"]
        assert bad.callback_errors == 2
        assert isinstance(bad.last_callback_error, RuntimeError)
        assert bad.delivered == 2  # the solution still counts as delivered

    def test_structurally_identical_queries_share_one_machine(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        first = evaluator.register("//book[author]/title", name="first")
        second = evaluator.register("//book[ author ]/title", name="second")
        assert evaluator.machine_count == 1
        assert first.runtime is second.runtime
        assert first.evaluator is second.evaluator
        results = evaluator.evaluate(simple_doc)
        assert results["first"].keys() == results["second"].keys()
        # Each result set reports the query text as registered.
        assert results["first"].query == "//book[author]/title"
        assert results["second"].query == "//book[ author ]/title"

    def test_duplicate_subscribers_both_receive_pairs(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="first")
        evaluator.register("//book", name="second")
        pairs = list(evaluator.stream(simple_doc))
        names = [name for name, _ in pairs]
        assert names.count("first") == 2
        assert names.count("second") == 2

    def test_auto_names_stay_unique_after_unregister(self):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//a")
        evaluator.register("//b")
        evaluator.unregister("q0")
        third = evaluator.register("//c")
        assert third.name not in ("q1",)
        assert len({sub.name for sub in evaluator.subscriptions}) == 2

    def test_empty_event_list_is_an_empty_stream(self):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//a", name="as")
        assert list(evaluator.stream([])) == []
        results = evaluator.results()
        assert len(results["as"]) == 0

    def test_register_after_stream_finished_rejected(self, simple_doc):
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book")
        list(evaluator.stream(simple_doc))
        with pytest.raises(EngineError):
            evaluator.register("//title")

    def test_replay_after_fused_bailout_fires_callbacks_once(self, simple_doc, monkeypatch):
        """A fused-scan bail-out must not double-deliver via the replay.

        Deliveries are buffered during the fused scan and discarded when it
        returns None; the event-pipeline replay is then the only source of
        callbacks.
        """
        import repro.core.multi as multi_module

        monkeypatch.setattr(
            multi_module, "fused_pure_multi_evaluate", lambda *args: None
        )
        seen = []
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="books", callback=seen.append)
        results = evaluator.evaluate(simple_doc, parser="pure")
        assert len(seen) == 2
        assert len(results["books"]) == 2
        assert evaluator.subscriptions[0].delivered == 2

    def test_failed_expat_run_leaves_machines_clean(self, simple_doc):
        """A fused expat parse failure must not leak state into a later run."""
        from repro.errors import XMLSyntaxError

        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="books")
        with pytest.raises(XMLSyntaxError):
            evaluator.evaluate("<library><book id='b0'/></library>junk", parser="expat")
        results = evaluator.evaluate(simple_doc, parser="expat")
        # Only the clean document's two books — nothing from the failed run.
        assert len(results["books"]) == 2
        assert all(s.node.tag == "book" for s in results["books"])

    def test_failed_expat_run_leaves_single_evaluator_clean(self, simple_doc):
        from repro.errors import XMLSyntaxError

        evaluator = TwigMEvaluator("//book")
        with pytest.raises(XMLSyntaxError):
            evaluator.evaluate("<library><book id='b0'/></library>junk", parser="expat")
        assert len(evaluator.evaluate(simple_doc, parser="expat")) == 2

    def test_mid_stream_duplicate_gets_private_machine(self, simple_doc):
        """Mid-stream registration never inherits a warm shared machine."""
        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="early")
        pairs = []
        late = None
        for index, event in enumerate(tokenize(simple_doc)):
            pairs.extend(evaluator.feed(event))
            if index == 12 and late is None:  # after the first book closed
                late = evaluator.register("//book", name="late")
        assert late.runtime is not evaluator.subscriptions[0].runtime
        assert evaluator.machine_count == 2
        by_name = {}
        for name, solution in pairs:
            by_name.setdefault(name, []).append(solution)
        assert len(by_name["early"]) == 2
        assert len(by_name["late"]) == 1  # remainder-only, despite the dupe
        # Lifecycle of the private runtime stays consistent.
        evaluator.unregister("early")
        assert evaluator.machine_count == 1
        assert len(evaluator.results()["late"]) == 1

    def test_close_releases_compiled_cache_references(self):
        from repro.core.builder import shared_compiled_cache

        before = len(shared_compiled_cache)
        evaluator = MultiQueryEvaluator()
        evaluator.register("//unique-close-test-a/b", name="one")
        evaluator.register("//unique-close-test-a/b", name="two")
        evaluator.register("//unique-close-test-c", name="three")
        assert len(shared_compiled_cache) == before + 2
        evaluator.close()
        assert len(shared_compiled_cache) == before
        assert len(evaluator) == 0
        evaluator.close()  # idempotent

    def test_context_manager_closes(self, simple_doc):
        from repro.core.builder import shared_compiled_cache

        before = len(shared_compiled_cache)
        with MultiQueryEvaluator() as evaluator:
            evaluator.register("//unique-ctx-test/book", name="books")
            assert len(shared_compiled_cache) == before + 1
        assert len(shared_compiled_cache) == before

    def test_reset_clears_callback_error_state(self, simple_doc):
        def bad_callback(solution):
            raise ValueError("boom")

        evaluator = MultiQueryEvaluator()
        evaluator.register("//book", name="books", callback=bad_callback)
        evaluator.evaluate(simple_doc)
        evaluator.reset()
        subscription = evaluator.subscriptions[0]
        assert subscription.callback_errors == 0
        assert subscription.last_callback_error is None
        assert subscription.delivered == 0


class TestSubscriptionScenario:
    def test_ticker_subscriptions_share_one_pass(self):
        generator = NewsFeedGenerator(NewsFeedConfig(updates=200), seed=5)
        document = generator.text()
        evaluator = MultiQueryEvaluator()
        evaluator.register(generator.CANONICAL_QUERY, name="acme")
        evaluator.register("//headline[@section='markets']/title/text()", name="markets")
        evaluator.register("//update/quote[price>450]/@symbol", name="movers")
        results = evaluator.evaluate(generator.chunks())
        assert len(results["acme"]) == generator.expected_symbol_updates("ACME")
        for name in ("acme", "markets", "movers"):
            assert results[name].keys() == evaluate(
                evaluator._subscriptions[name].query, document
            ).keys()


def _record_feed(label_count, records, seed):
    """A flat ``<feed>`` of records, each with its own ``s{i}/v{i}`` tag pair
    inside a shared ``r`` wrapper."""
    rng = random.Random(seed)
    parts = ["<feed>"]
    for _ in range(records):
        i = rng.randrange(label_count)
        parts.append(f'<r seq="{i}"><s{i}><v{i}>x{rng.randrange(5)}</v{i}></s{i}></r>')
    parts.append("</feed>")
    return "".join(parts)


#: M1 query mixes over the record feed: private label sets, a shared
#: wrapper step, and one query registered many times.
QUERY_MIXES = {
    "disjoint": lambda count: [f"//s{i % 40}/v{i % 40}" for i in range(count)],
    "overlapping": lambda count: [f"//r/s{i % 40}" for i in range(count)],
    "duplicate": lambda count: ["//r//s0[v0]"] * count,
}


class TestQueryMixes:
    @pytest.mark.parametrize("kind", sorted(QUERY_MIXES))
    @pytest.mark.parametrize("count", [10, 200])
    def test_shared_pass_matches_independent_runs(self, kind, count):
        document = _record_feed(label_count=40, records=300, seed=3)
        queries = QUERY_MIXES[kind](count)
        with MultiQueryEvaluator() as evaluator:
            for index, query in enumerate(queries):
                evaluator.subscribe(query, name=f"q{index}")
            results = evaluator.evaluate(document)
            if kind == "duplicate":
                assert evaluator.machine_count == 1
        independent = {query: evaluate(query, document).keys() for query in set(queries)}
        assert len(results) == count
        assert sum(1 for keys in independent.values() if keys) >= len(independent) - 1
        for index, query in enumerate(queries):
            assert results[f"q{index}"].keys() == independent[query]
