"""Engine facade behaviour: config, subscriptions, sessions, snapshots."""

from __future__ import annotations

import pytest

from repro import (
    Engine,
    EngineConfig,
    EngineError,
    Match,
    Query,
    Session,
    StreamSession,
    XMLSyntaxError,
)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.parser == "native"
        assert config.collect_statistics is True
        assert config.resumable is True

    def test_rejects_unknown_parser(self):
        with pytest.raises(ValueError):
            EngineConfig(parser="sax2")

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            EngineConfig(chunk_size=0)

    def test_parsers_match_backend_registry(self):
        from repro.xmlstream.sax import PARSER_BACKENDS

        assert EngineConfig.PARSERS == PARSER_BACKENDS

    def test_engine_accepts_field_overrides(self):
        engine = Engine(parser="expat", collect_statistics=False)
        assert engine.config == EngineConfig(parser="expat", collect_statistics=False)

    def test_engine_rejects_unknown_overrides(self):
        with pytest.raises(TypeError):
            Engine(backend="expat")

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().parser = "expat"


class TestSubscriptions:
    def test_subscribe_accepts_str_query_and_tree(self, simple_doc):
        from repro import compile_query

        with Engine() as engine:
            engine.subscribe("//book", name="s")
            engine.subscribe(Query("//book"), name="q")
            engine.subscribe(compile_query("//book"), name="t")
            results = engine.evaluate(simple_doc)
        assert len(results) == 3
        assert len(set(tuple(_keys(r)) for r in results.values())) == 1

    def test_callbacks_receive_matches(self, simple_doc):
        received = []
        with Engine() as engine:
            engine.subscribe("//book/@id", callback=received.append, name="ids")
            engine.evaluate(simple_doc)
        assert [type(m) for m in received] == [Match, Match]
        assert all(m.name == "ids" for m in received)
        assert sorted(m.solution.value for m in received) == ["b1", "b2"]

    def test_callback_exceptions_are_isolated(self, simple_doc):
        def boom(match):
            raise RuntimeError("nope")

        with Engine() as engine:
            subscription = engine.subscribe("//book", callback=boom)
            results = engine.evaluate(simple_doc)[subscription.name]
            assert subscription.callback_errors == 2
        assert len(results) == 2

    def test_unsubscribe_by_handle_or_name(self):
        with Engine() as engine:
            first = engine.subscribe("//a", name="one")
            engine.subscribe("//b", name="two")
            engine.unsubscribe(first)
            engine.unsubscribe("two")
            assert len(engine) == 0

    def test_pause_resume(self, simple_doc):
        received = []
        with Engine() as engine:
            subscription = engine.subscribe(
                "//book", callback=received.append, name="books"
            )
            engine.pause("books")
            engine.evaluate(simple_doc)
            assert received == []
            assert subscription.delivered == 0

    def test_stream_yields_matches(self, simple_doc):
        with Engine() as engine:
            engine.subscribe("//book/@id", name="ids")
            matches = list(engine.stream(simple_doc))
        assert all(isinstance(match, Match) for match in matches)
        # Tuple compatibility: unpacking and equality with plain pairs.
        for name, solution in matches:
            assert name == "ids"
        assert matches == [(m.name, m.solution) for m in matches]


class TestBatchSubscriptions:
    def test_subscribe_many_returns_handles_in_order(self, simple_doc):
        with Engine() as engine:
            subscriptions = engine.subscribe_many(
                [("//book", "books"), "//journal", (Query("//title"), "titles")]
            )
            assert [s.name for s in subscriptions] == ["books", "q0", "titles"]
            results = engine.evaluate(simple_doc)
        assert len(results["books"]) == 2
        assert len(results["titles"]) == 3

    def test_subscribe_many_callback_receives_matches(self, simple_doc):
        received = []
        with Engine() as engine:
            engine.subscribe_many(
                [("//book/@id", "ids"), ("//journal/@id", "jids")],
                callback=received.append,
            )
            engine.evaluate(simple_doc)
        assert all(isinstance(match, Match) for match in received)
        assert sorted((m.name, m.solution.value) for m in received) == [
            ("ids", "b1"),
            ("ids", "b2"),
            ("jids", "j1"),
        ]

    def test_subscribe_many_is_all_or_nothing(self):
        with Engine() as engine:
            engine.subscribe("//a", name="taken")
            with pytest.raises(EngineError):
                engine.subscribe_many([("//b", "fresh"), ("//c", "taken")])
            assert [s.name for s in engine.subscriptions] == ["taken"]

    def test_batch_shares_machines_under_containment(self):
        with Engine() as engine:
            engine.subscribe_many(["//a//c", "//a/c", "//b/c", "/r//c"])
            stats = engine.stats()
            assert stats.subscriptions == 4
            assert stats.machines == 1
            assert stats.families == 1

    @pytest.mark.parametrize("value", [True, False])
    def test_containment_sharing_keyword_is_a_deprecated_no_op(self, value):
        with pytest.warns(DeprecationWarning, match="always on"):
            engine = Engine(containment_sharing=value)
        with engine:
            engine.subscribe_many(["//a//c", "//b/c"])
            assert engine.stats().families == 1
        with pytest.warns(DeprecationWarning, match="always on"):
            EngineConfig(containment_sharing=value)


class TestSessions:
    def test_open_returns_stream_session(self):
        assert Session is StreamSession
        with Engine() as engine:
            engine.subscribe("//a")
            session = engine.open()
            assert isinstance(session, StreamSession)
            session.feed_text("<a/>")
            session.finish()

    def test_open_uses_config_parser(self):
        with Engine(parser="expat") as engine:
            engine.subscribe("//a")
            assert engine.open().parser == "expat"
        with Engine() as engine:
            engine.subscribe("//a")
            assert engine.open(parser="expat").parser == "expat"

    def test_session_returns_matches(self):
        with Engine() as engine:
            engine.subscribe("//a//b", name="q")
            session = engine.open()
            pairs = session.feed_text("<a><b>x</b>")
            pairs += session.feed_text("</a>")
            pairs += session.finish()
        assert len(pairs) == 1
        assert isinstance(pairs[0], Match)
        assert pairs[0].name == "q"

    def test_parse_error_leaves_engine_reusable(self):
        with Engine() as engine:
            engine.subscribe("//a", name="q")
            session = engine.open()
            with pytest.raises(XMLSyntaxError):
                session.feed_text("<a><b></a>")
                session.finish()
            results = engine.evaluate("<a/>")
            assert len(results["q"]) == 1


class TestSnapshots:
    def test_snapshot_restore_round_trip(self):
        with Engine() as engine:
            engine.subscribe("//a//b", name="q")
            session = engine.open()
            # ``//a//b`` rides the ``//b`` family anchor, which emits at
            # ``</b>`` — before the snapshot is taken.
            before = session.feed_text("<a><b>x</b>")
            assert [match.name for match in before] == ["q"]
            snapshot = session.snapshot()

        restored_engine = Engine()
        restored_session = restored_engine.restore(snapshot)
        assert restored_session is not None
        [subscription] = restored_engine.subscriptions
        assert subscription.delivered == 1
        pairs = restored_session.feed_text("</a>")
        pairs += restored_session.finish()
        assert pairs == []
        assert len(restored_engine.results()["q"]) == 1
        assert subscription.delivered == 1
        restored_engine.close()

    def test_engine_only_snapshot_restores_to_none(self):
        with Engine() as engine:
            engine.subscribe("//a", name="q")
            snapshot = engine.snapshot()
        fresh = Engine()
        assert fresh.restore(snapshot) is None
        assert [s.name for s in fresh.subscriptions] == ["q"]
        fresh.close()

    def test_restore_rejects_garbage(self):
        from repro import CheckpointError

        with pytest.raises(CheckpointError):
            Engine().restore({"format": "nope"})


class TestLifecycle:
    def test_evaluate_without_subscriptions_raises(self):
        with pytest.raises(EngineError):
            Engine().evaluate("<a/>")

    def test_reset_allows_next_document(self, simple_doc):
        with Engine() as engine:
            engine.subscribe("//book", name="q")
            first = engine.evaluate(simple_doc)["q"]
            engine.reset()
            second = engine.evaluate(simple_doc)["q"]
        assert _keys(first) == _keys(second)

    def test_repr_mentions_shape(self):
        engine = Engine(parser="expat")
        engine.subscribe("//a")
        assert "expat" in repr(engine)
        assert "subscriptions=1" in repr(engine)
        engine.close()

    def test_core_escape_hatch(self):
        from repro.core.multi import MultiQueryEvaluator

        engine = Engine()
        assert isinstance(engine.core, MultiQueryEvaluator)
        engine.close()


def _keys(result_set):
    return sorted(solution.key() for solution in result_set)
