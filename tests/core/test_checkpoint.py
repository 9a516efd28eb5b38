"""Checkpoint/restore unit tests: format, engine state, session carry-over.

The every-byte-offset parity fuzz lives in ``test_checkpoint_fuzz.py`` (it
is also a dedicated CI step); these tests pin down the format contract and
the restore semantics piece by piece.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.baselines import evaluate_with_dom
from repro.core.checkpoint import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    dumps_snapshot,
    loads_snapshot,
)
from repro.core.multi import MultiQueryEvaluator
from repro.errors import CheckpointError

DOC_PREFIX = '<feed><r seq="1"><s1><v1>aé&amp;b</v1></s1></r><r><s1><v1>sp'
DOC_SUFFIX = "lit</v1></s1></r></feed>"

QUERIES = (("a", "//s1/v1"), ("b", "//v1/text()"), ("c", "//r/@seq"))

PARSERS = ("pure", "expat")


def _engine_with_queries():
    engine = MultiQueryEvaluator()
    for name, query in QUERIES:
        engine.register(query, name=name)
    return engine


def _snapshot_mid_document(parser):
    engine = _engine_with_queries()
    session = engine.session(parser=parser)
    pairs = session.feed_text(DOC_PREFIX)
    snapshot = session.snapshot()
    engine.close()
    return pairs, snapshot


class TestEnvelope:
    @pytest.mark.parametrize("parser", PARSERS)
    def test_snapshot_envelope_fields(self, parser):
        _, snapshot = _snapshot_mid_document(parser)
        assert snapshot["format"] == SNAPSHOT_FORMAT
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert snapshot["session"]["parser"] == parser
        assert snapshot["engine"]["subscriptions"][0]["name"] == "a"

    @pytest.mark.parametrize("parser", PARSERS)
    def test_serialization_is_deterministic(self, parser):
        _, first = _snapshot_mid_document(parser)
        _, second = _snapshot_mid_document(parser)
        assert dumps_snapshot(first) == dumps_snapshot(second)

    @pytest.mark.parametrize("parser", PARSERS)
    def test_bytes_round_trip(self, parser):
        _, snapshot = _snapshot_mid_document(parser)
        assert loads_snapshot(dumps_snapshot(snapshot)) == snapshot

    def test_loads_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            loads_snapshot(b"not json")
        with pytest.raises(CheckpointError):
            loads_snapshot(b'{"format": "something-else", "version": 1}')

    def test_loads_rejects_future_version(self):
        _, snapshot = _snapshot_mid_document("pure")
        snapshot["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(CheckpointError):
            loads_snapshot(dumps_snapshot(snapshot))


class TestRestoreSemantics:
    @pytest.mark.parametrize("parser", PARSERS)
    def test_prefix_snapshot_suffix_matches_unbroken(self, parser):
        with _engine_with_queries() as reference:
            expected = list(reference.stream(DOC_PREFIX + DOC_SUFFIX, parser=parser))
            expected_keys = [(n, s.key()) for n, s in expected]
            expected_results = {
                n: r.keys() for n, r in reference.results().items()
            }
        prefix_pairs, snapshot = _snapshot_mid_document(parser)
        blob = dumps_snapshot(snapshot)
        with MultiQueryEvaluator() as restored:
            session = restored.restore_session(loads_snapshot(blob))
            pairs = prefix_pairs + session.feed_text(DOC_SUFFIX) + session.finish()
            assert [(n, s.key()) for n, s in pairs] == expected_keys
            results = {n: r.keys() for n, r in restored.results().items()}
            assert results == expected_results

    @pytest.mark.parametrize("parser", PARSERS)
    def test_restored_session_can_be_snapshotted_again(self, parser):
        # Chained checkpoints: auto-checkpoint keeps running after a resume.
        _, snapshot = _snapshot_mid_document(parser)
        with MultiQueryEvaluator() as restored:
            session = restored.restore_session(snapshot)
            session.feed_text("li")
            second = session.snapshot()
        with MultiQueryEvaluator() as again:
            session = again.restore_session(second)
            pairs = session.feed_text("t</v1></s1></r></feed>") + session.finish()
            assert [s.key() for _, s in pairs if _ == "a"]

    @pytest.mark.parametrize("parser", PARSERS)
    def test_delivered_counters_survive(self, parser):
        engine = _engine_with_queries()
        session = engine.session(parser=parser)
        session.feed_text(DOC_PREFIX)
        delivered = {s.name: s.delivered for s in engine.subscriptions}
        snapshot = session.snapshot()
        engine.close()
        with MultiQueryEvaluator() as restored:
            restored.restore_session(snapshot)
            assert {s.name: s.delivered for s in restored.subscriptions} == delivered

    @pytest.mark.parametrize("parser", PARSERS)
    def test_callbacks_do_not_travel_and_fire_only_for_remainder(self, parser):
        received = []
        engine = MultiQueryEvaluator()
        engine.register("//s1/v1", name="cb", callback=received.append)
        session = engine.session(parser=parser)
        session.feed_text(DOC_PREFIX)
        fired_before = len(received)
        assert fired_before == 1  # the first v1 completed in the prefix
        snapshot = session.snapshot()
        engine.close()
        with MultiQueryEvaluator() as restored:
            session = restored.restore_session(snapshot)
            subscription = restored.subscriptions[0]
            assert subscription.callback is None
            tail = []
            subscription.callback = tail.append
            session.feed_text(DOC_SUFFIX)
            session.finish()
            assert len(received) == fired_before  # old callback never re-fires
            assert len(tail) == 1  # remainder solution reaches the rebound one

    def test_restore_requires_fresh_engine(self):
        _, snapshot = _snapshot_mid_document("pure")
        engine = MultiQueryEvaluator()
        engine.register("//x", name="occupied")
        with pytest.raises(CheckpointError):
            engine.restore_session(snapshot)
        engine.close()

    def test_truncated_payload_raises_checkpoint_error_not_keyerror(self):
        # A structurally broken payload past the envelope must surface as
        # the documented error type (vitex resume prints it), not a raw
        # KeyError traceback.
        _, snapshot = _snapshot_mid_document("pure")
        for breakage in (
            lambda s: s["engine"]["runtimes"][0].pop("source"),
            lambda s: s["engine"].pop("auto_name_counter"),
            lambda s: s["session"].pop("tokenizer"),
            lambda s: s["engine"]["runtimes"][0]["evaluator"]["stacks"][0][0].pop(
                "element"
            )
            if snapshot["engine"]["runtimes"][0]["evaluator"]["stacks"][0]
            else None,
        ):
            _, broken = _snapshot_mid_document("pure")
            breakage(broken)
            engine = MultiQueryEvaluator()
            with pytest.raises(CheckpointError):
                engine.restore_session(broken)
            assert len(engine) == 0
            engine.close()

    def test_restore_failure_leaves_engine_empty(self):
        _, snapshot = _snapshot_mid_document("pure")
        # Give the last runtime one stack too many (every machine here has
        # a single node) so restore fails after the family anchor and the
        # runtimes before it were installed.
        snapshot["engine"]["runtimes"][-1]["evaluator"]["stacks"] = [[], []]
        engine = MultiQueryEvaluator()
        with pytest.raises(CheckpointError):
            engine.restore_session(snapshot)
        assert len(engine) == 0
        assert engine.machine_count == 0
        engine.register("//x", name="still-usable")
        engine.close()

    @pytest.mark.parametrize("parser", PARSERS)
    def test_paused_subscription_stays_paused(self, parser):
        engine = _engine_with_queries()
        engine.pause("a")
        session = engine.session(parser=parser)
        session.feed_text(DOC_PREFIX)
        snapshot = session.snapshot()
        engine.close()
        with MultiQueryEvaluator() as restored:
            session = restored.restore_session(snapshot)
            pairs = session.feed_text(DOC_SUFFIX) + session.finish()
            assert not any(name == "a" for name, _ in pairs)
            # The shared machine kept running: pull-style results complete.
            assert len(restored.results()["a"]) == 2

    @pytest.mark.parametrize("parser", PARSERS)
    def test_mid_stream_private_machines_restore_private(self, parser):
        engine = MultiQueryEvaluator()
        engine.register("//s1/v1", name="early")
        session = engine.session(parser=parser)
        session.feed_text('<feed><r seq="1"><s1><v1>one</v1></s1></r>')
        # Mid-stream duplicate shape: must stay on a private machine so its
        # remainder-only answer is preserved across the checkpoint.
        engine.register("//s1/v1", name="late")
        assert engine.machine_count == 2
        snapshot = session.snapshot()
        engine.close()
        with MultiQueryEvaluator() as restored:
            session = restored.restore_session(snapshot)
            assert restored.machine_count == 2
            session.feed_text("<r><s1><v1>two</v1></s1></r></feed>")
            session.finish()
            results = restored.results()
            assert len(results["early"]) == 2
            assert len(results["late"]) == 1  # remainder only

    def test_snapshot_refused_after_finish_and_abort(self):
        engine = _engine_with_queries()
        session = engine.session(parser="pure")
        session.feed_text(DOC_PREFIX + DOC_SUFFIX)
        session.finish()
        with pytest.raises(CheckpointError):
            session.snapshot()
        engine.close()

    def test_engine_only_snapshot_between_documents(self):
        engine = _engine_with_queries()
        session = engine.session(parser="pure")
        session.feed_text(DOC_PREFIX + DOC_SUFFIX)
        session.finish()
        engine.reset()
        snapshot = engine.snapshot()
        assert snapshot["session"] is None
        engine.close()
        with MultiQueryEvaluator() as restored:
            assert restored.restore_session(snapshot) is None
            session = restored.session(parser="pure")
            pairs = session.feed_text("<feed><s1><v1>y</v1></s1></feed>")
            pairs += session.finish()
            # Per-subscription contract: each subscription's own sequence is
            # fixed, the interleaving across subscriptions is not.
            grouped = {}
            for name, solution in pairs:
                grouped.setdefault(name, []).append(solution.key())
            assert grouped == {"a": [("element", 2)], "b": [("text", 2)]}

    def test_expat_resumable_false_refuses_snapshot(self):
        engine = _engine_with_queries()
        session = engine.session(parser="expat", resumable=False)
        session.feed_text(DOC_PREFIX)
        with pytest.raises(CheckpointError):
            session.snapshot()
        engine.close()

    @pytest.mark.parametrize("parser", PARSERS)
    def test_statistics_survive_round_trip(self, parser):
        engine = _engine_with_queries()
        session = engine.session(parser=parser)
        session.feed_text(DOC_PREFIX)
        before = engine.statistics()
        snapshot = session.snapshot()
        engine.close()
        with MultiQueryEvaluator() as restored:
            restored.restore_session(snapshot)
            assert restored.statistics() == before


#: ``fixtures/{config}_1_4_{parser}.snapshot.json`` were written by vitex
#: 1.4.0 as ``dumps_snapshot(session.snapshot())`` after an engine
#: subscribed ``FIXTURE_QUERIES`` in order and
#: ``engine.open(parser=parser).feed_text(FIXTURE_DOC[:FIXTURE_SPLIT])``.
#: ``default_config`` is ``Engine()``, which in 1.4 ran a private machine per
#: query shape (``//a//b`` included); ``sharing`` is
#: ``Engine(containment_sharing=True)``, which is how every engine runs now.
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FIXTURE_DOC = (
    '<r><a><b>1</b><x><b>2</b></x></a><b>3</b>'
    '<a id="k"><a><b>4</b><b>5</b></a><c>t</c></a><b>6</b></r>'
)
FIXTURE_SPLIT = FIXTURE_DOC.index("<b>5") + 3
FIXTURE_QUERIES = (
    ("deep", "//a//b"),
    ("rooted", "/r/a//b"),
    ("child", "//a/b"),
    ("pred", "//a[c]//b"),
    ("text", "//b/text()"),
    ("attr", "//a/@id"),
)


class TestOlderSnapshots:
    @pytest.mark.parametrize("parser", PARSERS)
    def test_private_machine_snapshot_finishes_with_oracle_answers(self, parser):
        data = (FIXTURES / f"default_config_1_4_{parser}.snapshot.json").read_bytes()
        with MultiQueryEvaluator() as engine:
            session = engine.restore_session(loads_snapshot(data))
            # Restored as written: one private machine per shape, no family.
            assert engine.stats().families == 0
            assert dumps_snapshot(session.snapshot()) == data
            session.feed_text(FIXTURE_DOC[FIXTURE_SPLIT:])
            session.finish()
            results = engine.results()
            delivered = {s.name: s.delivered for s in engine.subscriptions}
        for name, query in FIXTURE_QUERIES:
            oracle = evaluate_with_dom(query, FIXTURE_DOC)
            assert results[name].keys() == oracle.keys(), name
            assert delivered[name] == len(oracle), name

    @pytest.mark.parametrize("parser", PARSERS)
    def test_sharing_payload_is_byte_identical_to_1_4_opt_in(self, parser):
        data = (FIXTURES / f"sharing_1_4_{parser}.snapshot.json").read_bytes()
        # ``//a/@id`` now rides an ``a`` family (an attribute of the anchor);
        # without it the query set has no member of the widened fragment
        # and today's payload is 1.4's, byte for byte.
        expected = loads_snapshot(data)
        engine_payload = expected["engine"]
        attr = next(s for s in engine_payload["subscriptions"] if s["name"] == "attr")
        assert attr["runtime"] == len(engine_payload["runtimes"]) - 1
        engine_payload["subscriptions"].remove(attr)
        engine_payload["runtimes"].pop()
        with MultiQueryEvaluator() as engine:
            for name, query in FIXTURE_QUERIES:
                if name != "attr":
                    engine.subscribe(query, name=name)
            session = engine.session(parser=parser)
            session.feed_text(FIXTURE_DOC[:FIXTURE_SPLIT])
            assert dumps_snapshot(session.snapshot()) == dumps_snapshot(expected)
        with MultiQueryEvaluator() as engine:
            session = engine.restore_session(loads_snapshot(data))
            session.feed_text(FIXTURE_DOC[FIXTURE_SPLIT:])
            session.finish()
            results = engine.results()
        for name, query in FIXTURE_QUERIES:
            assert results[name].keys() == evaluate_with_dom(query, FIXTURE_DOC).keys()
