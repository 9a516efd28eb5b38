"""Containment sharing: one anchor machine serving a refinement family.

Every eligible subscription joining at stream start rides a family (see the
:mod:`repro.core.multi` docstring).  Per-subscription solution sets,
``delivered`` counters and :meth:`results` answer to the DOM oracle; only
the interleaving of the ``(name, solution)`` stream across subscriptions is
unfixed, because a family anchor emits at the output element's own end tag.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import evaluate_with_dom
from repro.core.checkpoint import dumps_snapshot, loads_snapshot
from repro.core.multi import MultiQueryEvaluator
from repro.core.results import MemberCollector
from repro.errors import EngineError, XMLSyntaxError, XPathSyntaxError
from repro.xmlstream.sax import iter_events
from repro.xpath.generator import refinement_family_queries

#: A refinement family of ``//c``: every query is linear, predicate-free and
#: selects a ``c`` element, so all five share one anchor machine.
FAMILY_QUERIES = ["//a//c", "//a/c", "/r//c", "//b/c", "//r/a//c"]

#: Four ``c`` elements with distinct ancestor chains:
#: c1=(r,a,c)  c2=(r,b,c)  c3=(r,a,b,c)  c4=(r,c).
DOC = (
    "<r><a><c>1</c></a><b><c>2</c></b>"
    "<a><b><c>3</c></b></a><c>4</c></r>"
)


def _run(queries, document, parser="pure"):
    """Evaluate ``queries``; return (result keys, delivered) per name."""
    with MultiQueryEvaluator() as evaluator:
        subscriptions = [
            evaluator.subscribe(query, name=f"q{i}")
            for i, query in enumerate(queries)
        ]
        results = evaluator.evaluate(document, parser=parser)
        keys = {name: results[name].keys() for name in results}
        delivered = {s.name: s.delivered for s in subscriptions}
    return keys, delivered


def _oracle(queries, document):
    """The DOM oracle's (result keys, solution count) per name."""
    keys = {
        f"q{i}": evaluate_with_dom(query, document).keys()
        for i, query in enumerate(queries)
    }
    return keys, {name: len(found) for name, found in keys.items()}


class TestParity:
    @pytest.mark.parametrize("parser", ["pure", "expat"])
    def test_family_matches_private_machines(self, parser):
        assert _run(FAMILY_QUERIES, DOC, parser) == _oracle(FAMILY_QUERIES, DOC)

    def test_event_pipeline_per_subscription_pair_sets_match(self):
        with MultiQueryEvaluator() as evaluator:
            for i, query in enumerate(FAMILY_QUERIES):
                evaluator.subscribe(query, name=f"q{i}")
            pairs = list(evaluator.stream(list(iter_events(DOC))))
        grouped = {}
        for name, solution in pairs:
            grouped.setdefault(name, []).append(solution.key())
        expected, _ = _oracle(FAMILY_QUERIES, DOC)
        assert {name: sorted(keys) for name, keys in grouped.items()} == expected

    def test_mixed_family_and_private_queries(self):
        queries = FAMILY_QUERIES + ["//a[c]", "//c/text()", "//b"]
        assert _run(queries, DOC) == _oracle(queries, DOC)


class TestSharingStructure:
    def test_refinement_family_shares_one_anchor_machine(self):
        with MultiQueryEvaluator() as evaluator:
            for i, query in enumerate(FAMILY_QUERIES):
                evaluator.subscribe(query, name=f"q{i}")
            stats = evaluator.stats()
            assert stats.subscriptions == len(FAMILY_QUERIES)
            assert stats.machines == 1
            assert stats.families == 1
            assert stats.containment_shared == len(FAMILY_QUERIES)

    @pytest.mark.parametrize("value", [True, False])
    def test_retired_keyword_warns_and_changes_nothing(self, value):
        with pytest.warns(DeprecationWarning, match="always on"):
            evaluator = MultiQueryEvaluator(containment_sharing=value)
        with evaluator:
            for i, query in enumerate(FAMILY_QUERIES):
                evaluator.subscribe(query, name=f"q{i}")
            assert evaluator.stats().machines == 1

    def test_ineligible_queries_fall_back_to_fingerprint_machines(self):
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe("//a//c", name="fam")
            evaluator.subscribe("//a[x]//c", name="pred")
            evaluator.subscribe("//a//c/text()", name="text")
            # An attribute of the anchor rides the family.
            evaluator.subscribe("//a//c/@id", name="attr")
            stats = evaluator.stats()
            assert stats.machines == 3  # one anchor + two private
            assert stats.families == 1
            assert stats.containment_shared == 2

    def test_identical_members_pool_into_one_group(self):
        with MultiQueryEvaluator() as evaluator:
            one = evaluator.subscribe("//a//c", name="one")
            two = evaluator.subscribe("//a//c", name="two")
            assert one.runtime is two.runtime
            assert one.group is two.group
            assert one.group is not None

    @pytest.mark.parametrize("parser", ["pure", "expat"])
    def test_members_hold_references_to_the_anchor_solutions(self, parser):
        with MultiQueryEvaluator() as evaluator:
            one = evaluator.subscribe("//a//c", name="one")
            two = evaluator.subscribe("/r//c", name="two")
            evaluator.evaluate(DOC, parser=parser)
            anchor = {s.key(): s for s in one.runtime.collector.solutions()}
            for member in (one, two):
                collector = member.group.collector
                assert isinstance(collector, MemberCollector)
                assert all(anchor[s.key()] is s for s in collector.solutions())
            assert (len(one.group.collector), len(two.group.collector)) == (2, 4)

    def test_many_families_collapse_to_one_anchor_each(self):
        """2 000 subscriptions over 50 families: 50 machines, each tag
        dispatched to one runtime, answers from the oracle."""
        rng = random.Random(9)
        labels = [rng.randrange(50) for _ in range(10)]  # registered families
        labels += [50 + rng.randrange(750) for _ in range(200)]  # labels no query names
        rng.shuffle(labels)
        document = "<feed>" + "".join(
            f"<r><s{i}><v{i}>x{rng.randrange(5)}</v{i}></s{i}></r>" for i in labels
        ) + "</feed>"
        queries = refinement_family_queries(2000, families=50)
        with MultiQueryEvaluator(collect_statistics=False) as evaluator:
            evaluator.subscribe_many(queries)
            stats = evaluator.stats()
            assert stats.machines == stats.families == 50
            results = evaluator.evaluate(document, parser="pure")
            assert evaluator.stats().peak_dispatch_fanout == 1
            oracle = {q: evaluate_with_dom(q, document).keys() for q in set(queries)}
            assert sum(len(keys) for keys in oracle.values()) > 0
            for subscription in evaluator.subscriptions:
                assert results[subscription.name].keys() == oracle[subscription.source]

    def test_mid_stream_member_gets_private_machine(self):
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe("//a//c", name="early")
            events = list(iter_events(DOC))
            for event in events[: len(events) // 2]:
                evaluator.push(event)
            late = evaluator.subscribe("//b/c", name="late")
            assert late.group is None
            assert evaluator.stats().machines == 2
            for event in events[len(events) // 2 :]:
                evaluator.push(event)


class TestLifecycle:
    def test_unregister_member_keeps_anchor_for_siblings(self):
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe("//a//c", name="one")
            evaluator.subscribe("//b/c", name="two")
            assert evaluator.stats().machines == 1
            evaluator.unregister("one")
            # The sibling shape still rides the anchor machine.
            assert evaluator.stats().machines == 1
            results = evaluator.evaluate(DOC)
            assert set(results) == {"two"}
            assert len(results["two"]) == 2  # c2=(r,b,c) and c3=(r,a,b,c)
            evaluator.unregister("two")
            stats = evaluator.stats()
            assert stats.machines == 0
            assert stats.trie_nodes == 0

    def test_unregister_duplicate_member_keeps_group(self):
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe("//a//c", name="one")
            kept = evaluator.subscribe("//a//c", name="two")
            evaluator.unregister("one")
            assert evaluator.stats().machines == 1
            assert kept.group.subscribers == [kept]
            results = evaluator.evaluate(DOC)
            assert len(results["two"]) == 2  # c1 and c3

    def test_paused_family_member_keeps_complete_results(self):
        seen = []
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe("//a//c", name="one", callback=seen.append)
            evaluator.subscribe("/r//c", name="two")
            evaluator.pause("one")
            pairs = list(evaluator.stream(DOC, parser="pure"))
            names = {name for name, _ in pairs}
            assert names == {"two"}
            assert not seen
            subscriptions = {s.name: s for s in evaluator.subscriptions}
            assert subscriptions["one"].delivered == 0
            # The anchor kept running: pull-style results stay complete.
            assert len(evaluator.results()["one"]) == 2

    @pytest.mark.parametrize("parser", ["pure", "expat"])
    def test_aborted_document_leaves_no_member_solutions(self, parser):
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe("//a//c", name="one")
            session = evaluator.session(parser=parser)
            assert len(session.feed_text("<r><a><c>1</c>")) == 1
            with pytest.raises(XMLSyntaxError):
                session.feed_text("<b></r>")
            # The aborted document's match was delivered but is not an
            # answer of the next document.
            session = evaluator.session(parser=parser)
            session.feed_text("<r><b/></r>")
            session.finish()
            assert len(evaluator.results()["one"]) == 0

    def test_reset_allows_second_stream(self):
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe("//a//c", name="one")
            first = evaluator.evaluate(DOC)
            evaluator.reset()
            second = evaluator.evaluate(DOC)
            assert first["one"].keys() == second["one"].keys()
            assert len(first["one"]) == 2


class TestSubscribeMany:
    def test_batch_registers_all_and_shares(self):
        with MultiQueryEvaluator() as evaluator:
            subscriptions = evaluator.subscribe_many(
                [("//a//c", "one"), "//b/c", ("/r//c", "three")]
            )
            assert [s.name for s in subscriptions] == ["one", "q0", "three"]
            assert evaluator.stats().machines == 1

    def test_batch_callback_applies_to_every_member(self):
        seen = []
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe_many(["//a//c", "//b/c"], callback=seen.append)
            evaluator.evaluate(DOC)
            assert len(seen) == 4  # //a//c -> c1,c3 ; //b/c -> c2,c3

    def test_batch_rolls_back_on_duplicate_name(self):
        with MultiQueryEvaluator() as evaluator:
            evaluator.subscribe("//x/y", name="taken")
            with pytest.raises(EngineError):
                evaluator.subscribe_many(
                    [("//a//c", "fresh"), ("//b/c", "taken")]
                )
            assert {s.name for s in evaluator.subscriptions} == {"taken"}
            assert evaluator.stats().machines == 1

    def test_batch_rolls_back_on_syntax_error(self):
        with MultiQueryEvaluator() as evaluator:
            with pytest.raises(XPathSyntaxError):
                evaluator.subscribe_many(["//a//c", "//b/c", "///"])
            assert not evaluator.subscriptions
            assert evaluator.stats().machines == 0
            assert evaluator.stats().trie_nodes == 0


class TestCheckpoint:
    def test_mid_stream_snapshot_roundtrips_family(self):
        evaluator = MultiQueryEvaluator()
        evaluator.subscribe("//a//c", name="one")
        evaluator.subscribe("//b/c", name="two")
        session = evaluator.session(parser="pure")
        split = DOC.index("<a><b>")  # after c1 and c2 delivered
        prefix_pairs = session.feed_text(DOC[:split])
        snapshot = session.snapshot()

        fresh = MultiQueryEvaluator()
        restored = fresh.restore_session(loads_snapshot(dumps_snapshot(snapshot)))
        assert fresh.stats().machines == 1
        assert fresh.stats().families == 1
        suffix_pairs = restored.feed_text(DOC[split:]) + restored.finish()

        with MultiQueryEvaluator() as unbroken:
            unbroken.subscribe("//a//c", name="one")
            unbroken.subscribe("//b/c", name="two")
            expected = list(unbroken.stream(DOC, parser="pure"))
            expected_results = {
                name: unbroken.results()[name].keys() for name in ("one", "two")
            }
        combined = [
            (name, solution.key())
            for name, solution in prefix_pairs + suffix_pairs
        ]
        assert combined == [
            (name, solution.key()) for name, solution in expected
        ]
        assert {
            name: fresh.results()[name].keys() for name in ("one", "two")
        } == expected_results
        fresh.close()
        evaluator.close()


# --------------------------------------------------------------------------
# Property-based parity: random linear-path families over random documents.
# --------------------------------------------------------------------------

_LABELS = ("a", "b", "c", "d")


@st.composite
def _documents(draw):
    """A small random tree (depth <= 4) under a fixed ``r`` root."""

    def element(depth):
        tag = draw(st.sampled_from(_LABELS))
        if depth >= 3 or draw(st.booleans()):
            return f"<{tag}>x</{tag}>"
        children = "".join(
            element(depth + 1) for _ in range(draw(st.integers(1, 3)))
        )
        return f"<{tag}>{children}</{tag}>"

    body = "".join(element(1) for _ in range(draw(st.integers(1, 4))))
    return f"<r>{body}</r>"


@st.composite
def _linear_queries(draw):
    """A batch of containment-eligible queries (2-4 linear steps each)."""
    queries = []
    for _ in range(draw(st.integers(2, 6))):
        steps = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["/", "//"]),
                    st.sampled_from(_LABELS + ("r", "*")),
                ),
                min_size=2,
                max_size=4,
            )
        )
        queries.append("".join(axis + label for axis, label in steps))
    return queries


class TestPropertyParity:
    @settings(max_examples=30, deadline=None)
    @given(document=_documents(), queries=_linear_queries())
    def test_sharing_never_changes_answers(self, document, queries):
        assert _run(queries, document) == _oracle(queries, document)

    @settings(max_examples=15, deadline=None)
    @given(document=_documents(), queries=_linear_queries())
    def test_expat_backend_agrees_with_pure(self, document, queries):
        keys_pure, _ = _run(queries, document, parser="pure")
        keys_expat, _ = _run(queries, document, parser="expat")
        assert keys_pure == keys_expat
