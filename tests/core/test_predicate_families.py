"""Predicated subscriptions riding their anchor's family: one differential check.

A query whose only predicated step is its anchor (``//quote[price>490]/@s``,
``/ticker/quote[price>495]/vol``) rides the anchor's containment family: the
anchor machine captures the children its members name and keeps its start
tag's attributes, and the family evaluates each member's predicate at the
anchor's emission (:mod:`repro.xpath.containment`,
:class:`~repro.core.queryindex.FamilyRuntime`).  Here every subscription of
a shared engine must receive exactly the sequence of solutions a private
machine (``share=False``) delivers for the same query, and the set the DOM
oracle gives, on pure and expat, whole-document and in 7-byte and random
chunks.

Per-subscription order follows the anchor's end tags.  A private machine
emits at its outermost step's end tag instead, so the two sequences agree
when the query starts at its anchor or every step above it is matched once
(a document element, a lone ``ticker``); those are the shapes generated
here.  The documents carry repeated, missing, nested and non-numeric
children, so a member that looked only at the first captured child, or
parsed numbers with ``float()``, would deliver a different sequence.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.baselines import evaluate_with_dom
from repro.core.multi import MultiQueryEvaluator
from repro.datasets.randomtree import RandomTreeConfig, random_documents
from repro.xpath.containment import residual_plan

#: The stream-churn ticker shapes (perfbench's ``TICKER_QUERIES``).
TICKER_QUERIES = [
    "//alert[price]",
    "/ticker/alert//vol",
    "//alert/price",
    "//alert/@s",
    "/ticker/alert",
    "//alert[vol]/price",
    "//ticker//alert/vol",
    "//alert[price>250]",
    "//alert[price>250]/vol",
    "//alert[vol>50000]/@s",
    "//quote[price>490]",
    "//quote[price>490]/@s",
    "//quote[vol>99000]/price",
    "/ticker/quote[price>495]/vol",
    "//quote[@s='S007']",
    "//quote[@s='S042']/price",
    "//ticker/quote[vol>99500]",
    "//quote[price>498]/price",
    "//alert[price>400]/@s",
    "//alert[vol>90000]",
    "//alert[price>100]/price",
    "//alert[vol>10000]/vol",
    "/ticker/alert[price>300]",
    "//quote[price>485]/vol",
]

VOCABULARY = ("a", "b", "c", "d")
TESTS = ("", " = 1", " != 2", " < 2", " > 1", " = '1'", " != 'x'", " > '1.5'", " <= 1.5")


def _atom(rng: random.Random) -> str:
    if rng.random() < 0.35:
        return "@" + rng.choice(("id", "key")) + rng.choice(TESTS)
    return rng.choice(VOCABULARY) + rng.choice(TESTS)


def _predicate(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return _atom(rng)
    if roll < 0.6:
        return f"not({_predicate(rng, depth + 1)})"
    op = " and " if roll < 0.8 else " or "
    return f"({_predicate(rng, depth + 1)}{op}{_predicate(rng, depth + 1)})"


def generated_queries(count: int, seed: int) -> list:
    """Anchor-predicate shapes that start at the anchor or under the root."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < count:
        prefix = rng.choice(("//", "//", "/a/", "/b/"))
        output = rng.choice(("", "", "/@id", "/@*", "/a", "/b", "/c"))
        query = f"{prefix}{rng.choice(VOCABULARY)}[{_predicate(rng)}]{output}"
        assert residual_plan(query) is not None, query
        queries.append(query)
    return queries


def ticker_document(seed: int, records: int = 40) -> str:
    """A ``<ticker>`` whose records have zero to three ``price``/``vol``
    children (repeats included), odd values and an occasional quote nested
    inside a record."""
    rng = random.Random(seed)
    values = ("499.5", "250", "n/a", " 491 ", "1e3", "99600", "", "100", "-3", "496.")
    parts = ["<ticker>"]
    for _ in range(records):
        tag = rng.choice(("quote", "quote", "alert"))
        symbol = rng.choice(("S007", "S042", "S001"))
        attributes = f' s="{symbol}"' if rng.random() < 0.8 else ' t="1"'
        children = []
        for _ in range(rng.randint(0, 3)):
            label = rng.choice(("price", "vol"))
            children.append(f"<{label}>{rng.choice(values)}</{label}>")
        if rng.random() < 0.15:
            children.insert(
                rng.randint(0, len(children)),
                f'<quote s="{symbol}"><price>{rng.choice(values)}</price></quote>',
            )
        parts.append(f"<{tag}{attributes}>{''.join(children)}</{tag}>")
    parts.append("</ticker>")
    return "".join(parts)


CASES = [
    (TICKER_QUERIES, [ticker_document(seed) for seed in range(4)]),
    (
        generated_queries(48, seed=7),
        random_documents(
            10,
            seed=3,
            config=RandomTreeConfig(
                max_depth=7,
                max_children=4,
                attribute_probability=0.5,
                text_probability=0.6,
                branch_probability=0.9,
            ),
        ),
    ),
]


def _chunks(document: str, mode: str):
    if mode == "whole":
        return [document]
    if mode == "7-byte":
        return [document[i : i + 7] for i in range(0, len(document), 7)]
    rng = random.Random(len(document))
    chunks, start = [], 0
    while start < len(document):
        end = start + rng.randint(1, 40)
        chunks.append(document[start:end])
        start = end
    return chunks


def _deliveries(queries, document, parser, mode, share):
    """Each subscription's delivered solutions, in order."""
    received = {f"q{i}": [] for i in range(len(queries))}
    with MultiQueryEvaluator() as engine:
        for i, query in enumerate(queries):
            engine._subscribe(query, received[f"q{i}"].append, f"q{i}", share=share)
        if share:
            assert engine.stats().machines < len(queries)
        if mode == "whole":
            engine.evaluate(document, parser=parser)
        else:
            session = engine.session(parser=parser)
            for chunk in _chunks(document, mode):
                session.feed_text(chunk)
            session.finish()
    return received


@pytest.mark.parametrize("case", range(len(CASES)), ids=["ticker", "randomtree"])
@pytest.mark.parametrize("parser", ["pure", "expat"])
def test_shared_delivers_what_a_private_machine_does(case, parser):
    queries, documents = CASES[case]
    for document in documents:
        private = _deliveries(queries, document, "pure", "whole", share=False)
        for i, query in enumerate(queries):
            oracle = evaluate_with_dom(query, document).keys()
            assert sorted(s.key() for s in private[f"q{i}"]) == sorted(oracle), query
        for mode in ("whole", "7-byte", "random"):
            shared = _deliveries(queries, document, parser, mode, share=True)
            for i, query in enumerate(queries):
                assert shared[f"q{i}"] == private[f"q{i}"], (query, mode, document)


def test_the_ticker_shapes_land_on_four_anchors():
    anchors = {residual_plan(query).anchor_source for query in TICKER_QUERIES}
    assert anchors == {"//alert", "//quote", "//price", "//vol"}


def test_each_atom_is_evaluated_once_per_emission(monkeypatch):
    """Seven members test ``price`` against thresholds: one number
    conversion per captured value, however many members read it."""
    from repro.core import queryindex

    calls = []
    real = queryindex.xpath_number

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(queryindex, "xpath_number", counting)
    queries = [f"//quote[price>{threshold}]" for threshold in (1, 2, 3, 4, 5, 6, 7)]
    document = "<t>" + "<quote><price>4</price><price>9</price></quote>" * 3 + "</t>"
    with MultiQueryEvaluator() as engine:
        for query in queries:
            engine.subscribe(query)
        results = engine.evaluate(document)
    assert all(len(result) == 3 for result in results.values())
    assert len(calls) == 6  # two captured prices per quote, three quotes


def _ticker_oracle(query, documents):
    return sum(len(evaluate_with_dom(query, document)) for document in documents)


def test_stream_churn_structure():
    """The 20 standing ticker queries run as four family anchors; a replay
    subscription joining mid-document holds a fifth, private machine until
    the next document boundary, then rejoins its family with its
    ``delivered`` count intact."""
    import repro

    documents = [ticker_document(seed) for seed in range(5)]
    with repro.Engine() as engine:
        for i, query in enumerate(TICKER_QUERIES[:20]):
            engine.subscribe(query, name=f"t{i}")
        stats = engine.stats()
        assert stats.machines == stats.families == 4
        described = engine.core.index.describe().splitlines()
        assert (
            "    member '//quote[price>490]/@s': anchor //quote, residual //quote, "
            "predicate [price > 490], output @s; subscribers: t11"
        ) in described
        session = engine.document_stream(retain_documents=4)
        for document in documents[:2]:
            session.feed_text(document)
        half = len(documents[2]) // 2
        session.feed_text(documents[2][:half])
        late, replayed = session.subscribe_replay(
            TICKER_QUERIES[20], name="late", replay_window=True
        )
        assert engine.stats().machines == 5
        assert late.group is None
        session.feed_text(documents[2][half:])
        stats = engine.stats()
        assert stats.machines == stats.families == 4
        assert late.group is not None and late.runtime.is_family
        assert late.delivered == _ticker_oracle(TICKER_QUERIES[20], documents[:3])
        assert len(replayed) < late.delivered
        session.feed_text(documents[3])
        assert late.delivered == _ticker_oracle(TICKER_QUERIES[20], documents[:4])
        session.close()


def _split_inside_quote(document):
    """An offset inside an open ``<quote>``, just after a ``</price>``."""
    match = re.search(r'<quote s="S\d+"><price>[^<]*</price><(price|vol)>', document)
    return match.start(1) - 1


@pytest.mark.parametrize("parser", ["pure", "expat"])
def test_snapshot_inside_a_capturing_anchor(parser):
    """Snapshot after a quote's price closed and before the quote does:
    the capture rides the anchor entry's state and the restored anchor is
    rebuilt with the snapshot's capture labels."""
    from repro.core.checkpoint import dumps_snapshot, loads_snapshot

    document = ticker_document(11, records=60)
    split = _split_inside_quote(document)

    def subscribe(engine):
        for i, query in enumerate(TICKER_QUERIES):
            engine.subscribe(query, name=f"q{i}")

    with MultiQueryEvaluator() as engine:
        subscribe(engine)
        session = engine.session(parser=parser)
        unbroken = session.feed_text(document) + session.finish()
    with MultiQueryEvaluator() as engine:
        subscribe(engine)
        session = engine.session(parser=parser)
        pairs = session.feed_text(document[:split])
        snapshot = loads_snapshot(dumps_snapshot(session.snapshot()))
    families = [r for r in snapshot["engine"]["runtimes"] if r.get("family")]
    assert {"children": [["price", True], ["vol", True]], "attributes": True} in [
        r.get("captures") for r in families
    ]
    # The open quote's entry holds its attribute and its captured price.
    anchors = [r["evaluator"]["stacks"][0] for r in families if r["source"] == "//quote"]
    kinds = [c["kind"] for entry in anchors[0] for c in entry["candidates"]]
    assert kinds == ["attribute", "text"]
    with MultiQueryEvaluator() as engine:
        session = engine.restore_session(snapshot)
        assert engine.stats().families == 4
        pairs += session.feed_text(document[split:]) + session.finish()
    assert pairs == unbroken


def test_docstream_snapshot_after_a_replay_churn_restores_families():
    import repro

    documents = [ticker_document(seed) for seed in range(4)]
    with repro.Engine() as engine:
        for i, query in enumerate(TICKER_QUERIES[:20]):
            engine.subscribe(query, name=f"t{i}")
        session = engine.document_stream(retain_documents=2)
        for document in documents[:2]:
            session.feed_text(document)
        engine.unsubscribe("t0")
        session.subscribe(TICKER_QUERIES[20], name="t20", replay_window=True)
        assert engine.stats().machines == 4  # between documents: at once
        snapshot = repro.loads_snapshot(repro.dumps_snapshot(session.snapshot()))
        expected = session.feed_text(documents[2])
    with repro.Engine() as restored:
        stream = restored.restore(snapshot)
        stats = restored.stats()
        assert stats.machines == stats.families == 4
        assert all(s.group is not None for s in restored.subscriptions)
        assert stream.feed_text(documents[2]) == expected


def test_a_mid_stream_subscription_rejoins_its_family_at_reset():
    document = ticker_document(5)
    with MultiQueryEvaluator() as engine:
        engine.subscribe("//quote[price>490]", name="early")
        session = engine.session(parser="pure")
        session.feed_text(document[: len(document) // 2])
        late = engine.subscribe("//quote[price>100]/vol", name="late")
        late.pause()
        assert (engine.stats().machines, engine.stats().families) == (2, 1)
        session.feed_text(document[len(document) // 2 :])
        session.finish()
        engine.reset()
        assert (engine.stats().machines, engine.stats().families) == (1, 1)
        assert late.group is not None and late.paused
        late.resume()
        results = engine.evaluate(document)
        assert late.delivered == len(results["late"])
        for name, query in (("early", "//quote[price>490]"), ("late", "//quote[price>100]/vol")):
            assert results[name].keys() == evaluate_with_dom(query, document).keys()


def test_unsubscribing_a_member_drops_the_atoms_only_it_used():
    document = ticker_document(6)
    with MultiQueryEvaluator() as engine:
        engine.subscribe("//quote[price>490 and @s='S007']", name="a")
        engine.subscribe("//quote[price>490 or vol]/price", name="b")
        family = engine.subscriptions[0].runtime
        assert len(family.atoms) == 3
        engine.unregister("a")
        assert [atom[1] for atom in family.atoms] == ["price", "vol"]
        results = engine.evaluate(document)
    expected = evaluate_with_dom("//quote[price>490 or vol]/price", document).keys()
    assert results["b"].keys() == expected


def test_only_value_tests_collect_a_childs_text():
    document = "<t><q><p>2</p><r>x</r></q><q><r/></q><q><p>0</p><r>y</r></q></t>"
    queries = {"bare": "//q[p]/r", "valued": "//q[p > 1]"}
    with MultiQueryEvaluator() as engine:
        family = engine.subscribe(queries["bare"], name="bare").runtime
        assert family.captures == {"p": False, "r": False}
        assert not family.needs_text
        engine.subscribe(queries["valued"], name="valued")
        assert family.captures == {"p": True, "r": False}
        assert family.needs_text
        results = engine.evaluate(document)
    for name, query in queries.items():
        assert results[name].keys() == evaluate_with_dom(query, document).keys()


def test_a_family_snapshot_without_its_captures_is_refused():
    from repro.core.checkpoint import dumps_snapshot, loads_snapshot
    from repro.errors import CheckpointError

    with MultiQueryEvaluator() as engine:
        engine.subscribe("//quote[price>490]", name="q")
        snapshot = loads_snapshot(dumps_snapshot(engine.snapshot()))
    family = snapshot["engine"]["runtimes"][0]
    assert family["captures"] == {"children": [["price", True]], "attributes": False}
    family["captures"]["children"] = [["price", False]]
    with MultiQueryEvaluator() as engine:
        with pytest.raises(CheckpointError, match="does not belong"):
            engine.restore_session(snapshot)
        assert len(engine) == 0 and engine.stats().machines == 0


def test_a_capturing_anchor_keeps_nothing_it_emits():
    """The members hold the answers: the anchor's own collector stays empty
    however long the document, and snapshots carry none of its emissions."""
    from repro.core.checkpoint import dumps_snapshot, loads_snapshot

    document = ticker_document(12, records=1000)
    with MultiQueryEvaluator() as engine:
        for i, query in enumerate(TICKER_QUERIES):
            engine.subscribe(query, name=f"q{i}")
        families = [runtime for runtime in engine.index.runtimes if runtime.capturing]
        assert [family.anchor_label for family in families] == ["alert", "quote"]
        session = engine.session(parser="pure")
        session.feed_text(document[: len(document) // 2])
        assert [len(family.collector) for family in families] == [0, 0]
        assert all(family.collector.emitted > 100 for family in families)
        snapshot = loads_snapshot(dumps_snapshot(session.snapshot()))
        session.feed_text(document[len(document) // 2 :])
        session.finish()
        assert [len(family.collector) for family in families] == [0, 0]
        results = engine.results()
    for runtime in snapshot["engine"]["runtimes"]:
        if "captures" in runtime:
            assert runtime["evaluator"]["collector"]["solutions"] == []
    for i, query in enumerate(TICKER_QUERIES):
        assert results[f"q{i}"].keys() == evaluate_with_dom(query, document).keys()


def test_a_family_narrows_once_its_capturing_members_leave():
    """Captures follow the members: dropped at once at rest, at the next
    rewind when the member leaves mid-document; with no capturing member
    left the anchor is a plain ``//quote`` again."""
    document = ticker_document(13)
    with MultiQueryEvaluator() as engine:
        engine.subscribe("//quote[vol>99000]", name="vol")
        engine.subscribe("//quote[price>490]", name="price")
        engine.subscribe("//quote[@s='S007']", name="attr")
        engine.subscribe("/ticker/quote", name="plain")
        family = engine.subscriptions[0].runtime
        assert (family.captures, family.attributes) == ({"price": True, "vol": True}, True)
        engine.unregister("vol")  # at rest: at once
        assert family.captures == {"price": True}
        assert family not in engine.index.dispatch("vol")
        session = engine.session(parser="pure")
        session.feed_text(document[: len(document) // 2])
        engine.unregister("price")  # mid-document: kept until the rewind
        assert family.captures == {"price": True}
        session.feed_text(document[len(document) // 2 :])
        session.finish()
        engine.reset()
        assert (family.captures, family.attributes) == ({}, True)
        assert family not in engine.index.dispatch("price")
        assert not family.needs_text
        engine.unregister("attr")
        assert not family.capturing
        assert family.machine.describe() == engine.index.runtimes[0].compiled.build().describe()
        results = engine.evaluate(document)
    assert results["plain"].keys() == evaluate_with_dom("/ticker/quote", document).keys()
