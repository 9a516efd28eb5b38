"""DocumentStreamSession: unbounded multi-document streams, bounded memory.

The contract under test (ISSUE 10 tentpole): an endless feed of
concatenated or length-framed documents, boundaries autodetected at
root-close, machine state reset between documents while subscriptions and
stream-global counters stay alive — with per-document delivery identical to
evaluating each document one-shot, at any chunk split, on both backends.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.core import docstream
from repro.core.docstream import (
    DocumentBoundaryScanner,
    DocumentStreamSession,
    RetentionSpool,
    frame_document,
)
from repro.core.multi import MultiQueryEvaluator
from repro.errors import EngineError

DOCS = [
    '<?xml version="1.0"?><a><b i="1">x&amp;y</b><c><b i="2">z</b></c></a>',
    "<doc/>",
    '<r att="&gt;"><!-- > --><b i="3"><![CDATA[ a>b ]]> raw</b></r>',
    "<a><c/><b>last</b></a>",
]
STREAM = "\n".join(DOCS)
PARSERS = ("native", "expat")


def per_document_reference(query: str, docs=DOCS):
    """Evaluate each document one-shot; returns the concatenated reprs."""
    out = []
    for doc in docs:
        with MultiQueryEvaluator() as engine:
            engine.subscribe(query, name="q")
            results = engine.evaluate(doc)
            out.extend(repr(s) for s in results["q"].solutions)
    return out


# --------------------------------------------------------------------------
# boundary scanner


class TestBoundaryScanner:
    def test_basic_split(self):
        scanner = DocumentBoundaryScanner()
        segments = scanner.feed("<a><b/></a>\n<c/> <d>x</d>")
        assert segments == [
            ("<a><b/></a>", True),
            ("<c/>", True),
            ("<d>x</d>", True),
        ]

    def test_tricky_gt_characters_do_not_split(self):
        doc = (
            "<!DOCTYPE r [ <!ENTITY e \"v\"> ]>"
            "<r a='>' b=\">\"><!-- > --><![CDATA[ > ]]><?pi > ?>x</r>"
        )
        scanner = DocumentBoundaryScanner()
        segments = scanner.feed(doc + "<n/>")
        assert segments == [(doc, True), ("<n/>", True)]

    def test_self_closing_root(self):
        scanner = DocumentBoundaryScanner()
        assert scanner.feed("<only/>") == [("<only/>", True)]

    def test_every_split_offset_reassembles(self):
        whole = DocumentBoundaryScanner().feed(STREAM)
        assert [seg for seg, done in whole if done] == DOCS
        for offset in range(1, len(STREAM)):
            scanner = DocumentBoundaryScanner()
            segments = scanner.feed(STREAM[:offset]) + scanner.feed(STREAM[offset:])
            docs = []
            current = []
            for text, completed in segments:
                current.append(text)
                if completed:
                    docs.append("".join(current))
                    current = []
            assert docs == DOCS, offset
            assert not "".join(current).strip()

    def test_interdocument_whitespace_is_discarded(self):
        scanner = DocumentBoundaryScanner()
        segments = scanner.feed("  \n <a/>  \n\t  <b/> \n")
        assert segments == [("<a/>", True), ("<b/>", True)]

    def test_incomplete_document_reported_by_finish(self):
        scanner = DocumentBoundaryScanner()
        scanner.feed("<a><b>")
        assert scanner.in_document
        scanner2 = DocumentBoundaryScanner()
        scanner2.feed("<a/>")
        assert not scanner2.in_document

    def test_snapshot_roundtrip_mid_construct(self):
        for offset in range(1, len(STREAM)):
            scanner = DocumentBoundaryScanner()
            first = scanner.feed(STREAM[:offset])
            restored = DocumentBoundaryScanner.restore_state(
                scanner.snapshot_state()
            )
            second = restored.feed(STREAM[offset:])
            docs = []
            current = []
            for text, completed in first + second:
                current.append(text)
                if completed:
                    docs.append("".join(current))
                    current = []
            assert docs == DOCS, offset


# --------------------------------------------------------------------------
# retention spool


class TestRetentionSpool:
    def test_needs_a_limit(self):
        with pytest.raises(EngineError):
            RetentionSpool()

    def test_document_count_eviction(self):
        spool = RetentionSpool(max_documents=2)
        from repro.xmlstream.events import StartElement

        for seq in range(4):
            spool.begin_document(seq)
            spool.add_events([StartElement(0, "a", 1, (), None)], 1)
            spool.seal_document()
        assert spool.documents == 2
        assert spool.evicted_documents == 2
        assert [sealed for sealed, _ in spool.replay_units()] == [True, True]

    def test_byte_eviction(self):
        from repro.xmlstream.events import Characters

        spool = RetentionSpool(max_bytes=64)
        for seq in range(8):
            spool.begin_document(seq)
            spool.add_events([Characters(0, "x" * 32, 1)], 0)
            spool.seal_document()
        assert spool.byte_size <= 64
        assert spool.evicted_documents > 0


# --------------------------------------------------------------------------
# the session


class TestDocumentStream:
    @pytest.mark.parametrize("parser", PARSERS)
    def test_per_document_parity_any_split(self, parser):
        reference = per_document_reference("//b")
        for step in (1, 3, 7, len(STREAM)):
            engine = MultiQueryEvaluator()
            engine.subscribe("//b", name="q")
            session = engine.document_stream(parser=parser)
            pairs = []
            for start in range(0, len(STREAM), step):
                pairs.extend(session.feed_text(STREAM[start : start + step]))
            session.close()
            assert [repr(m.solution) for m in pairs] == reference, (parser, step)
            assert session.documents == len(DOCS)
            engine.close()

    @pytest.mark.parametrize("parser", PARSERS)
    def test_feed_bytes(self, parser):
        engine = MultiQueryEvaluator()
        engine.subscribe("//b", name="q")
        session = engine.document_stream(parser=parser)
        data = STREAM.encode("utf-8")
        pairs = []
        for start in range(0, len(data), 5):
            pairs.extend(session.feed_bytes(data[start : start + 5]))
        session.close()
        assert [repr(m.solution) for m in pairs] == per_document_reference("//b")
        engine.close()

    def test_framed_mode(self):
        engine = MultiQueryEvaluator()
        engine.subscribe("//b", name="q")
        session = engine.document_stream(framing="framed")
        wire = b"".join(frame_document(doc) for doc in DOCS)
        pairs = []
        for start in range(0, len(wire), 3):
            pairs.extend(session.feed_framed(wire[start : start + 3]))
        session.close()
        assert [repr(m.solution) for m in pairs] == per_document_reference("//b")
        assert session.documents == len(DOCS)
        framed = engine.document_stream(framing="framed")
        with pytest.raises(EngineError):
            framed.feed_text("<a/>")
        with pytest.raises(EngineError):
            framed.feed_bytes(b"<a/>")
        framed.close()
        engine.close()

    def test_feed_document_explicit(self):
        engine = MultiQueryEvaluator()
        engine.subscribe("//b", name="q")
        session = engine.document_stream()
        pairs = []
        for doc in DOCS:
            pairs.extend(session.feed_document(doc))
        session.close()
        assert [repr(m.solution) for m in pairs] == per_document_reference("//b")
        engine.close()

    def test_auto_mode_rejects_feed_framed(self):
        engine = MultiQueryEvaluator()
        session = engine.document_stream()
        with pytest.raises(EngineError):
            session.feed_framed(b"\x03<a/>")
        engine.close()

    @pytest.mark.parametrize("parser", PARSERS)
    def test_zero_subscription_feeding_advances_counters(self, parser):
        """Satellite: unbounded feeding with no subscribers stays flat."""
        engine = MultiQueryEvaluator()
        session = engine.document_stream(parser=parser)
        for round_ in range(20):
            session.feed_text("<a><b>1</b><c><b>2</b></c></a>\n")
            assert session.live_entries() == 0
        session.close()
        assert session.documents == 20
        assert session.elements == 20 * 4
        assert engine._element_order == 0  # between documents after reset
        engine.close()

    def test_delivered_counters_survive_document_boundaries(self):
        engine = MultiQueryEvaluator()
        sub = engine.subscribe("//b", name="q")
        session = engine.document_stream()
        for _ in range(5):
            session.feed_text("<a><b>x</b></a>")
        assert sub.delivered == 5  # engine.reset() would have zeroed this
        session.close()
        assert sub.delivered == 5
        engine.close()

    def test_subscriber_at_document_n_remainder_semantics(self):
        """Satellite: without replay_window, coverage starts at join time."""
        engine = MultiQueryEvaluator()
        session = engine.document_stream(retain_documents=10)
        session.feed_text("<a><b>1</b></a><a><b>2</b></a>")
        late = session.subscribe("//b", name="late")
        pairs = session.feed_text("<a><b>3</b></a>")
        session.close()
        assert late.delivered == 1
        assert [m.name for m in pairs] == ["late"]
        engine.close()

    def test_mid_document_join_sees_remainder_only(self):
        engine = MultiQueryEvaluator()
        session = engine.document_stream()
        session.feed_text("<a><b>1</b><c>")
        late = session.subscribe("//b", name="late")
        session.feed_text("</c><b>2</b></a>")
        session.close()
        assert late.delivered == 1
        engine.close()

    @pytest.mark.parametrize("parser", PARSERS)
    def test_on_error_skip_resumes_at_next_boundary(self, parser):
        engine = MultiQueryEvaluator()
        engine.subscribe("//b", name="q")
        session = engine.document_stream(parser=parser, on_error="skip")
        # the middle document is well-bounded for the scanner but rejected by
        # both parsers (undefined entity), so skipping resumes cleanly
        pairs = session.feed_text(
            "<a><b>1</b></a><broken>&undefined;</broken><a><b>2</b></a>"
        )
        session.close()
        assert session.documents == 2
        assert session.documents_failed >= 1
        assert len(pairs) == 2
        engine.close()

    def test_on_error_raise_marks_failed(self):
        engine = MultiQueryEvaluator()
        session = engine.document_stream()
        with pytest.raises(Exception):
            session.feed_text("<a><</a>")
        assert session.failed
        with pytest.raises(EngineError):
            session.feed_text("<a/>")
        # engine is left clean for other surfaces
        assert engine._element_order == 0 and not engine._started
        engine.close()

    def test_window_stats(self):
        windows = []
        engine = MultiQueryEvaluator()
        engine.subscribe("//b", name="q")
        session = engine.document_stream(
            window_documents=3, on_window=windows.append
        )
        for _ in range(7):
            # split each document so a chunk boundary lands mid-document and
            # the live-entry sampler observes open stacks
            session.feed_text("<a><b>x")
            session.feed_text("</b></a>")
        session.close()
        assert len(windows) >= 2
        first = windows[0]
        assert first.documents == 3
        assert first.elements == 6
        assert first.matches == 3
        assert first.docs_per_s > 0
        assert first.peak_live_entries >= 1
        payload = first.as_dict()
        assert payload["documents"] == 3
        assert session.windows  # bounded history retained on the session
        engine.close()

    def test_stats_payload(self):
        engine = MultiQueryEvaluator()
        engine.subscribe("//b", name="q")
        session = engine.document_stream(retain_documents=2)
        session.feed_text("<a><b>x</b></a><a><b>y</b></a><a><b>")
        stats = session.stats()
        assert stats["documents"] == 2
        assert stats["in_document"] is True
        assert stats["matches"] == 2
        assert stats["spool"]["documents"] == 2
        assert stats["subscriptions"] == 1
        session.close()
        assert session.documents_failed == 1  # the partial document
        engine.close()

    def test_close_is_idempotent_and_leaves_engine_usable(self):
        engine = MultiQueryEvaluator()
        engine.subscribe("//b", name="q")
        session = engine.document_stream()
        session.feed_text("<a><b>1</b></a>")
        session.close()
        session.close()
        # the same engine can run a bounded document afterwards
        results = engine.evaluate("<a><b>2</b></a>")
        assert len(results["q"]) == 1
        engine.close()

    def test_needs_fresh_engine_position(self):
        engine = MultiQueryEvaluator()
        engine.subscribe("//b", name="q")
        engine.evaluate("<a><b>1</b></a>")
        with pytest.raises(EngineError):
            engine.document_stream()
        engine.reset()
        session = engine.document_stream()
        session.close()
        engine.close()

    def test_context_manager(self):
        engine = MultiQueryEvaluator()
        with engine.document_stream() as session:
            session.feed_text("<a/>")
        assert session.closed
        engine.close()


class TestFacade:
    def test_engine_document_stream_delivers_matches(self):
        from repro.api import Engine, Match

        engine = Engine()
        received = []
        session = engine.document_stream(retain_documents=4)
        session.subscribe("//b", callback=received.append, name="q")
        session.feed_text("<a><b>1</b></a><a><b>2</b></a>")
        session.close()
        assert [type(m) for m in received] == [Match, Match]
        assert all(m.name == "q" for m in received)
        engine.close()

    def test_facade_replay_callback_gets_matches(self):
        from repro.api import Engine, Match

        engine = Engine()
        session = engine.document_stream(retain_documents=4)
        session.feed_text("<a><b>1</b></a>")
        received = []
        session.subscribe(
            "//b", callback=received.append, name="late", replay_window=True
        )
        session.feed_text("<a><b>2</b></a>")
        session.close()
        assert len(received) == 2
        assert all(isinstance(m, Match) and m.name == "late" for m in received)
        engine.close()


# --------------------------------------------------------------------------
# flat memory over an unbounded stream


def ticker_document(entries: int, alert_every: int, seed: int) -> str:
    """One stock-ticker document: ``1 + 3 * entries`` elements.

    A ``<ticker>`` root holding ``entries`` records of three elements each
    (``<quote s=..><price>..</price><vol>..</vol></quote>``).  Every
    ``alert_every``-th record is an ``<alert>`` instead of a ``<quote>``;
    the standing queries target alerts, so delivery stays sparse and the
    stream's memory is the engine's, not the solutions'.
    """
    rng = random.Random(seed)
    parts = ["<ticker>"]
    for i in range(entries):
        tag = "alert" if i % alert_every == alert_every - 1 else "quote"
        price = f"{rng.randrange(1, 500)}.{rng.randrange(100):02d}"
        parts.append(
            f'<{tag} s="S{rng.randrange(1000):03d}">'
            f"<price>{price}</price><vol>{rng.randrange(100, 100_000)}</vol></{tag}>"
        )
    parts.append("</ticker>")
    return "".join(parts)


SOAK_QUERIES = ("//alert[price]", "/ticker/alert//vol", "//alert/price")
SOAK_DOCUMENTS = 100
SOAK_WINDOW = 20  # documents per sealed window
SOAK_WARMUP_WINDOWS = 2  # 40 documents: longer than the retention spool
SOAK_RETAIN = 16


def flat_memory_bound(baseline: int) -> int:
    """Allowed steady growth in traced bytes past the warm baseline."""
    return int(0.10 * baseline) + 64 * 1024


def soak(parser: str):
    """Stream ticker documents through one retaining session.

    Returns ``(baseline, high, matches)``: traced bytes after the last
    warm-up window, the highest traced bytes after any later window, and
    the solutions delivered.  Each sample is taken after ``gc.collect()``
    once the feed call that sealed its window has returned, never inside
    ``on_window``.
    """
    corpus = [ticker_document(40, alert_every=20, seed=17 + i) for i in range(8)]
    sealed = []
    samples = []
    engine = MultiQueryEvaluator()
    for query in SOAK_QUERIES:
        engine.subscribe(query)
    session = engine.document_stream(
        parser=parser,
        retain_documents=SOAK_RETAIN,
        window_documents=SOAK_WINDOW,
        on_window=sealed.append,
    )
    matches = 0
    tracemalloc.start()
    try:
        for index in range(SOAK_DOCUMENTS):
            document = corpus[index % len(corpus)]
            # Split each document so the boundary scanner sees mid-document
            # chunk edges, the shape an endless socket feed produces.
            midpoint = len(document) // 2
            matches += len(session.feed_text(document[:midpoint]))
            matches += len(session.feed_text(document[midpoint:]))
            if len(sealed) > len(samples):
                gc.collect()
                samples.append(tracemalloc.get_traced_memory()[0])
        assert session.stats()["spool"]["documents"] == SOAK_RETAIN
    finally:
        tracemalloc.stop()
        session.close()
        engine.close()
    assert len(samples) == SOAK_DOCUMENTS // SOAK_WINDOW
    baseline = samples[SOAK_WARMUP_WINDOWS - 1]
    return baseline, max(samples[SOAK_WARMUP_WINDOWS:]), matches


class TestFlatMemory:
    @pytest.mark.parametrize("parser", ["pure", "expat"])
    def test_traced_memory_stays_flat(self, parser):
        baseline, high, matches = soak(parser)
        # 100 documents, two alerts each, three queries, one solution per
        # query and alert.
        assert matches == SOAK_DOCUMENTS * 2 * len(SOAK_QUERIES)
        assert high - baseline <= flat_memory_bound(baseline), (baseline, high)

    def test_bound_catches_a_leak_of_4kb_per_document(self, monkeypatch):
        kept = []
        feed_text = docstream.DocumentStreamSession.feed_text

        def leaky_feed_text(self, chunk):
            kept.append(bytearray(2048))  # two feeds per document
            return feed_text(self, chunk)

        monkeypatch.setattr(docstream.DocumentStreamSession, "feed_text", leaky_feed_text)
        # pure: the larger warm baseline, so the looser of the two bounds
        baseline, high, _ = soak("pure")
        assert high - baseline > flat_memory_bound(baseline), (baseline, high)
