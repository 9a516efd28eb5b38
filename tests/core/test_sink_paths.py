"""Documents reach the kernel straight from the parser.

A pure push session, ``stream()`` on both parsers and ``evaluate()`` over a
file on the pure parser hand each tag to the engine's kernel as it is read:
the pure tokenizer's sink is the kernel, and expat drives it through its
callbacks.  No ``StartElement`` / ``EndElement`` / ``Characters`` object is
built and ``Kernel.run`` (the event-object entry) is never called, so a
match is delivered before the rest of its chunk is tokenized.
"""

from __future__ import annotations

import io
from collections import Counter

import pytest

import repro
from repro.baselines import evaluate_with_dom
from repro.core.kernel import Kernel
from repro.core.multi import MultiQueryEvaluator
from repro.errors import XMLSyntaxError
from repro.xmlstream.events import Characters, EndElement, StartElement
from repro.xmlstream.tokenizer import tokenize

QUERY = "//rec[px > 10]/sym"
DOCUMENT = (
    "<?xml version='1.0'?>\n<feed>\n"
    + "".join(
        f"<rec id='r{n}'><sym>S{n % 7}</sym><!-- tick --><px>{n}.25</px></rec>\n"
        for n in range(60)
    )
    + "</feed>\n"
)
EXPECTED = evaluate_with_dom(QUERY, DOCUMENT).solutions
CHUNK = 97


def _chunks(data):
    return [data[start:start + CHUNK] for start in range(0, len(data), CHUNK)]


@pytest.fixture
def built(monkeypatch):
    """Counts the event objects built; ``Kernel.run`` fails the test."""
    counts = Counter()
    for cls in (StartElement, EndElement, Characters):
        def new(klass, *args, _original=cls.__new__, **kwargs):
            counts[klass.__name__] += 1
            return _original(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", new)

    def run(kernel, events, emitted):
        raise AssertionError("event objects reached Kernel.run")

    monkeypatch.setattr(Kernel, "run", run)
    return counts


def test_the_spy_sees_event_objects(built):
    assert len(list(tokenize(DOCUMENT))) > 0
    assert built["StartElement"] == built["EndElement"] == 181 and built["Characters"] > 0


@pytest.mark.parametrize("feed", ["feed_text", "feed_bytes"])
def test_a_pure_push_session_builds_no_event_objects(built, feed):
    with repro.Engine() as engine:
        pushed = []
        engine.subscribe(QUERY, callback=lambda match: pushed.append(match.solution))
        session = engine.open(parser="pure")
        data = DOCUMENT if feed == "feed_text" else DOCUMENT.encode()
        pairs = []
        for chunk in _chunks(data):
            pairs.extend(getattr(session, feed)(chunk))
        pairs.extend(session.finish())
    assert [match.solution for match in pairs] == pushed == EXPECTED
    assert not built


def test_a_restored_pure_session_builds_no_event_objects(built):
    with repro.Engine() as engine:
        engine.subscribe(QUERY, name="q")
        session = engine.open(parser="pure")
        half = len(DOCUMENT) // 2
        pairs = session.feed_text(DOCUMENT[:half])
        snapshot = session.snapshot()
    with repro.Engine() as engine:
        restored = engine.restore(snapshot)
        pairs += restored.feed_text(DOCUMENT[half:]) + restored.finish()
        assert engine.results()["q"].solutions == EXPECTED
    assert [match.solution for match in pairs] == EXPECTED
    assert not built


@pytest.mark.parametrize("parser", ["pure", "expat"])
def test_stream_builds_no_event_objects(built, parser):
    with MultiQueryEvaluator() as engine:
        engine.subscribe(QUERY, name="q")
        pairs = list(engine.stream(io.StringIO(DOCUMENT), parser=parser, chunk_size=CHUNK))
    assert [solution for _, solution in pairs] == EXPECTED
    assert list(repro.stream_evaluate(QUERY, DOCUMENT, parser=parser)) == EXPECTED
    assert not built


def test_evaluate_over_a_pure_file_builds_no_event_objects(built, tmp_path):
    path = tmp_path / "feed.xml"
    path.write_text(DOCUMENT, encoding="utf-8")
    assert repro.evaluate(QUERY, str(path), parser="pure").solutions == EXPECTED
    chunks = iter(_chunks(DOCUMENT))
    assert repro.evaluate(QUERY, chunks, parser="pure").solutions == EXPECTED
    assert not built


def test_a_match_is_delivered_before_the_rest_of_its_chunk_is_read():
    records = 40
    elements = 1 + 2 * records
    chunk = "<feed>" + "".join(f"<rec><sym>S{n}</sym></rec>" for n in range(records))
    seen = []
    with repro.Engine() as engine:
        session = engine.open(parser="pure")
        engine.subscribe("//rec/sym", callback=lambda match: seen.append(session.element_count))
        # The chunk ends in a malformed tag: every match before it is
        # delivered while the tokenizer is still reading the chunk.
        with pytest.raises(XMLSyntaxError):
            session.feed_text(chunk + "<rec><bad</rec>")
    assert len(seen) == records
    assert seen[0] < elements
    assert seen == sorted(seen)
