"""The one-query front ends over the subscription engine.

``perfbench``'s traced pass (``perfbench/layers.py``) reaches below the
public surface: it imports ``repro.core.engine.TwigMEvaluator``, feeds it
tokenizer and expat events one at a time, reads its work counters, and
reads ``runtime.evaluator.statistics`` off the runtimes of a
``MultiQueryEvaluator``'s index.  These tests make exactly those calls, so a
refactor cannot silently break the traced pass.  The front ends must also
leave the process-wide compiled-query cache as they found it, give their
query a machine of its own, and cost what they did before they ran on the
engine: ``evaluate()`` and ``stream()`` keep no ancestor chain that no
family reads, and ``stream()`` runs a parsed chunk per kernel call, with no
event objects.
"""

from __future__ import annotations

import io

import pytest

import repro
from repro.baselines import evaluate_with_dom
from repro.core import multi as multi_module
from repro.core.builder import shared_compiled_cache
from repro.core.engine import TwigMEvaluator
from repro.core.kernel import Kernel
from repro.core.multi import MultiQueryEvaluator
from repro.xmlstream.expat_backend import ExpatEventSource
from repro.xmlstream.tokenizer import StreamTokenizer

QUERY = "//entry[reference]/@id"
DOCUMENT = (
    "<db>"
    + "".join(
        f"<entry id='e{n}'><name>n{n}</name>{'<reference/>' * (n % 3)}</entry>"
        for n in range(40)
    )
    + "</db>"
)


@pytest.mark.parametrize("source_class", [StreamTokenizer, ExpatEventSource])
def test_the_traced_pass_calls(source_class):
    pairs = [(QUERY, "q0"), ("//entry/name", "q1")]
    evaluator = MultiQueryEvaluator()
    evaluator.subscribe_many(pairs)
    single = TwigMEvaluator(pairs[0][0])
    source = source_class()
    half = len(DOCUMENT) // 2
    for chunk in [DOCUMENT[:half], DOCUMENT[half:], None]:
        events = source.feed(chunk) if chunk is not None else source.close()
        for event in events:
            single.feed(event)
            evaluator.push(event)

    statistics = single.statistics
    work = evaluator.statistics()["q0"]
    assert statistics.work_units() == sum(
        work[counter]
        for counter in (
            "pushes", "pops", "flags_set", "candidates_created", "candidates_propagated",
        )
    )
    assert statistics.work_units() > 0
    assert statistics.peak_candidate_count == work["peak_candidate_count"] > 0
    assert statistics.peak_stack_entries == work["peak_stack_entries"] > 0
    machines = [runtime.evaluator for runtime in evaluator.index.runtimes]
    assert len(machines) == 2
    for machine in machines:
        assert machine.statistics.work_units() > 0
    assert single.finish().solutions == evaluate_with_dom(QUERY, DOCUMENT).solutions
    evaluator.close()


def test_the_front_ends_pin_nothing_in_the_compiled_cache():
    before = len(shared_compiled_cache)
    for number in range(1000):
        assert len(repro.evaluate(f"//entry[@k{number}]", DOCUMENT)) == 0
        assert list(repro.stream_evaluate(f"//entry[@s{number}]/name", DOCUMENT)) == []
    assert len(shared_compiled_cache) == before


def test_a_lone_plannable_query_gets_a_machine_of_its_own():
    evaluator = TwigMEvaluator("//entry//name")
    stats = evaluator._engine.stats()
    assert (stats.machines, stats.families) == (1, 0)


@pytest.mark.parametrize("parser", ["pure", "expat"])
def test_evaluate_keeps_an_ancestor_chain_only_for_families(parser, monkeypatch):
    chains = []
    scan = multi_module.fused_pure_multi_evaluate
    driver = multi_module.FusedExpatDriver

    def spy_scan(kernel, *args):
        chains.append(kernel.context)
        return scan(kernel, *args)

    def spy_driver(kernel):
        chains.append(kernel.context)
        return driver(kernel)

    monkeypatch.setattr(multi_module, "fused_pure_multi_evaluate", spy_scan)
    monkeypatch.setattr(multi_module, "FusedExpatDriver", spy_driver)
    for query, families in ((QUERY, 0), ("//entry//name", 1)):
        with MultiQueryEvaluator() as engine:
            engine.subscribe(query, name="q")
            assert engine.stats().families == families
            results = engine.evaluate(DOCUMENT, parser=parser)
            assert results["q"].solutions == evaluate_with_dom(query, DOCUMENT).solutions
            assert engine._kernel.context is engine.index.context
    assert chains[0] is None
    assert chains[1] == []


@pytest.mark.parametrize("parser", ["pure", "expat"])
def test_stream_keeps_an_ancestor_chain_only_for_families(parser, monkeypatch):
    chains = []
    tokenizer = multi_module.StreamTokenizer
    driver = multi_module.FusedExpatDriver

    def spy_tokenizer(*args, sink):
        chains.append(sink.context)
        return tokenizer(*args, sink=sink)

    def spy_driver(kernel):
        chains.append(kernel.context)
        return driver(kernel)

    monkeypatch.setattr(multi_module, "StreamTokenizer", spy_tokenizer)
    monkeypatch.setattr(multi_module, "FusedExpatDriver", spy_driver)
    for query, families in ((QUERY, 0), ("//entry//name", 1)):
        with MultiQueryEvaluator() as engine:
            engine.subscribe(query, name="q")
            assert engine.stats().families == families
            pairs = list(engine.stream(io.StringIO(DOCUMENT), parser=parser))
            expected = evaluate_with_dom(query, DOCUMENT).solutions
            assert [solution for _, solution in pairs] == expected
            assert engine._kernel.context is engine.index.context
    assert chains[0] is None
    assert chains[1] == []


def test_reset_gives_back_the_chain_an_unfinished_stream_dropped():
    with MultiQueryEvaluator() as engine:
        engine.subscribe(QUERY, name="q")
        unfinished = engine.stream(DOCUMENT, parser="pure", chunk_size=64)
        next(unfinished)
        assert engine._kernel.context is None
        engine.reset()
        engine.subscribe("//db//name", name="family")
        assert engine.stats().families == 1
        session = engine.session(parser="pure")
        session.feed_text(DOCUMENT)
        session.finish()
        expected = evaluate_with_dom("//db//name", DOCUMENT).solutions
        assert engine.results()["family"].solutions == expected
        unfinished.close()


@pytest.mark.parametrize("parser", ["pure", "expat"])
def test_stream_runs_one_kernel_call_per_parsed_chunk(parser, monkeypatch):
    calls = []
    collect = Kernel.collect

    def spy(kernel, emitted, call, *args):
        calls.append(args)
        return collect(kernel, emitted, call, *args)

    monkeypatch.setattr(Kernel, "collect", spy)
    monkeypatch.setattr(Kernel, "run", None)  # no event objects reach the kernel
    expected = evaluate_with_dom("//entry/name", DOCUMENT).solutions
    solutions = list(
        repro.stream_evaluate(
            "//entry/name", io.StringIO(DOCUMENT), parser=parser, chunk_size=512
        )
    )
    assert solutions == expected
    with MultiQueryEvaluator() as engine:
        engine.subscribe("//entry/name", name="q")
        pairs = list(engine.stream(io.StringIO(DOCUMENT), parser=parser, chunk_size=512))
    assert [solution for _, solution in pairs] == expected
    # One call per 512-character chunk plus the close, per run.
    chunks = -(-len(DOCUMENT) // 512)
    assert len(calls) == 2 * (chunks + 1)
    assert [len(args) for args in calls] == ([1] * chunks + [0]) * 2
