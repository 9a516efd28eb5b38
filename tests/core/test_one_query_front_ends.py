"""The one-query front ends over the subscription engine.

``perfbench``'s traced pass (``perfbench/layers.py``) reaches below the
public surface: it imports ``repro.core.engine.TwigMEvaluator``, feeds it
tokenizer and expat events one at a time, reads its work counters, and
reads ``runtime.evaluator.statistics`` off the runtimes of a
``MultiQueryEvaluator``'s index.  These tests make exactly those calls, so a
refactor cannot silently break the traced pass.  The front ends must also
leave the process-wide compiled-query cache as they found it, give their
query a machine of its own, and cost what they did before they ran on the
engine: ``evaluate()`` keeps no ancestor chain that no family reads, and
``stream()`` runs a parsed chunk per kernel call.
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


def test_stream_runs_one_batch_per_parsed_chunk(monkeypatch):
    sizes = []
    run = Kernel.run

    def spy(kernel, events, emitted):
        events = list(events)
        sizes.append(len(events))
        return run(kernel, events, emitted)

    monkeypatch.setattr(Kernel, "run", spy)
    expected = evaluate_with_dom("//entry/name", DOCUMENT).solutions
    solutions = list(
        repro.stream_evaluate("//entry/name", io.StringIO(DOCUMENT), chunk_size=512)
    )
    assert solutions == expected
    with MultiQueryEvaluator() as engine:
        engine.subscribe("//entry/name", name="q")
        pairs = list(engine.stream(io.StringIO(DOCUMENT), chunk_size=512))
    assert [solution for _, solution in pairs] == expected
    assert sum(sizes) > 10 * len(sizes)
