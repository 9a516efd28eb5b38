"""M4 benchmarks: subscription-index scaling (prefix trie + containment).

The million-subscription axis of the motivating scenario: dispatch cost must
depend on the *interested* machines per tag, not the registered query count,
and a refinement family must collapse onto one anchor machine.  The timed
sweep lives in ``vitex bench subscriptions --json BENCH_subscriptions.json``;
these benchmarks keep a collect-time guard (``--benchmark-disable`` in CI)
plus the structural assertions that back the committed baseline table.
"""

from __future__ import annotations

import pytest

from repro.baselines import evaluate_with_dom
from repro.bench.runner import run_subscription_scaling
from repro.bench.workloads import build_subscription_stream_document
from repro.core.multi import MultiQueryEvaluator
from repro.xpath.generator import refinement_family_queries

from conftest import SCALE

FAMILIES = 50


@pytest.fixture(scope="module")
def stream_document() -> str:
    return build_subscription_stream_document(
        hit_records=10,
        miss_records=int(400 * SCALE),
        families=FAMILIES,
        label_space=800,
        seed=9,
    )


def _register(count: int) -> MultiQueryEvaluator:
    evaluator = MultiQueryEvaluator(collect_statistics=False)
    evaluator.subscribe_many(
        refinement_family_queries(count, families=FAMILIES)
    )
    return evaluator


@pytest.mark.benchmark(group="subscription-scaling")
def test_dispatch_under_standing_subscriptions(benchmark, stream_document):
    evaluator = _register(2000)

    def run():
        evaluator.reset()
        return sum(1 for _ in evaluator.stream(stream_document, parser="pure"))

    delivered = benchmark(run)
    benchmark.extra_info["machines"] = evaluator.stats().machines
    benchmark.extra_info["delivered"] = delivered


def _oracle(queries, document):
    """DOM-oracle result keys per distinct query."""
    return {query: evaluate_with_dom(query, document).keys() for query in set(queries)}


def test_containment_sharing_collapses_machines(stream_document):
    """Acceptance: one anchor machine per family, answers from the oracle."""
    evaluator = _register(2000)
    stats = evaluator.stats()
    assert stats.machines == stats.families == FAMILIES
    results = evaluator.evaluate(stream_document, parser="pure")
    oracle = _oracle([s.source for s in evaluator.subscriptions], stream_document)
    for subscription in evaluator.subscriptions:
        assert results[subscription.name].keys() == oracle[subscription.source]


def test_quick_sweep_rows_are_parity_checked():
    """The M4 runner's row: one anchor per family, every family dispatched
    alone, and the delivered pairs equal to the summed oracle answers."""
    queries = refinement_family_queries(2000, families=FAMILIES)
    document = build_subscription_stream_document(
        hit_records=10, miss_records=200, families=FAMILIES, label_space=800, seed=9
    )
    oracle = _oracle(queries, document)
    [row] = run_subscription_scaling(
        counts=(2000,),
        families=FAMILIES,
        hit_records=10,
        miss_records=200,
        label_space=800,
        measure_memory=False,
    )
    assert row["machines"] == row["families"] == FAMILIES
    assert row["peak_fanout"] == 1
    assert row["solutions"] == sum(len(oracle[query]) for query in queries) > 0
