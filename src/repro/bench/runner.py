"""Parameter sweeps and experiment drivers.

Each function here drives one of the experiments catalogued in DESIGN.md /
EXPERIMENTS.md and returns plain data (lists of dict rows) that the benchmark
files print and assert on.  Keeping the logic out of the ``benchmarks/``
directory means the CLI (``vitex bench``) and the example scripts can run the
same experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.naive import NaiveStreamingEvaluator
from ..core.engine import TwigMEvaluator
from ..core.multi import MultiQueryEvaluator
from ..errors import BenchmarkError
from ..datasets.protein import ProteinConfig, ProteinDatabaseGenerator
from ..datasets.recursive import RecursiveBookGenerator, RecursiveConfig
from ..datasets.newsfeed import NewsFeedConfig, NewsFeedGenerator
from ..xpath.generator import linear_descendant_query
from ..xpath.normalize import compile_query
from ..core.builder import build_machine
from ..xmlstream.sax import event_batches
from .metrics import measure_run, measure_peak_memory
from .workloads import (
    MULTIQUERY_MIXES,
    PIPELINE_QUERY,
    PROTEIN_PAPER_QUERY,
    build_multiquery_document,
    build_random_tree_document,
    build_ticker_document,
    iter_workloads,
    multiquery_mix,
)


# ---------------------------------------------------------------------------
# E1: protein query, parse time vs total time
# ---------------------------------------------------------------------------


def run_protein_breakdown(
    entries: Sequence[int] = (200, 400, 800),
    parser: str = "expat",
    query: str = PROTEIN_PAPER_QUERY,
    seed: int = 11,
) -> List[Dict[str, object]]:
    """E1: the paper's protein query with a parse/total time breakdown.

    The paper reports 6.02 s total of which 4.43 s is SAX parsing on 75 MB;
    the reproduced shape is "parsing dominates, TwigM adds a modest constant
    factor", reported here for several document sizes.
    """
    rows: List[Dict[str, object]] = []
    for entry_count in entries:
        generator = ProteinDatabaseGenerator(ProteinConfig(entries=entry_count), seed=seed)
        measurement = measure_run(
            query=query,
            dataset_name=f"protein[{entry_count}]",
            make_source=lambda g=generator: g.chunks(),
            parser=parser,
        )
        row = measurement.as_row()
        row["parse_fraction"] = (
            round(measurement.parse_seconds / measurement.total_seconds, 3)
            if measurement.total_seconds
            else 0.0
        )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E2: memory stability across document sizes
# ---------------------------------------------------------------------------


def run_memory_stability(
    sizes_mb: Sequence[float] = (1, 2, 4, 8),
    query: str = PROTEIN_PAPER_QUERY,
    seed: int = 11,
    measure_allocations: bool = True,
) -> List[Dict[str, object]]:
    """E2: engine state and peak allocations as the document grows.

    The paper's claim is a flat ~1 MB footprint while streaming 75 MB; the
    reproduced shape is that peak engine state (stack entries, candidates)
    and peak allocation stay flat as document size grows.
    """
    rows: List[Dict[str, object]] = []
    for size_mb in sizes_mb:
        target_bytes = int(size_mb * 1024 * 1024)
        generator = ProteinDatabaseGenerator(
            ProteinConfig(target_bytes=target_bytes), seed=seed
        )

        def evaluate_streaming() -> TwigMEvaluator:
            evaluator = TwigMEvaluator(query)
            evaluator.evaluate(generator.chunks(), parser="native")
            return evaluator

        if measure_allocations:
            evaluator, memory = measure_peak_memory(evaluate_streaming)
            peak_mb: Optional[float] = round(memory.peak_bytes / (1024 * 1024), 3)
        else:
            evaluator = evaluate_streaming()
            peak_mb = None
        stats = evaluator.statistics
        row: Dict[str, object] = {
            "doc_mb": round(size_mb, 3),
            "elements": stats.elements,
            "max_depth": stats.max_depth,
            "peak_stack_entries": stats.peak_stack_entries,
            "peak_candidates": stats.peak_candidate_count,
            "solutions": stats.solutions_distinct,
        }
        if peak_mb is not None:
            row["peak_alloc_mb"] = peak_mb
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E3: query-size scaling, TwigM vs naive enumeration
# ---------------------------------------------------------------------------


def run_query_size_scaling(
    max_steps: int = 5,
    nesting_depth: int = 10,
    with_predicates: bool = True,
    naive_step_limit: int = 5,
    naive_record_limit: int = 2_000_000,
) -> List[Dict[str, object]]:
    """E3: ``//section[author]//section[author]…`` over deeply recursive data.

    On data where ``section`` nests ``nesting_depth`` levels deep, the number
    of explicit pattern matches of a k-step descendant query grows like
    C(depth, k); TwigM's work stays polynomial.  The returned rows contain
    the work counters and wall-clock times of both evaluators per query size.
    """
    document = RecursiveBookGenerator(
        RecursiveConfig(
            section_depth=nesting_depth,
            table_depth=2,
            section_groups=1,
            cells_per_table=1,
            author_probability=1.0,
            position_probability=1.0,
            noise_per_section=0,
        ),
        seed=21,
    ).text()
    predicate = "author" if with_predicates else None
    rows: List[Dict[str, object]] = []
    for steps in range(1, max_steps + 1):
        query = linear_descendant_query("section", steps, predicate_tag=predicate)
        twigm = TwigMEvaluator(query)
        start = time.perf_counter()
        twigm_results = twigm.evaluate(document)
        twigm_seconds = time.perf_counter() - start

        row: Dict[str, object] = {
            "steps": steps,
            "query_nodes": compile_query(query).size,
            "twigm_s": round(twigm_seconds, 4),
            "twigm_work": twigm.statistics.work_units(),
            "twigm_peak_entries": twigm.statistics.peak_stack_entries,
            "solutions": len(twigm_results),
        }

        if steps <= naive_step_limit:
            naive = NaiveStreamingEvaluator(query)
            start = time.perf_counter()
            naive_results = naive.evaluate(document)
            naive_seconds = time.perf_counter() - start
            row.update(
                {
                    "naive_s": round(naive_seconds, 4),
                    "naive_records": naive.statistics.records_created,
                    "naive_peak_records": naive.statistics.peak_live_records,
                    "agrees": naive_results.keys() == twigm_results.keys(),
                }
            )
            if naive.statistics.records_created > naive_record_limit:
                naive_step_limit = steps  # stop growing the naive side
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E4: TwigM builder is linear in query size
# ---------------------------------------------------------------------------


def run_builder_scaling(
    step_counts: Sequence[int] = (1, 5, 10, 25, 50, 100, 200),
    repeats: int = 20,
) -> List[Dict[str, object]]:
    """E4: machine-construction time as a function of query size."""
    rows: List[Dict[str, object]] = []
    for steps in step_counts:
        query = linear_descendant_query("a", steps, predicate_tag="b")
        tree = compile_query(query)
        start = time.perf_counter()
        for _ in range(repeats):
            build_machine(tree)
        elapsed = (time.perf_counter() - start) / repeats
        rows.append(
            {
                "steps": steps,
                "query_nodes": tree.size,
                "build_s": round(elapsed, 6),
                "build_us_per_node": round(1e6 * elapsed / tree.size, 3),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E5: query variety across datasets
# ---------------------------------------------------------------------------


def run_query_variety(
    workload_names: Optional[Sequence[str]] = None,
    scale: float = 0.5,
    parser: str = "native",
) -> List[Dict[str, object]]:
    """E5: throughput of the canned query suite over every dataset."""
    rows: List[Dict[str, object]] = []
    for workload in iter_workloads(workload_names):
        generator = workload.dataset(scale)
        for query in workload.queries:
            measurement = measure_run(
                query=query,
                dataset_name=workload.name,
                make_source=lambda g=generator: g.chunks(),
                parser=parser,
            )
            rows.append(measurement.as_row())
    return rows


# ---------------------------------------------------------------------------
# E7: incremental output latency
# ---------------------------------------------------------------------------


def run_incremental_latency(
    updates: int = 3000,
    seed: int = 14,
    query: Optional[str] = None,
) -> Dict[str, object]:
    """E7: time to first solution vs. time to consume the whole stream."""
    generator = NewsFeedGenerator(NewsFeedConfig(updates=updates), seed=seed)
    query = query or generator.CANONICAL_QUERY
    evaluator = TwigMEvaluator(query)

    first_solution_seconds: Optional[float] = None
    solutions = 0
    start = time.perf_counter()
    for _ in evaluator.stream(generator.chunks(), parser="native"):
        solutions += 1
        if first_solution_seconds is None:
            first_solution_seconds = time.perf_counter() - start
    total_seconds = time.perf_counter() - start
    return {
        "updates": updates,
        "solutions": solutions,
        "first_solution_s": round(first_solution_seconds or 0.0, 5),
        "total_s": round(total_seconds, 5),
        "latency_fraction": round(
            (first_solution_seconds or 0.0) / total_seconds, 5
        ) if total_seconds else 0.0,
    }


# ---------------------------------------------------------------------------
# E8: streaming-pipeline throughput (tokenizer + end-to-end, per backend)
# ---------------------------------------------------------------------------

#: Seed-engine reference throughput on the standard pipeline workload
#: (2 MB tag-dense random-tree document, ``//a[b]//c``), measured from the
#: seed commit on the same container that produced BENCH_pipeline.json.
#: Used to report speedup ratios without keeping the old code importable.
SEED_BASELINE_MB_S = {
    "evaluate": 0.62,
    "tokenize": 1.25,
}


def run_pipeline_throughput(
    target_bytes: int = 2 * 1024 * 1024,
    query: str = PIPELINE_QUERY,
    seed: int = 42,
    backends: Sequence[str] = ("pure", "expat"),
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """E8: MB/s of the streaming pipeline, tokenizer-only and end-to-end.

    For each backend the experiment reports the event-pipeline tokenizer
    throughput (``event_batches`` consumed, no query) and the end-to-end
    ``evaluate`` throughput with statistics on and off (the fused fast paths
    are engaged automatically for in-memory documents).  All backends must
    produce identical solution sets; the rows carry the best-of-``repeats``
    wall-clock times.
    """
    document = build_random_tree_document(target_bytes=target_bytes, seed=seed)
    doc_mb = len(document.encode("utf-8")) / (1024 * 1024)
    rows: List[Dict[str, object]] = []
    reference_keys = None

    def best_of(action: Callable[[], object]) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            action()
            best = min(best, time.perf_counter() - start)
        return best

    for backend in backends:
        tokenize_seconds = best_of(
            lambda: sum(len(batch) for batch in event_batches(document, parser=backend))
        )
        results = {}

        def evaluate_once(collect: bool) -> None:
            evaluator = TwigMEvaluator(query, collect_statistics=collect)
            results["set"] = evaluator.evaluate(document, parser=backend)

        eval_seconds = best_of(lambda: evaluate_once(True))
        eval_fast_seconds = best_of(lambda: evaluate_once(False))
        result_set = results["set"]
        if reference_keys is None:
            reference_keys = result_set.keys()
        tokenize_mb_s = doc_mb / tokenize_seconds if tokenize_seconds else float("inf")
        eval_mb_s = doc_mb / eval_seconds if eval_seconds else float("inf")
        eval_fast_mb_s = doc_mb / eval_fast_seconds if eval_fast_seconds else float("inf")
        rows.append(
            {
                "backend": backend,
                "doc_mb": round(doc_mb, 3),
                "query": query,
                "solutions": len(result_set),
                "results_identical": result_set.keys() == reference_keys,
                "tokenize_s": round(tokenize_seconds, 4),
                "tokenize_mb_s": round(tokenize_mb_s, 3),
                "evaluate_s": round(eval_seconds, 4),
                "evaluate_mb_s": round(eval_mb_s, 3),
                "evaluate_nostats_s": round(eval_fast_seconds, 4),
                "evaluate_nostats_mb_s": round(eval_fast_mb_s, 3),
                "speedup_vs_seed": round(eval_mb_s / SEED_BASELINE_MB_S["evaluate"], 2),
                "speedup_vs_seed_nostats": round(
                    eval_fast_mb_s / SEED_BASELINE_MB_S["evaluate"], 2
                ),
                "tokenize_speedup_vs_seed": round(
                    tokenize_mb_s / SEED_BASELINE_MB_S["tokenize"], 2
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# M1: multi-query subscription scaling (indexed dispatch)
# ---------------------------------------------------------------------------


def run_multiquery_scaling(
    counts: Sequence[int] = (1, 10, 50, 200, 500),
    kinds: Sequence[str] = MULTIQUERY_MIXES,
    records: int = 4000,
    sample: int = 20,
    seed: int = 7,
    parser: str = "pure",
) -> List[Dict[str, object]]:
    """M1: shared indexed scan vs independent per-query scans.

    For each query-mix kind and subscription count the experiment measures
    one :class:`MultiQueryEvaluator` pass (registration + evaluation) and
    estimates the cost of running every query as its own full scan by
    measuring ``sample`` individual scans and scaling linearly — measuring
    all 500 would dominate the experiment's runtime without changing the
    shape.  Shared-pass answers are verified against the sampled individual
    scans.  ``machines`` reports how many distinct TwigM machines served the
    subscriptions (1 for the duplicate mix, regardless of count).
    """
    label_count = max(max(counts), 1)
    document = build_multiquery_document(
        label_count=label_count, records=records, seed=seed
    )
    doc_mb = len(document.encode("utf-8")) / (1024 * 1024)
    rows: List[Dict[str, object]] = []
    for kind in kinds:
        for count in counts:
            queries = multiquery_mix(kind, count, label_count=label_count)
            evaluator = MultiQueryEvaluator()
            start = time.perf_counter()
            for index, query in enumerate(queries):
                evaluator.subscribe(query, name=f"q{index}")
            results = evaluator.evaluate(document, parser=parser)
            shared_seconds = time.perf_counter() - start

            sampled = queries[: min(sample, count)]
            start = time.perf_counter()
            for index, query in enumerate(sampled):
                individual = TwigMEvaluator(query).evaluate(document, parser=parser)
                if results[f"q{index}"].keys() != individual.keys():
                    raise BenchmarkError(
                        f"shared pass disagrees with individual scan for {query!r}"
                    )
            sample_seconds = time.perf_counter() - start
            independent_seconds = sample_seconds / len(sampled) * count
            machines = evaluator.machine_count
            evaluator.close()  # release the compiled-query cache references

            rows.append(
                {
                    "mix": kind,
                    "queries": count,
                    "machines": machines,
                    "doc_mb": round(doc_mb, 3),
                    "solutions": sum(len(result) for result in results.values()),
                    "shared_s": round(shared_seconds, 4),
                    "independent_est_s": round(independent_seconds, 4),
                    "speedup": round(independent_seconds / max(shared_seconds, 1e-9), 2),
                    "shared_mb_s": round(doc_mb / max(shared_seconds, 1e-9), 3),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# M2: subscription service end-to-end latency and throughput
# ---------------------------------------------------------------------------


def run_service_scaling(
    counts: Sequence[int] = (1, 25, 100, 200),
    records: int = 1500,
    chunk_size: int = 4096,
    parser: str = "native",
    seed: int = 7,
    batch_frames: bool = True,
) -> List[Dict[str, object]]:
    """M2: end-to-end solution latency/throughput over the asyncio service.

    For each subscriber count the experiment runs a full in-process stack —
    :class:`~repro.service.server.ServiceServer` on an ephemeral loopback
    port, ``count`` subscriber connections (disjoint-label standing
    queries) and one publisher connection feeding the M1 document in
    ``chunk_size`` chunks — and measures wall-clock from first feed until
    every subscriber has received its ``eof``.  Per-solution latency is the
    gap between the server stamping a solution frame (``ts``, the shared
    loop's monotonic clock) and the subscriber's receive callback: the full
    parse → fan-out → outbox → TCP → client-decode path.
    """
    import asyncio

    from ..service.client import ServiceConnection
    from ..service.server import ServiceServer

    label_count = max(max(counts), 1)
    document = build_multiquery_document(
        label_count=label_count, records=records, seed=seed
    )
    doc_mb = len(document.encode("utf-8")) / (1024 * 1024)
    chunks = [
        document[start:start + chunk_size]
        for start in range(0, len(document), chunk_size)
    ]
    queries = multiquery_mix("disjoint", label_count, label_count=label_count)

    async def _run_one(count: int) -> Dict[str, object]:
        loop = asyncio.get_running_loop()
        server = ServiceServer(parser=parser, batch_frames=batch_frames)
        await server.start(port=0)
        host, port = server.address
        subscribers: List[ServiceConnection] = []
        latencies: List[float] = []
        received = 0

        async def _subscriber(index: int, client: ServiceConnection) -> int:
            got = 0
            async for _name, _solution, frame in client.solutions(stop_at_eof=True):
                latencies.append(loop.time() - frame["ts"])
                got += 1
            return got

        try:
            for index in range(count):
                client = await ServiceConnection.connect(host, port)
                await client.subscribe(queries[index], name=f"q{index}")
                subscribers.append(client)
            publisher = await ServiceConnection.connect(host, port)
            consumers = [
                asyncio.ensure_future(_subscriber(index, client))
                for index, client in enumerate(subscribers)
            ]
            started = time.perf_counter()
            for chunk in chunks:
                await publisher.feed(chunk)
            summary = await publisher.finish()
            counts_received = await asyncio.gather(*consumers)
            wall = time.perf_counter() - started
            received = sum(counts_received)
            stats = await publisher.stats()
            await publisher.close()
        finally:
            for client in subscribers:
                await client.close()
            await server.close()
        dropped = sum(
            detail["dropped"] for detail in stats["subscription_detail"].values()
        )
        latencies.sort()
        mean_ms = (sum(latencies) / len(latencies) * 1000) if latencies else 0.0
        p95_ms = (latencies[int(len(latencies) * 0.95)] * 1000) if latencies else 0.0
        return {
            "subscribers": count,
            "doc_mb": round(doc_mb, 3),
            "chunks": len(chunks),
            "elements": summary["elements"],
            "solutions": received,
            "dropped": dropped,
            "wall_s": round(wall, 4),
            "solutions_per_s": round(received / wall, 1) if wall > 0 else 0.0,
            "elements_per_s": round(summary["elements"] / wall, 1) if wall > 0 else 0.0,
            "mean_latency_ms": round(mean_ms, 3),
            "p95_latency_ms": round(p95_ms, 3),
        }

    rows: List[Dict[str, object]] = []
    for count in counts:
        row = asyncio.run(_run_one(count))
        expected = _expected_disjoint_solutions(document, count, label_count)
        if row["solutions"] + row["dropped"] != expected:
            raise BenchmarkError(
                f"service delivered {row['solutions']} (+{row['dropped']} dropped) "
                f"solutions for {count} subscribers; expected {expected}"
            )
        rows.append(row)
    return rows


def _expected_disjoint_solutions(document: str, count: int, label_count: int) -> int:
    """Ground truth for M2: records whose label index < subscriber count."""
    total = 0
    for index in range(count):
        total += document.count(f"<s{index}>")
    return total


# ---------------------------------------------------------------------------
# M3: sharded service scaling across worker processes
# ---------------------------------------------------------------------------


def run_service_sharded_scaling(
    workers: Sequence[int] = (1, 2, 4),
    subscribers: int = 12,
    # Sized so per-document parse work clears the pool's fixed CPU cost
    # (interpreter spawn ~0.2 s/worker) and the 10 ms os.times() tick by
    # several ticks: the events-vs-broadcast CPU gap is the sweep's
    # headline signal and must not drown in scheduler noise.
    records: int = 12000,
    chunk_size: int = 4096,
    parser: str = "native",
    seed: int = 7,
    shard_modes: Sequence[str] = ("events", "broadcast"),
) -> List[Dict[str, object]]:
    """M3: the M2 workload against 1, 2, ... worker processes.

    Every worker count runs the *identical* workload — ``subscribers``
    disjoint-label standing queries, the M1 document fed in ``chunk_size``
    chunks, delivery checked against the string-count ground truth — so the
    ``speedup`` column is a clean same-machine ratio of walls.  ``workers=1``
    uses the plain single-process :class:`ServiceServer` (it is both the
    baseline and the protocol-parity anchor, ``mode="single"``); higher
    counts spawn :class:`~repro.service.sharding.ShardedServiceServer` with
    real child processes once per entry of ``shard_modes`` — ``events``
    (parse-once binary event frames, protocol v2) and ``broadcast``
    (raw-XML fan-out, every worker re-parses) — so the measured speedup
    includes every pipe/broadcast cost.

    Besides wall time each row reports ``total_cpu_s``: the
    ``os.times()`` delta across the run summed over this process *and* its
    reaped worker children.  That is the honest cost axis of the parse-once
    work — broadcast mode burns roughly one extra document-parse of CPU per
    additional worker, events mode does not, which shows up as a lower
    ``cpu_ms_per_solution`` at the same worker count even when walls tie on
    a saturated machine.

    Speedup is relative to the ``workers=1`` row of the same run (the row is
    added implicitly when missing).  On a single-core machine expect ~1x or
    slightly below at 2 workers — the sweep measures honestly; the scaling
    headroom only shows on multi-core hosts.
    """
    import asyncio
    import os

    from ..service.client import ServiceConnection
    from ..service.server import ServiceServer
    from ..service.sharding import ShardedServiceServer

    counts = sorted({max(1, int(value)) for value in workers} | {1})
    for mode in shard_modes:
        if mode not in ("events", "broadcast"):
            raise BenchmarkError(f"unknown shard mode {mode!r}")
    label_count = max(subscribers, 1)
    document = build_multiquery_document(
        label_count=label_count, records=records, seed=seed
    )
    doc_mb = len(document.encode("utf-8")) / (1024 * 1024)
    chunks = [
        document[start:start + chunk_size]
        for start in range(0, len(document), chunk_size)
    ]
    queries = multiquery_mix("disjoint", label_count, label_count=label_count)
    expected = _expected_disjoint_solutions(document, subscribers, label_count)

    async def _run_one(worker_count: int, mode: str) -> Dict[str, object]:
        loop = asyncio.get_running_loop()
        if worker_count <= 1:
            server = ServiceServer(parser=parser)
        else:
            server = ShardedServiceServer(
                workers=worker_count, shard_mode=mode, parser=parser
            )
        await server.start(port=0)
        host, port = server.address
        clients: List[ServiceConnection] = []
        latencies: List[float] = []

        async def _subscriber(client: ServiceConnection) -> int:
            got = 0
            async for _name, _solution, frame in client.solutions(stop_at_eof=True):
                latencies.append(loop.time() - frame["ts"])
                got += 1
            return got

        try:
            for index in range(subscribers):
                client = await ServiceConnection.connect(host, port)
                await client.subscribe(queries[index], name=f"q{index}")
                clients.append(client)
            publisher = await ServiceConnection.connect(host, port)
            consumers = [
                asyncio.ensure_future(_subscriber(client)) for client in clients
            ]
            started = time.perf_counter()
            for chunk in chunks:
                await publisher.feed(chunk)
            summary = await publisher.finish()
            received = sum(await asyncio.gather(*consumers))
            wall = time.perf_counter() - started
            stats = await publisher.stats()
            await publisher.close()
        finally:
            for client in clients:
                await client.close()
            await server.close()
        dropped = sum(
            detail["dropped"] for detail in stats["subscription_detail"].values()
        )
        if received + dropped != expected:
            raise BenchmarkError(
                f"sharded service with {worker_count} worker(s) delivered "
                f"{received} (+{dropped} dropped) solutions; expected {expected}"
            )
        latencies.sort()
        mean_ms = (sum(latencies) / len(latencies) * 1000) if latencies else 0.0
        p95_ms = (latencies[int(len(latencies) * 0.95)] * 1000) if latencies else 0.0
        per_worker = "/".join(
            str(entry["events_per_sec"]) for entry in stats.get("workers", ())
        )
        return {
            "workers": worker_count,
            "mode": "single" if worker_count <= 1 else mode,
            "subscribers": subscribers,
            "doc_mb": round(doc_mb, 3),
            "chunks": len(chunks),
            "elements": summary["elements"],
            "solutions": received,
            "dropped": dropped,
            "wall_s": round(wall, 4),
            "solutions_per_s": round(received / wall, 1) if wall > 0 else 0.0,
            "elements_per_s": round(summary["elements"] / wall, 1) if wall > 0 else 0.0,
            "mean_latency_ms": round(mean_ms, 3),
            "p95_latency_ms": round(p95_ms, 3),
            "per_worker_events_per_s": per_worker,
        }

    rows: List[Dict[str, object]] = []
    for count in counts:
        modes = ("single",) if count <= 1 else tuple(shard_modes)
        for mode in modes:
            before = os.times()
            row = asyncio.run(_run_one(count, mode))
            after = os.times()
            # user + system of this process plus its reaped worker children
            # (server.close() waits on every worker before _run_one returns).
            total_cpu = sum(after[i] - before[i] for i in range(4))
            row["total_cpu_s"] = round(total_cpu, 3)
            solutions = int(row["solutions"]) or 1
            row["cpu_ms_per_solution"] = round(total_cpu * 1000 / solutions, 3)
            rows.append(row)
    baseline_wall = float(rows[0]["wall_s"]) or 1e-9
    for row in rows:
        row["speedup"] = round(baseline_wall / max(float(row["wall_s"]), 1e-9), 2)
    return rows


# ---------------------------------------------------------------------------
# M4: million-subscription index scaling (trie dispatch + containment sharing)
# ---------------------------------------------------------------------------


def run_subscription_scaling(
    counts: Sequence[int] = (10_000, 100_000, 1_000_000),
    families: int = 200,
    hit_records: int = 10,
    miss_records: int = 2000,
    label_space: int = 4000,
    parser: str = "pure",
    seed: int = 9,
    measure_memory: bool = True,
) -> List[Dict[str, object]]:
    """M4: the subscription index at 10k/100k/1M standing queries.

    For each count the refinement-family workload
    (:func:`~repro.xpath.generator.refinement_family_queries`: ``families``
    containment families × 5 linear refinement shapes) is registered once —
    each family rides one anchor machine — and the row reports:

    * **registration rate** — one :meth:`~repro.core.multi.\
MultiQueryEvaluator.subscribe_many` batch, wall-clocked;
    * **bytes/subscription** — a second, ``tracemalloc``-traced registration
      pass (traced separately so tracing never taints the timing);
    * **per-event dispatch cost** — streaming the miss-heavy M4 document
      (:func:`~repro.bench.workloads.build_subscription_stream_document`)
      through the standing index.  Misses dominate by construction, so the
      column measures the index lookup itself: the family anchors skip the
      record scaffolding entirely.

    ``machines``/``trie_nodes``/``peak_fanout`` come from
    :meth:`~repro.core.multi.MultiQueryEvaluator.stats`; ``solutions`` is a
    structural guard column for ``vitex bench compare``.
    """
    import tracemalloc

    from ..xpath.generator import refinement_family_queries
    from .workloads import build_subscription_stream_document

    document = build_subscription_stream_document(
        hit_records=hit_records,
        miss_records=miss_records,
        families=families,
        label_space=label_space,
        seed=seed,
    )
    records = hit_records + miss_records
    elements = 3 * records + 1  # r/s/v per record plus the feed wrapper
    rows: List[Dict[str, object]] = []
    for count in counts:
        queries = refinement_family_queries(count, families)
        evaluator = MultiQueryEvaluator(collect_statistics=False)
        start = time.perf_counter()
        evaluator.subscribe_many(queries)
        register_seconds = time.perf_counter() - start

        delivered = 0
        start = time.perf_counter()
        for _ in evaluator.stream(document, parser=parser):
            delivered += 1
        dispatch_seconds = time.perf_counter() - start
        # After the stream so peak_fanout reflects materialized dispatch.
        stats = evaluator.stats()
        evaluator.close()

        row: Dict[str, object] = {
            "subscriptions": count,
            "families": stats.families,
            "machines": stats.machines,
            "trie_nodes": stats.trie_nodes,
            "peak_fanout": stats.peak_dispatch_fanout,
            "records": records,
            "register_s": round(register_seconds, 4),
            "registrations_per_s": round(count / max(register_seconds, 1e-9), 1),
            "dispatch_s": round(dispatch_seconds, 4),
            "events_per_s": round(elements / max(dispatch_seconds, 1e-9), 1),
            "dispatch_us_per_event": round(dispatch_seconds * 1e6 / elements, 3),
            "solutions": delivered,
        }
        if measure_memory:
            tracemalloc.start()
            traced = MultiQueryEvaluator(collect_statistics=False)
            base_bytes = tracemalloc.get_traced_memory()[0]
            traced.subscribe_many(queries)
            used = tracemalloc.get_traced_memory()[0] - base_bytes
            tracemalloc.stop()
            traced.close()
            row["bytes_per_subscription"] = round(used / count, 1)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# M5: infinite-stream soak (flat memory over an unbounded document stream)
# ---------------------------------------------------------------------------


def run_soak(
    documents: int = 1200,
    entries_per_document: int = 600,
    window_documents: int = 100,
    parser: str = "native",
    retain_documents: int = 32,
    warmup_windows: int = 2,
    flatness_tolerance: float = 0.10,
    flatness_slack_bytes: int = 1 << 20,
    stability_floor: float = 0.25,
    seed: int = 17,
    enforce: bool = True,
) -> List[Dict[str, object]]:
    """M5: stream ``documents`` ticker documents through one unbounded
    :class:`~repro.core.docstream.DocumentStreamSession` and prove the
    memory story.

    The session runs with a live retention spool (``retain_documents``) and
    three standing alert queries; every ``window_documents`` completed
    documents a :class:`~repro.core.docstream.WindowStats` seals and the
    benchmark samples current traced allocations (``tracemalloc``) and the
    process RSS high-water (``resource.getrusage``).  After the first
    ``warmup_windows`` windows the memory curve must be flat: traced
    current bytes may not exceed the warm-up baseline by more than
    ``flatness_tolerance`` (with ``flatness_slack_bytes`` of absolute
    slack against small-baseline noise) in any later window, the RSS
    high-water may not
    grow past it by more, and no steady window's element throughput may
    fall below ``stability_floor`` of the steady median.  Violations raise
    :class:`~repro.errors.BenchmarkError` (the CI gate) unless ``enforce``
    is off.

    Returns two rows — ``phase="warmup"`` and ``phase="steady"`` — for the
    report table and the ``bench compare`` gate.
    """
    import tracemalloc

    try:
        import resource
    except ImportError:  # pragma: no cover - non-unix platforms
        resource = None  # type: ignore[assignment]

    total_windows = documents // window_documents
    if total_windows <= warmup_windows:
        raise BenchmarkError(
            f"soak needs more than {warmup_windows} windows: "
            f"{documents} documents / {window_documents} per window "
            f"gives only {total_windows}"
        )
    # A handful of distinct documents, cycled: document generation stays out
    # of the measured loop while the spool still sees varied content.  The
    # alert cadence shrinks with small documents so every size delivers.
    alert_every = min(50, max(2, entries_per_document // 2))
    corpus = [
        build_ticker_document(entries_per_document, alert_every=alert_every, seed=seed + i)
        for i in range(8)
    ]
    windows: List[Dict[str, object]] = []
    memory_samples: List[Tuple[int, Optional[int]]] = []

    def _on_window(stats) -> None:
        current, _peak = tracemalloc.get_traced_memory()
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if resource is not None
            else None
        )
        windows.append(stats.as_dict())
        memory_samples.append((current, rss_kb))

    engine = MultiQueryEvaluator()
    for query in ("//alert[price]", "/ticker/alert//vol", "//alert/price"):
        engine.subscribe(query)
    session = engine.document_stream(
        parser=parser,
        retain_documents=retain_documents,
        window_documents=window_documents,
        on_window=_on_window,
        on_error="raise",
    )
    matches = 0
    tracemalloc.start()
    try:
        for index in range(documents):
            document = corpus[index % len(corpus)]
            # Split each document so the boundary scanner sees mid-document
            # chunk edges, the shape an endless socket feed produces.
            midpoint = len(document) // 2
            matches += len(session.feed_text(document[:midpoint]))
            matches += len(session.feed_text(document[midpoint:]))
        final = session.stats()
    finally:
        session.close()
        engine.close()
        tracemalloc.stop()

    if len(windows) < total_windows:  # pragma: no cover - sanity
        raise BenchmarkError(
            f"soak sealed {len(windows)} windows, expected {total_windows}"
        )
    warm = windows[:warmup_windows]
    steady = windows[warmup_windows:]
    traced_base, rss_base = memory_samples[warmup_windows - 1]
    steady_samples = memory_samples[warmup_windows:]
    traced_high = max(sample[0] for sample in steady_samples)
    traced_growth = (traced_high - traced_base) / max(traced_base, 1)
    rss_final = memory_samples[-1][1]
    rss_growth = (
        (rss_final - rss_base) / max(rss_base, 1)
        if rss_base is not None and rss_final is not None
        else 0.0
    )
    rates = [float(w["elements_per_s"]) for w in steady]
    median_rate = sorted(rates)[len(rates) // 2]
    slowest = min(rates)

    if enforce:
        # The percentage check alone would gate on noise when the warm
        # baseline is tiny (a few hundred KiB of live session state), so a
        # small absolute slack applies; a real per-document leak over the
        # steady phase dwarfs both bounds.
        traced_ok = (traced_high - traced_base) <= max(
            flatness_tolerance * traced_base, flatness_slack_bytes
        )
        if not traced_ok:
            raise BenchmarkError(
                f"soak RSS not flat: traced allocations grew "
                f"{traced_growth:.1%} past the warm-up baseline "
                f"({traced_base} -> {traced_high} bytes; "
                f"tolerance {flatness_tolerance:.0%})"
            )
        if rss_growth > flatness_tolerance:
            raise BenchmarkError(
                f"soak RSS not flat: process high-water grew "
                f"{rss_growth:.1%} past the warm-up baseline "
                f"({rss_base} -> {rss_final} KiB; "
                f"tolerance {flatness_tolerance:.0%})"
            )
        if slowest < stability_floor * median_rate:
            raise BenchmarkError(
                f"soak throughput unstable: slowest steady window ran "
                f"{slowest:.0f} elements/s vs median {median_rate:.0f} "
                f"(floor {stability_floor:.0%})"
            )

    def _phase_row(
        phase: str,
        group: List[Dict[str, object]],
        traced_bytes: int,
        rss_kb: Optional[int],
    ) -> Dict[str, object]:
        docs = sum(int(w["documents"]) for w in group)
        elements = sum(int(w["elements"]) for w in group)
        wall = sum(float(w["duration_s"]) for w in group) or 1e-9
        return {
            "phase": phase,
            "windows": len(group),
            "documents": docs,
            "elements": elements,
            "matches": sum(int(w["matches"]) for w in group),
            "docs_per_s": round(docs / wall, 1),
            "elements_per_s": round(elements / wall, 1),
            "peak_live_entries": max(int(w["peak_live_entries"]) for w in group),
            "latency_p95_ms": round(
                max(float(w["latency_p95_ms"]) for w in group), 3
            ),
            "traced_mb": round(traced_bytes / (1024 * 1024), 3),
            "rss_hw_mb": (
                round(rss_kb / 1024, 1) if rss_kb is not None else None
            ),
        }

    warmup_row = _phase_row("warmup", warm, traced_base, rss_base)
    steady_row = _phase_row("steady", steady, traced_high, rss_final)
    steady_row["traced_growth_pct"] = round(traced_growth * 100, 2)
    steady_row["rss_growth_pct"] = round(rss_growth * 100, 2)
    steady_row["spool_bytes"] = int(final["spool"]["bytes"]) if final.get("spool") else 0
    if int(warmup_row["matches"]) + int(steady_row["matches"]) != matches:
        raise BenchmarkError(  # pragma: no cover - sanity
            "soak window match totals disagree with delivered pairs"
        )
    return [warmup_row, steady_row]


# ---------------------------------------------------------------------------
# Generic sweep helper
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    """Result of a generic parameter sweep."""

    parameter: str
    rows: List[Dict[str, object]]


def sweep(
    parameter: str,
    values: Sequence[object],
    run_one: Callable[[object], Dict[str, object]],
) -> SweepResult:
    """Run ``run_one`` for every value of ``parameter`` and collect rows."""
    rows = []
    for value in values:
        row = {parameter: value}
        row.update(run_one(value))
        rows.append(row)
    return SweepResult(parameter=parameter, rows=rows)
