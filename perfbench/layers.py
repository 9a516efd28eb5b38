"""The staged traced run: per-layer numbers, measured from outside.

The gated pass treats vitex as a black box.  This pass takes the same
inputs and (a) repeats the real run with a span around each call into
vitex, (b) replays the work *stage by stage* — tokenize, then push the
recorded events through the transitions, then encode/decode them, then
feed the frames — timing each module's public entry point on the output
of the stage before it.  The staged replay is not the fused execution;
``core.fastpath.fused_vs_staged`` and ``core.session.overhead_s`` say by
how much.

Probes fail soft.  They reach below the ``[repro]`` surface on purpose,
so a later change may delete or rename what they call: a probe whose entry
point is gone reports its metrics as *absent* (with the error) and the
command carries on.  Metrics a workload does not exercise are simply not
produced; the caller reports them as 0.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import Counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

from . import workloads
from .tracer import Tracer

Metrics = Dict[str, float]

ONE_SHOT = ("protein-oneshot", "recursive-oneshot")


#: What a deleted, renamed or re-shaped entry point raises.
MISSING_ENTRY_POINT = (ImportError, AttributeError, TypeError, KeyError)


class Probes:
    """Collects metrics, and the error of every probe that could not run."""

    def __init__(self) -> None:
        self.metrics: Metrics = {}
        self.absent: Dict[str, str] = {}

    def run(self, names: Sequence[str], probe: Callable[[], Metrics]) -> None:
        """Run ``probe``; on a missing or changed entry point mark ``names``
        absent instead of failing."""
        try:
            self.metrics.update(probe())
        except MISSING_ENTRY_POINT as exc:
            self.mark_absent(names, exc)

    def mark_absent(self, names: Sequence[str], exc: BaseException) -> None:
        for name in names:
            self.absent.setdefault(name, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# what each workload replays
# ---------------------------------------------------------------------------


def _staged_inputs(spec: Dict[str, Any]) -> Tuple[List[List[str]], List[Tuple[str, str]]]:
    """Documents (each a list of chunks) and ``(query, name)`` pairs."""
    name = spec["workload"]
    if name in ONE_SHOT:
        with open(spec["doc"], encoding="utf-8") as handle:
            text = handle.read()
        size = 64 * 1024
        return [[text[i : i + size] for i in range(0, len(text), size)]], [(spec["query"], "q")]
    if name == "subs-100k":
        from . import inputs

        queries = inputs.refinement_family_queries(spec["subscriptions"], spec["families"])
        return [spec["chunks"]], [(query, f"q{n}") for n, query in enumerate(queries)]
    if name == "stream-churn":
        from . import inputs

        corpus = spec["corpus"]
        documents = [
            [document[: len(document) // 2], document[len(document) // 2 :]]
            for document in (corpus[d % len(corpus)] for d in range(spec["documents"]))
        ]
        pairs = [(inputs.TICKER_QUERIES[q][0], f"t{q}") for q in range(inputs.TICKER_STANDING)]
        return documents, pairs
    # The closed phase only: it is what service.server.wire_overhead_s and
    # the throughput metrics are about.
    chunks = ["<feed>"] + spec["closed_chunks"] + ["</feed>"]
    return [chunks], [tuple(pair) for pair in spec["queries"]]


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _probe_registration(pairs: Sequence[Tuple[str, str]]) -> Metrics:
    from repro.core.builder import build_machine, shared_compiled_cache
    from repro.core.multi import MultiQueryEvaluator
    from repro.xpath.normalize import compile_query

    distinct = list(dict.fromkeys(query for query, _ in pairs))[:2000]
    begin = time.perf_counter()
    trees = [compile_query(query) for query in distinct]
    compile_s = time.perf_counter() - begin
    begin = time.perf_counter()
    for tree in trees:
        build_machine(tree)
    build_s = time.perf_counter() - begin

    shared_compiled_cache.clear()
    evaluator = MultiQueryEvaluator()
    begin = time.perf_counter()
    evaluator.subscribe_many(pairs)
    register_s = time.perf_counter() - begin
    hits, misses = shared_compiled_cache.hits, shared_compiled_cache.misses
    stats = evaluator.stats()

    query, name = pairs[0]
    rounds = 200
    begin = time.perf_counter()
    for _ in range(rounds):
        evaluator.unregister(name)
        evaluator.subscribe(query, name=name)
    churn_s = time.perf_counter() - begin
    evaluator.close()

    # Memory in its own pass: tracemalloc slows registration several-fold.
    tracemalloc.start()
    traced = MultiQueryEvaluator()
    base = tracemalloc.get_traced_memory()[0]
    traced.subscribe_many(pairs)
    used = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    traced.close()
    return {
        "xpath.compile_us": compile_s * 1e6 / len(distinct),
        "core.builder.build_us": build_s * 1e6 / len(distinct),
        "core.builder.cache_hit_ratio": hits / (hits + misses),
        "core.queryindex.register_us": register_s * 1e6 / len(pairs),
        "core.queryindex.bytes_per_subscription": used / len(pairs),
        "core.queryindex.machines": stats.machines,
        "core.queryindex.families": stats.families,
        "core.queryindex.trie_nodes": stats.trie_nodes,
        "core.queryindex.churn_us": churn_s * 1e6 / rounds,
    }


REGISTRATION_METRICS = (
    "xpath.compile_us", "core.builder.build_us", "core.builder.cache_hit_ratio",
    "core.queryindex.register_us", "core.queryindex.bytes_per_subscription",
    "core.queryindex.machines", "core.queryindex.families",
    "core.queryindex.trie_nodes", "core.queryindex.churn_us",
)


def _staged_replay(
    spec: Dict[str, Any],
    documents: Sequence[Sequence[str]],
    pairs: Sequence[Tuple[str, str]],
    tracer: Tracer,
    probes: Probes,
) -> None:
    """Tokenize, push, (encode, decode, frame-feed): one stage at a time."""
    from repro.core.multi import MultiQueryEvaluator
    from repro.xmlstream.events import EndElement, StartElement

    name = spec["workload"]
    expat = spec.get("parser") == "expat"
    if expat:
        from repro.xmlstream.expat_backend import ExpatEventSource as Source

        scan = "xmlstream.expat"
    else:
        from repro.xmlstream.tokenizer import StreamTokenizer as Source

        scan = "xmlstream.tokenizer"

    evaluator = MultiQueryEvaluator()
    evaluator.subscribe_many(pairs)
    single = None
    if name in ONE_SHOT:
        from repro.core.engine import TwigMEvaluator

        single = TwigMEvaluator(pairs[0][0])
        push = single.feed
    else:
        push = evaluator.push

    # Optional later stages: each may be absent on its own.
    encoder = decoder = frame_engine = None
    if name in ("stream-churn", "sharded-events"):
        try:
            from repro.xmlstream.eventcodec import EventFrameDecoder, EventFrameEncoder

            encoder, decoder = EventFrameEncoder(), EventFrameDecoder()
        except (ImportError, AttributeError) as exc:
            probes.mark_absent(CODEC_METRICS + FRAME_METRICS, exc)
    if name == "sharded-events" and encoder is not None:
        try:
            frame_engine = MultiQueryEvaluator()
            frame_engine.subscribe_many(pairs)
            getattr(frame_engine.event_session(), "feed_frame")
        except (ImportError, AttributeError, TypeError) as exc:
            frame_engine = None
            probes.mark_absent(FRAME_METRICS, exc)

    work_units = peak_candidates = peak_entries = 0
    counter_error = None

    def harvest_counters() -> None:
        """Fold the machines' counters in before a reset zeroes them."""
        nonlocal work_units, peak_candidates, peak_entries
        machines = (
            [single] if single is not None
            else [runtime.evaluator for runtime in evaluator.index.runtimes]
        )
        for machine in machines:
            statistics = machine.statistics
            work_units += statistics.work_units()
            peak_candidates = max(peak_candidates, statistics.peak_candidate_count)
            peak_entries = max(peak_entries, statistics.peak_stack_entries)

    tags: Counter = Counter()
    tag_sequence: List[str] = []
    element_kinds = (StartElement, EndElement)
    with tracer.span("staged"):
        for chunks in documents:
            source = Source()
            if encoder is not None:
                encoder.reset()
                decoder.reset()
            frame_session = frame_engine.event_session() if frame_engine is not None else None
            for chunk in list(chunks) + [None]:
                index = tracer.begin(f"{scan}.scan")
                events = source.feed(chunk) if chunk is not None else source.close()
                tracer.end(index)
                index = tracer.begin("core.transitions.push")
                for event in events:
                    push(event)
                tracer.end(index)
                tracer.count("xmlstream.events", len(events))
                tracer.count("xmlstream.bytes", len(chunk) if chunk is not None else 0)
                names = [event.name for event in events if event.__class__ in element_kinds]
                tags.update(names)
                if len(tag_sequence) < 2_000_000:
                    tag_sequence.extend(names)
                if encoder is not None:
                    index = tracer.begin("xmlstream.eventcodec.encode")
                    frame = encoder.encode(events)
                    tracer.end(index)
                    tracer.count("xmlstream.eventcodec.frame_bytes", len(frame))
                    index = tracer.begin("xmlstream.eventcodec.decode")
                    decoder.decode(frame)
                    tracer.end(index)
                    if frame_session is not None:
                        index = tracer.begin("core.framepath.feed")
                        frame_session.feed_frame(frame)
                        tracer.end(index)
            try:
                harvest_counters()
            except (AttributeError, TypeError) as exc:
                counter_error = exc
            if single is None:
                evaluator.reset()
            if frame_engine is not None:
                frame_engine.reset()

    events_total = tracer.counts["xmlstream.events"]
    xml_bytes = tracer.counts["xmlstream.bytes"]
    scan_s = tracer.total(f"{scan}.scan")
    push_s = tracer.total("core.transitions.push")
    metrics = probes.metrics
    metrics[f"{scan}.scan_s"] = scan_s
    metrics[f"{scan}.mb_s"] = xml_bytes / 1e6 / scan_s
    metrics["xmlstream.events"] = events_total
    metrics["core.transitions.push_s"] = push_s
    metrics["core.transitions.us_per_event"] = push_s * 1e6 / events_total
    if encoder is not None:
        encode_s = tracer.total("xmlstream.eventcodec.encode")
        metrics["xmlstream.eventcodec.encode_s"] = encode_s
        metrics["xmlstream.eventcodec.encode_us_per_event"] = encode_s * 1e6 / events_total
        metrics["xmlstream.eventcodec.decode_s"] = tracer.total("xmlstream.eventcodec.decode")
        metrics["xmlstream.eventcodec.frame_bytes_per_xml_byte"] = (
            tracer.counts["xmlstream.eventcodec.frame_bytes"] / xml_bytes
        )
    if frame_engine is not None:
        feed_s = tracer.total("core.framepath.feed")
        metrics["core.framepath.feed_s"] = feed_s
        metrics["core.framepath.us_per_event"] = feed_s * 1e6 / events_total

    if counter_error is not None:
        probes.mark_absent(COUNTER_METRICS, counter_error)
    else:
        metrics["core.transitions.work_units"] = work_units
        metrics["core.transitions.peak_candidates"] = peak_candidates
        metrics["core.stack.peak_entries"] = peak_entries

    def dispatch() -> Metrics:
        index = evaluator.index
        lookup = index.dispatch
        begin = time.perf_counter()
        for tag in tag_sequence:
            lookup(tag)
        dispatch_s = time.perf_counter() - begin
        total = sum(tags.values())
        return {
            "core.queryindex.dispatch_us": dispatch_s * 1e6 / len(tag_sequence),
            "core.queryindex.fanout_mean": sum(
                len(lookup(tag)) * count for tag, count in tags.items()
            ) / total,
            "core.queryindex.fanout_peak": index.peak_fanout,
        }

    probes.run(DISPATCH_METRICS, dispatch)
    evaluator.close()
    if frame_engine is not None:
        frame_engine.close()


CODEC_METRICS = (
    "xmlstream.eventcodec.encode_s", "xmlstream.eventcodec.encode_us_per_event",
    "xmlstream.eventcodec.decode_s", "xmlstream.eventcodec.frame_bytes_per_xml_byte",
)
FRAME_METRICS = ("core.framepath.feed_s", "core.framepath.us_per_event")
COUNTER_METRICS = (
    "core.transitions.work_units", "core.transitions.peak_candidates", "core.stack.peak_entries",
)
DISPATCH_METRICS = (
    "core.queryindex.dispatch_us", "core.queryindex.fanout_mean", "core.queryindex.fanout_peak",
)
REPLAY_METRICS = (
    "xmlstream.tokenizer.scan_s", "xmlstream.tokenizer.mb_s", "xmlstream.expat.scan_s",
    "xmlstream.expat.mb_s", "xmlstream.events", "core.transitions.push_s",
    "core.transitions.us_per_event",
) + CODEC_METRICS + FRAME_METRICS + COUNTER_METRICS + DISPATCH_METRICS


def _probe_session_feed(
    chunks: Sequence[str], pairs: Sequence[Tuple[str, str]], tracer: Tracer
) -> Metrics:
    """The in-process cost of what the server does with the same chunks."""
    import repro

    engine = repro.Engine()
    engine.subscribe_many(pairs)
    session = engine.open()
    for chunk in chunks:
        with tracer.span("core.session.feed"):
            session.feed_text(chunk)
    session.finish()
    engine.close()
    return {"core.session.feed_s": tracer.total("core.session.feed")}


def _probe_protocol(chunks: Sequence[str], pairs: Sequence[Tuple[str, str]]) -> Metrics:
    import repro
    from repro.service.protocol import (
        decode_frames, encode_frame, solution_from_payload, solution_to_payload,
    )

    engine = repro.Engine()
    engine.subscribe_many(pairs)
    session = engine.open()
    matches = []
    for chunk in chunks:
        matches.extend(session.feed_text(chunk))
    begin = time.perf_counter()
    frames = [
        encode_frame({
            "type": "solution", "name": match.name, "ts": 0.0,
            "solution": solution_to_payload(match.solution),
        })
        for match in matches
    ]
    encode_s = time.perf_counter() - begin
    begin = time.perf_counter()
    for frame in frames:
        for decoded in decode_frames(frame):
            solution_from_payload(decoded["solution"])
    decode_s = time.perf_counter() - begin
    engine.close()
    return {
        "service.protocol.encode_us_per_match": encode_s * 1e6 / len(matches),
        "service.protocol.decode_us_per_match": decode_s * 1e6 / len(matches),
        "service.protocol.bytes_per_match": sum(map(len, frames)) / len(matches),
    }


PROTOCOL_METRICS = (
    "service.protocol.encode_us_per_match", "service.protocol.decode_us_per_match",
    "service.protocol.bytes_per_match",
)


def _probe_docstream(
    spec: Dict[str, Any], traced: Dict[str, Any], tracer: Tracer
) -> Metrics:
    import repro
    from repro.core.docstream import DocumentBoundaryScanner

    scanner = DocumentBoundaryScanner()
    corpus = spec["corpus"]
    begin = time.perf_counter()
    for d in range(spec["documents"]):
        document = corpus[d % len(corpus)]
        scanner.feed(document[: len(document) // 2])
        scanner.feed(document[len(document) // 2 :])
    boundary_s = time.perf_counter() - begin

    blob = traced["snapshot"]
    begin = time.perf_counter()
    repro.Engine().restore(repro.loads_snapshot(blob))
    restore_s = time.perf_counter() - begin

    final = traced["session_stats"]
    snapshots = tracer.durations("core.checkpoint.snapshot")
    return {
        "core.docstream.doc_ms_p50": statistics.median(tracer.durations("core.docstream.document")) * 1e3,
        "core.docstream.boundary_scan_s": boundary_s,
        "core.docstream.spool_bytes": final["spool"]["bytes"],
        "core.docstream.replay_subscribe_ms_p50": statistics.median(
            tracer.durations("core.docstream.replay_subscribe")
        ) * 1e3,
        "core.docstream.peak_live_entries": final["window"]["peak_live_entries"],
        "core.docstream.skipped_docs": final["documents_failed"],
        "core.checkpoint.snapshot_ms": sum(snapshots) * 1e3 / len(snapshots),
        "core.checkpoint.snapshot_bytes": len(blob),
        "core.checkpoint.restore_ms": restore_s * 1e3,
    }


DOCSTREAM_METRICS = (
    "core.docstream.doc_ms_p50", "core.docstream.boundary_scan_s",
    "core.docstream.spool_bytes", "core.docstream.replay_subscribe_ms_p50",
    "core.docstream.peak_live_entries", "core.docstream.skipped_docs",
    "core.checkpoint.snapshot_ms", "core.checkpoint.snapshot_bytes",
    "core.checkpoint.restore_ms",
)


# ---------------------------------------------------------------------------
# the traced pass of one workload
# ---------------------------------------------------------------------------


def trace_workload(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``spec`` plain, then traced, then stage by stage.

    Returns the traced sample (for correctness), the per-layer metrics, the
    absent map and the span dump.
    """
    name = spec["workload"]
    runner = workloads.RUNNERS[name]
    tracer = Tracer(name, f"seed{spec['seed']}")
    probes = Probes()

    plain = runner(spec)
    with tracer.span(f"run.{name}"):
        traced = runner(spec, tracer)
    metrics = probes.metrics
    metrics["trace.overhead_pct"] = (traced["wall_s"] / plain["wall_s"] - 1.0) * 100.0
    metrics["core.multi.matches"] = traced["expected"] - traced["missing"]
    metrics["core.multi.callback_errors"] = traced["errors"]
    metrics.update(traced.pop("layers", {}))

    documents, pairs = _staged_inputs(spec)
    probes.run(REGISTRATION_METRICS, lambda: _probe_registration(pairs))
    try:
        _staged_replay(spec, documents, pairs, tracer, probes)
    except MISSING_ENTRY_POINT as exc:
        probes.mark_absent(REPLAY_METRICS, exc)
    staged_s = sum(
        metrics.get(key, 0.0)
        for key in ("xmlstream.tokenizer.scan_s", "xmlstream.expat.scan_s", "core.transitions.push_s")
    )

    if name in ONE_SHOT:
        fused_s = tracer.total("core.fastpath.fused")
        metrics["core.fastpath.fused_s"] = fused_s
        if staged_s:
            metrics["core.fastpath.fused_vs_staged"] = fused_s / staged_s
    elif name == "subs-100k":
        metrics["core.session.feed_s"] = tracer.total("core.session.feed")
    elif name == "stream-churn":
        probes.run(DOCSTREAM_METRICS, lambda: _probe_docstream(spec, traced, tracer))
    else:
        probes.run(
            ("core.session.feed_s",),
            lambda: _probe_session_feed(documents[0], pairs, tracer),
        )
        probes.run(PROTOCOL_METRICS, lambda: _probe_protocol(documents[0][:5], pairs))
        if "core.session.feed_s" in metrics:
            metrics["service.server.wire_overhead_s"] = traced["wall_s"] - metrics["core.session.feed_s"]
    if "core.session.feed_s" in metrics and staged_s:
        metrics["core.session.overhead_s"] = metrics["core.session.feed_s"] - staged_s

    traced.pop("snapshot", None)
    traced.pop("session_stats", None)
    return {
        "sample": traced,
        "layers": metrics,
        "absent": probes.absent,
        "trace": tracer.dump({
            "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
            "layers": metrics, "absent": probes.absent,
        }),
    }
