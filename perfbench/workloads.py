"""The six workloads: what each one feeds vitex and how a run is measured.

``build_spec`` runs in the parent: it generates the seeded inputs and the
expected answers and writes them where the children can read them.  The
``run_*`` functions run in a *fresh child per repeat* (see ``child.py``);
they touch vitex only through names in the ``[repro]`` section of
``api_surface.txt`` (plus the ``vitex serve`` command line) and ``import
repro`` inside the timed set-up, so a repeat pays what a new user process
pays.  Each returns one sample::

    setup_s wall_s cpu_s input_mb latency_p50_ms latency_p99_ms
    latency_samples peak_rss_mb expected missing unexpected errors dropped

``tracer`` is only passed by the traced pass: the same run, with a span
recorded around each call into vitex.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Sequence

from . import inputs

MIB = 1 << 20

#: name -> one line on why the workload exists (copied into BENCHMARK.json).
WHY = {
    "protein-oneshot": "paper headline: one query over a text-heavy shallow document, so time is the pure tokenizer scan",
    "recursive-oneshot": "tag-dense recursive tree through expat: every element is a TwigM transition, tokenizer bypassed",
    "subs-100k": "100k subscriptions on one feed: index dispatch dominates, registration and bytes per subscription show",
    "stream-churn": "unbounded document stream with subscribe/replay churn and snapshots: writes beside reads, flat memory",
    "service-fanout": "single-process server, match-dense feed: JSON frames, outbox, socket and client decode do the work",
    "sharded-events": "same traffic through two workers: the only path through event-frame encode, pipe, decode",
}


def peak_rss_mb(pid: Any = "self") -> float:
    """High-water RSS (``VmHWM``) of a live process in MB.

    Not ``ru_maxrss``: at exec the kernel folds the pre-exec image's
    high-water mark — a copy of the *parent's* — into it, so a child
    forked from a large harness would report the harness.
    """
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(ordered: Sequence[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def solution_key(name: str, solution: Any) -> str:
    return inputs.match_key(
        name, solution.kind.value, solution.node.order, solution.attribute or ""
    )


def _sample(
    observed: Sequence[str],
    spec: Dict[str, Any],
    latencies: List[float],
    errors: int,
    **timings: float,
) -> Dict[str, Any]:
    """One repeat's sample: the timings, the latency percentiles, and how
    the deliveries compare with the expected keys (missing; unexpected =
    wrong or duplicate)."""
    wanted = set(spec["expected_keys"])
    seen = set()
    unexpected = 0
    for key in observed:
        if key in wanted and key not in seen:
            seen.add(key)
        else:
            unexpected += 1
    latencies.sort()
    return dict(
        timings,
        latency_p50_ms=percentile(latencies, 0.50) * 1e3,
        latency_p99_ms=percentile(latencies, 0.99) * 1e3,
        latency_samples=len(latencies),
        expected=len(wanted),
        missing=len(wanted) - len(seen),
        unexpected=unexpected,
        errors=errors,
        dropped=0,
    )


def span(tracer: Any, name: str):
    """A tracer span, or a do-nothing context in the untraced pass."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# spec building (parent side)
# ---------------------------------------------------------------------------


def build_spec(name: str, seed: int, scale: float, tmp_dir: str) -> Dict[str, Any]:
    """Generate the inputs of ``name``; returns the JSON-able spec."""

    def scaled(value: int, floor: int = 1) -> int:
        return max(floor, int(value * scale))

    spec: Dict[str, Any] = {"workload": name, "seed": seed, "scale": scale}
    if name in ("protein-oneshot", "recursive-oneshot"):
        if name == "protein-oneshot":
            text, keys = inputs.protein_document(seed, scaled(16 * MIB))
            spec.update(query=inputs.PROTEIN_QUERY, parser="native")
        else:
            text, keys = inputs.random_tree_document(seed, scaled(4 * MIB))
            spec.update(query=inputs.RECURSIVE_QUERY, parser="expat")
        spec["doc"] = os.path.join(tmp_dir, "document.xml")
        with open(spec["doc"], "w", encoding="utf-8") as handle:
            handle.write(text)
    elif name == "subs-100k":
        spec.update(subscriptions=scaled(100_000), families=200)
        # 420 records of ~39 B: chunks of about 16 KiB.
        spec["chunks"], keys = inputs.subscription_feed(
            seed,
            hit_records=scaled(24, 3),
            miss_records=scaled(936, 117),
            families=spec["families"],
            subscriptions=spec["subscriptions"],
            records_per_chunk=420,
        )
        text = "".join(spec["chunks"])
    elif name == "stream-churn":
        spec.update(
            documents=scaled(60, 8),
            churn_every=4,
            snapshot_every=scaled(20, 4),
            retain_documents=8,
        )
        corpus = inputs.ticker_corpus(seed)
        spec["corpus"] = [document for document, _ in corpus]
        text = "".join(spec["corpus"])
        keys = inputs.churn_expected(
            [records for _, records in corpus],
            spec["documents"],
            spec["churn_every"],
            spec["snapshot_every"],
            spec["retain_documents"],
        )
    elif name in ("service-fanout", "sharded-events"):
        labels = 200
        closed_records = scaled(15_000)
        open_chunks = scaled(60, 12)
        closed, closed_keys = inputs.record_feed_chunks(seed, closed_records, labels, 8192)
        # Over-generate, then keep whole chunks: the schedule is in chunks.
        opened, open_keys = inputs.record_feed_chunks(
            seed + 1, open_chunks * 220, labels, 8192, first_order=1 + 3 * closed_records
        )
        spec.update(
            workers=2 if name == "sharded-events" else 1,
            queries=inputs.fanout_queries(labels),
            closed_chunks=closed,
            closed_keys=closed_keys,
            open_chunks=opened[:open_chunks],
            open_keys=open_keys[:open_chunks],
        )
        text = "".join(closed + spec["open_chunks"])
        keys = [key for chunk in closed_keys + spec["open_keys"] for key in chunk]
    else:
        raise KeyError(f"unknown workload {name!r}")
    spec["input_mb"] = len(text.encode("utf-8")) / 1e6
    spec["input_sha256"] = inputs.text_digest(text)
    spec["expected"] = inputs.expected_summary(keys)
    spec["expected_keys"] = keys
    return spec


# ---------------------------------------------------------------------------
# runners (child side)
# ---------------------------------------------------------------------------


def run_oneshot(spec: Dict[str, Any], tracer: Any = None) -> Dict[str, Any]:
    """``repro.evaluate(query, text)``: nothing is delivered before the call
    returns, so every match's latency is the call's duration."""
    with open(spec["doc"], encoding="utf-8") as handle:
        text = handle.read()
    started = time.perf_counter()
    import repro

    query = repro.compile_query(spec["query"])
    setup_s = time.perf_counter() - started

    cpu = time.process_time()
    begin = time.perf_counter()
    with span(tracer, "core.fastpath.fused"):
        result = repro.evaluate(query, text, parser=spec["parser"])
    wall_s = time.perf_counter() - begin
    cpu_s = time.process_time() - cpu
    peak = peak_rss_mb()

    observed = [solution_key("q", solution) for solution in result]
    return _sample(
        observed, spec, [wall_s] * len(observed), 0,
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s, input_mb=spec["input_mb"], peak_rss_mb=peak,
    )


def run_subscriptions(spec: Dict[str, Any], tracer: Any = None) -> Dict[str, Any]:
    """100k standing queries, one push session, counting callbacks."""
    queries = inputs.refinement_family_queries(spec["subscriptions"], spec["families"])
    pairs = [(query, f"q{n}") for n, query in enumerate(queries)]
    chunks: List[str] = spec["chunks"]
    observed: List[str] = []
    latencies: List[float] = []
    handed_in = 0.0

    def on_match(match: Any) -> None:
        latencies.append(time.perf_counter() - handed_in)
        observed.append(solution_key(match.name, match.solution))

    started = time.perf_counter()
    import repro

    engine = repro.Engine()
    with span(tracer, "core.queryindex.register"):
        subscriptions = engine.subscribe_many(pairs, callback=on_match)
    session = engine.open()
    setup_s = time.perf_counter() - started

    cpu = time.process_time()
    begin = time.perf_counter()
    for chunk in chunks:
        handed_in = time.perf_counter()
        with span(tracer, "core.session.feed"):
            session.feed_text(chunk)
    handed_in = time.perf_counter()
    session.finish()
    wall_s = time.perf_counter() - begin
    cpu_s = time.process_time() - cpu
    peak = peak_rss_mb()

    return _sample(
        observed, spec, latencies,
        sum(subscription.callback_errors for subscription in subscriptions),
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s, input_mb=spec["input_mb"], peak_rss_mb=peak,
    )


def run_stream_churn(spec: Dict[str, Any], tracer: Any = None) -> Dict[str, Any]:
    """An unbounded document stream whose subscriptions churn under it."""
    corpus: List[str] = spec["corpus"]
    observed: List[str] = []
    latencies: List[float] = []
    handed_in = 0.0
    context = ""  # "@<doc>" while feeding, "@replay<step>#" while replaying
    replayed = 0

    def on_match(match: Any) -> None:
        nonlocal replayed
        if context.startswith("@replay"):
            observed.append(solution_key(f"{match.name}{context}{replayed}", match.solution))
            replayed += 1
        else:
            latencies.append(time.perf_counter() - handed_in)
            observed.append(solution_key(f"{match.name}{context}", match.solution))

    started = time.perf_counter()
    import repro

    engine = repro.Engine()
    for q in range(inputs.TICKER_STANDING):
        engine.subscribe(inputs.TICKER_QUERIES[q][0], callback=on_match, name=f"t{q}")
    session = engine.document_stream(retain_documents=spec["retain_documents"])
    setup_s = time.perf_counter() - started

    snapshot = b""
    cpu = time.process_time()
    begin = time.perf_counter()
    for action, a, out, new in inputs.churn_schedule(
        spec["documents"], spec["churn_every"], spec["snapshot_every"]
    ):
        if action == "doc":
            document = corpus[a % len(corpus)]
            half = len(document) // 2
            context = f"@{a}"
            with span(tracer, "core.docstream.document"):
                handed_in = time.perf_counter()
                session.feed_text(document[:half])
                handed_in = time.perf_counter()
                session.feed_text(document[half:])
        elif action == "churn":
            context, replayed = f"@replay{a}#", 0
            with span(tracer, "core.queryindex.churn"):
                engine.unsubscribe(f"t{out}")
                with span(tracer, "core.docstream.replay_subscribe"):
                    session.subscribe(
                        inputs.TICKER_QUERIES[new][0],
                        callback=on_match,
                        name=f"t{new}",
                        replay_window=True,
                    )
        else:
            with span(tracer, "core.checkpoint.snapshot"):
                snapshot = repro.dumps_snapshot(session.snapshot())
    wall_s = time.perf_counter() - begin
    cpu_s = time.process_time() - cpu
    peak = peak_rss_mb()
    errors = sum(subscription.callback_errors for subscription in engine.subscriptions)
    final = session.close()

    fed_mb = sum(len(corpus[d % len(corpus)]) for d in range(spec["documents"])) / 1e6
    sample = _sample(
        observed, spec, latencies, errors + final["documents_failed"],
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s, input_mb=fed_mb, peak_rss_mb=peak,
    )
    if tracer is not None:
        sample["session_stats"] = final
        sample["snapshot"] = snapshot
    return sample


def run_service(spec: Dict[str, Any], tracer: Any = None) -> Dict[str, Any]:
    from . import service

    return service.run(spec, spec["src_dir"], spec["out_dir"], tracer)


RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "protein-oneshot": run_oneshot,
    "recursive-oneshot": run_oneshot,
    "subs-100k": run_subscriptions,
    "stream-churn": run_stream_churn,
    "service-fanout": run_service,
    "sharded-events": run_service,
}


def load_spec(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
