"""Checkpoint format: versioned, deterministic snapshots of live engine state.

A snapshot captures everything a :class:`~repro.core.multi.MultiQueryEvaluator`
(and optionally an open :class:`~repro.core.session.StreamSession`) needs to
continue a half-parsed document in another process:

* per-runtime TwigM machine stacks — entries with their levels, matched
  :class:`~repro.core.results.NodeRef`\\ s, satisfied-predicate sets,
  candidate solutions and accumulated text
  (:meth:`~repro.core.machine.TwigMachine.snapshot_stacks`);
* per-runtime collectors, statistics and stream flags;
* the engine's global element pre-order, subscription table and sharing
  structure (which subscriptions share which machine, and which machines
  are mid-stream-private);
* the session's parse carry-over: the incremental tokenizer's unparsed
  buffer/open elements and the byte decoder's undecoded tail (pure
  backend), or the raw chunk prefix that re-drives a fresh expat parser
  (expat backend — expat state cannot be serialized, so restoration
  *replays* the identical input with machine handlers disabled; see
  :meth:`~repro.core.fastpath.FusedExpatDriver.prime`).

Machine *structure* never travels: queries are recompiled from their source
text on restore, which is deterministic, so stack entries can reference
query nodes by their stable ids.  Callbacks are not serialized — a restored
subscription starts with ``callback=None`` and the owner re-binds delivery.

The serialized form is canonical JSON (sorted keys, no whitespace, UTF-8)
with bytes fields base64-encoded, tagged with ``format``/``version`` for
compatibility checks.  The same engine state always serializes to the same
bytes.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict, List, Optional, Union

from ..errors import CheckpointError
from .builder import shared_compiled_cache, shared_planner
from .queryindex import FamilyRuntime, QueryRuntime, trie_path
from .results import (
    MemberCollector,
    ResultCollector,
    solution_from_payload,
    solution_to_payload,
)
from .statistics import EngineStatistics

#: Format marker carried by every snapshot.
SNAPSHOT_FORMAT = "vitex-snapshot"

#: Current snapshot version.  Bump on any incompatible change to the layout;
#: :func:`validate_snapshot` rejects versions it does not know, so a newer
#: reader can add explicit migration paths per old version.
SNAPSHOT_VERSION = 1

_STATISTICS_SCALARS = (
    "events",
    "elements",
    "attributes",
    "text_chunks",
    "pushes",
    "pops",
    "flags_set",
    "candidates_created",
    "candidates_propagated",
    "solutions_emitted",
    "solutions_distinct",
    "peak_stack_entries",
    "peak_candidate_count",
    "max_depth",
    "live_entries",
    "live_candidates",
)


# ---------------------------------------------------------------------------
# Leaf codecs
# ---------------------------------------------------------------------------


def statistics_state(statistics: EngineStatistics) -> Dict[str, Any]:
    """JSON-able state of an :class:`EngineStatistics` instance."""
    state: Dict[str, Any] = {
        name: getattr(statistics, name) for name in _STATISTICS_SCALARS
    }
    state["pushes_by_node"] = dict(statistics.pushes_by_node)
    return state


def statistics_from_state(state: Dict[str, Any]) -> EngineStatistics:
    """Rebuild an :class:`EngineStatistics` from :func:`statistics_state`."""
    statistics = EngineStatistics()
    for name in _STATISTICS_SCALARS:
        setattr(statistics, name, state.get(name, 0))
    statistics.pushes_by_node.update(state.get("pushes_by_node", {}))
    return statistics


def collector_state(collector: Union[ResultCollector, MemberCollector]) -> Dict[str, Any]:
    """JSON-able state of either collector kind (insertion order kept)."""
    return {
        "emitted": collector.emitted,
        "solutions": [
            solution_to_payload(solution) for solution in collector.solutions()
        ],
    }


def collector_from_state(
    state: Dict[str, Any], collector: Union[ResultCollector, MemberCollector]
) -> None:
    """Fill an empty ``collector`` from :func:`collector_state` output."""
    for payload in state.get("solutions", ()):
        collector.add(solution_from_payload(payload))
    collector.emitted = state.get("emitted", len(collector))


def encode_spool(segments: List[Union[str, bytes]]) -> List[List[str]]:
    """Encode a chunk-prefix spool: bytes segments travel base64-encoded.

    Adjacent same-type chunks are coalesced here (one O(n) join per
    snapshot) so the per-feed spool append stays O(1) and the encoded form
    stays a handful of large segments rather than one per network read.
    """
    encoded: List[List[str]] = []
    index = 0
    total = len(segments)
    while index < total:
        segment = segments[index]
        is_bytes = isinstance(segment, bytes)
        run = index + 1
        while run < total and isinstance(segments[run], bytes) == is_bytes:
            run += 1
        if run - index > 1:
            segment = (b"" if is_bytes else "").join(segments[index:run])  # type: ignore[arg-type]
        if is_bytes:
            encoded.append(["b", base64.b64encode(segment).decode("ascii")])  # type: ignore[arg-type]
        else:
            encoded.append(["s", segment])  # type: ignore[list-item]
        index = run
    return encoded


def decode_spool(encoded: List[List[str]]) -> List[Union[str, bytes]]:
    """Invert :func:`encode_spool`."""
    segments: List[Union[str, bytes]] = []
    for kind, data in encoded:
        if kind == "b":
            segments.append(base64.b64decode(data))
        elif kind == "s":
            segments.append(data)
        else:
            raise CheckpointError(f"unknown spool segment kind {kind!r}")
    return segments


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------


def evaluator_state(runtime: Union[QueryRuntime, FamilyRuntime]) -> Dict[str, Any]:
    """JSON-able run state of one runtime's machine (stacks, collector,
    flags); the ``"evaluator"`` entry of a runtime payload."""
    state: Dict[str, Any] = {
        "element_order": runtime.element_order,
        "started": runtime.started,
        "finished": runtime.finished,
        "eager": runtime.eager,
        "stacks": runtime.machine.snapshot_stacks(),
        "collector": collector_state(runtime.collector),
    }
    if runtime.statistics is not None:
        state["statistics"] = statistics_state(runtime.statistics)
    return state


def restore_evaluator(
    runtime: Union[QueryRuntime, FamilyRuntime], state: Dict[str, Any]
) -> None:
    """Apply :func:`evaluator_state` output to a freshly built runtime."""
    try:
        runtime.machine.restore_stacks(state["stacks"])
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    collector_from_state(state["collector"], runtime.collector)
    statistics = state.get("statistics")
    if statistics is not None and runtime.statistics is not None:
        runtime.statistics = statistics_from_state(statistics)
    runtime.eager = state.get("eager", False)
    runtime.element_order = state["element_order"]
    runtime.started = state["started"]
    runtime.finished = state["finished"]


# ---------------------------------------------------------------------------
# Engine state
# ---------------------------------------------------------------------------


def engine_state(engine) -> Dict[str, Any]:
    """JSON-able state of a :class:`MultiQueryEvaluator` and its runtimes."""
    runtimes = engine._index.runtimes
    runtime_index = {id(runtime): position for position, runtime in enumerate(runtimes)}
    shared_ids = {id(runtime) for runtime in engine._by_fingerprint.values()}
    runtime_payloads = []
    for runtime in runtimes:
        payload: Dict[str, Any] = {
            "source": runtime.compiled.tree.source,
            "shared": id(runtime) in shared_ids,
            "evaluator": evaluator_state(runtime),
        }
        if runtime.is_family:
            # A containment-shared family: the state above is the anchor
            # machine; member shapes travel as (source, collector) pairs and
            # their residual steps are re-derived from the source on restore.
            payload["family"] = True
            payload["groups"] = [
                {
                    "source": group.source,
                    "collector": collector_state(group.collector),
                }
                for group in runtime.group_list
            ]
        runtime_payloads.append(payload)
    subscription_payloads = []
    for subscription in engine._subscriptions.values():
        payload = {
            "name": subscription.name,
            "source": subscription.source,
            "runtime": runtime_index[id(subscription.runtime)],
            "delivered": subscription.delivered,
            "paused": subscription.paused,
            "callback_errors": subscription.callback_errors,
        }
        if subscription.group is not None:
            payload["group"] = subscription.runtime.group_list.index(
                subscription.group
            )
        subscription_payloads.append(payload)
    return {
        "collect_statistics": engine._collect_statistics,
        "auto_name_counter": engine._auto_name_counter,
        "element_order": engine._element_order,
        "started": engine._started,
        "finished": engine._finished,
        "context": list(engine._index.context),
        "runtimes": runtime_payloads,
        "subscriptions": subscription_payloads,
    }


def restore_engine_into(engine, state: Dict[str, Any]) -> None:
    """Rebuild :func:`engine_state` output inside a *fresh* engine.

    Queries are re-acquired through the process-wide compiled cache (so a
    restored engine participates in compilation sharing like any other) and
    runtimes are re-registered in their original index order, reproducing
    dispatch order and therefore emission order.  On any failure the engine
    is torn back down to empty before the error propagates.
    """
    from .multi import Subscription  # deferred: multi imports this module

    if engine._subscriptions or engine._started or engine._finished:
        raise CheckpointError("restore requires a fresh engine (no subscriptions)")
    if len(engine._index):
        raise CheckpointError("restore requires a fresh engine (empty index)")
    # Read every required scalar up front: a truncated payload must fail
    # before the engine is mutated, not between runtime installation and
    # the final flag assignment.
    auto_name_counter = state["auto_name_counter"]
    element_order = state["element_order"]
    started = state["started"]
    finished = state["finished"]
    context = state.get("context", [])
    engine._collect_statistics = state["collect_statistics"]
    runtimes: List[QueryRuntime] = []
    try:
        for item in state["runtimes"]:
            compiled = shared_compiled_cache.acquire(item["source"])
            anchor_label = compiled.tree.root.label
            try:
                if item.get("family"):
                    runtime = FamilyRuntime(
                        compiled, anchor_label, engine._index.context,
                        engine._collect_statistics,
                    )
                else:
                    runtime = QueryRuntime(compiled, engine._collect_statistics)
                restore_evaluator(runtime, item["evaluator"])
            except Exception:
                shared_compiled_cache.release(compiled)
                raise
            engine._index.add(runtime)
            # Visible to the teardown path before a family's first group is
            # restored, so a mid-family failure still unwinds it.
            runtimes.append(runtime)
            if not runtime.is_family:
                if item["shared"]:
                    engine._by_fingerprint[compiled.fingerprint] = runtime
                continue
            engine._families[anchor_label] = runtime
            for group_item in item.get("groups", ()):
                group_compiled = shared_compiled_cache.acquire(group_item["source"])
                plan = shared_planner.plan(group_compiled)
                if plan is None or plan.anchor_label != anchor_label:
                    shared_compiled_cache.release(group_compiled)
                    raise CheckpointError(
                        f"snapshot group {group_item['source']!r} does "
                        f"not belong to the {anchor_label!r} family"
                    )
                group = runtime.add_group(
                    group_compiled, plan.steps, trie_path(group_compiled.tree)
                )
                engine._index.add_path(group.trie)
                collector_from_state(group_item["collector"], group.collector)
        for item in state["subscriptions"]:
            runtime = runtimes[item["runtime"]]
            group_position = item.get("group")
            subscription = Subscription(
                name=item["name"],
                source=item["source"],
                runtime=runtime,
                group=None if group_position is None else runtime.group_list[group_position],
                delivered=item.get("delivered", 0),
                paused=item.get("paused", False),
                callback_errors=item.get("callback_errors", 0),
            )
            if subscription.group is not None:
                subscription.group.subscribers.append(subscription)
            else:
                runtime.subscribers.append(subscription)
            engine._subscriptions[item["name"]] = subscription
    except Exception:
        engine._subscriptions.clear()
        engine._by_fingerprint.clear()
        engine._families.clear()
        for runtime in runtimes:
            if runtime.is_family:
                for group in list(runtime.group_list):
                    runtime.remove_group(group)
                    engine._index.remove_path(group.trie)
                    shared_compiled_cache.release(group.compiled)
            engine._index.remove(runtime)
            shared_compiled_cache.release(runtime.compiled)
        raise
    engine._auto_name_counter = auto_name_counter
    engine._element_order = element_order
    engine._started = started
    engine._finished = finished
    engine._index.context[:] = context


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


def make_snapshot(
    engine_payload: Dict[str, Any], session_payload: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Wrap engine/session payloads in the versioned snapshot envelope."""
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "engine": engine_payload,
        "session": session_payload,
    }


def validate_snapshot(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Check the envelope (format marker, known version); returns it."""
    if not isinstance(snapshot, dict):
        raise CheckpointError("snapshot must be a JSON object")
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise CheckpointError(
            f"not a {SNAPSHOT_FORMAT} payload (format={snapshot.get('format')!r})"
        )
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise CheckpointError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    if "engine" not in snapshot:
        raise CheckpointError("snapshot is missing its engine state")
    return snapshot


def snapshot_subscription_sources(snapshot: Dict[str, Any]) -> Dict[str, str]:
    """Map subscription name → query source from a core snapshot.

    Used by the sharded service when redistributing a checkpoint across a
    different worker count: between documents a subscription is fully
    described by its source text (idle machines are start states), so the
    routing layer only needs this table to re-subscribe each query on its
    new worker.
    """
    engine_payload = snapshot.get("engine") or {}
    try:
        return {
            entry["name"]: entry["source"]
            for entry in engine_payload.get("subscriptions", [])
        }
    except (TypeError, KeyError) as exc:
        raise CheckpointError(f"malformed snapshot subscription table: {exc}") from exc


def dumps_snapshot(snapshot: Dict[str, Any]) -> bytes:
    """Serialize a snapshot to canonical bytes (deterministic per state)."""
    return json.dumps(
        snapshot, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def loads_snapshot(data: Union[bytes, str]) -> Dict[str, Any]:
    """Parse snapshot bytes and validate the envelope."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"snapshot is not valid UTF-8: {exc}") from exc
    try:
        snapshot = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"snapshot is not valid JSON: {exc}") from exc
    return validate_snapshot(snapshot)


__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "collector_from_state",
    "collector_state",
    "decode_spool",
    "dumps_snapshot",
    "encode_spool",
    "engine_state",
    "evaluator_state",
    "loads_snapshot",
    "make_snapshot",
    "restore_engine_into",
    "restore_evaluator",
    "snapshot_subscription_sources",
    "statistics_from_state",
    "statistics_state",
    "validate_snapshot",
]
