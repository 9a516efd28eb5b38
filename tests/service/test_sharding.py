"""Sharded-service tests: protocol parity, routing policy, stats schema.

The parity gate is the acceptance bar of the sharding work: against the
backend-conformance corpus and the PR5 query set, a sharded front with
``workers=1`` must push **the identical frame sequence** (``ts`` stripped —
it is a wall-clock stamp) as the single-process :class:`ServiceServer`,
and ``workers=2`` the identical *per-subscription* sequences (frames from
different worker processes may interleave).

Everything runs a real server stack — sharded fronts spawn real worker
subprocesses over pipes; nothing is mocked.
"""

from __future__ import annotations

import asyncio
import importlib.util
import os

import pytest

from repro.service.client import ServiceConnection, ServiceError
from repro.service.server import ServiceServer
from repro.service.sharding import ShardedServiceServer
from repro.xpath.generator import FAMILY_VARIANTS


def _load_parity_harness():
    """Import tests/api/test_parity.py by path (tests/ is not a package)."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "api",
        "test_parity.py",
    )
    spec = importlib.util.spec_from_file_location("_parity_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The PR5 parity corpus: documents exercising text, attributes, CDATA,
# comments, PIs, deep nesting; queries covering every axis the fragment has.
_parity = _load_parity_harness()
BACKENDS = _parity.BACKENDS
CORPUS = _parity.CORPUS
QUERIES = _parity.QUERIES

TIMEOUT = 10.0


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=120))


async def _collect_pushes(server, documents):
    """Drive one subscriber (all QUERIES) + publisher; return stripped pushes.

    Each document is fed in two chunks; collection stops at its ``eof``.
    Returns the flat list of push frames in arrival order with the
    wall-clock ``ts`` removed.
    """
    host, port = server.address
    subscriber = await ServiceConnection.connect(host, port)
    publisher = await ServiceConnection.connect(host, port)
    pushes = []
    try:
        for index, query in enumerate(QUERIES):
            await subscriber.subscribe(query, name=f"q{index}")
        for document in documents:
            half = len(document) // 2
            await publisher.feed(document[:half])
            await publisher.feed(document[half:])
            await publisher.finish()
            while True:
                frame = await subscriber.next_push(timeout=TIMEOUT)
                frame.pop("ts", None)
                pushes.append(frame)
                if frame["type"] == "eof":
                    break
    finally:
        await subscriber.close()
        await publisher.close()
        await server.close()
    return pushes


def _by_subscription(pushes):
    """Group solution pushes per subscription; eofs keep their own lane."""
    grouped = {}
    for frame in pushes:
        key = frame.get("name") if frame["type"] == "solution" else "__eof__"
        grouped.setdefault(key, []).append(frame)
    return grouped


class TestProtocolParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_worker_is_frame_identical_to_plain_server(self, backend):
        """workers=1: the full push sequence is byte-identical to the
        single-process server over the whole conformance corpus."""

        async def scenario():
            plain = ServiceServer(parser=backend)
            await plain.start(port=0)
            expected = await _collect_pushes(plain, CORPUS)

            sharded = ShardedServiceServer(workers=1, parser=backend)
            await sharded.start(port=0)
            actual = await _collect_pushes(sharded, CORPUS)
            assert actual == expected

        run(scenario())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_workers_preserve_per_subscription_sequences(self, backend):
        """workers=2: per-subscription solution sequences and the eof stream
        match the plain server exactly; only cross-subscription interleaving
        may differ."""

        async def scenario():
            plain = ServiceServer(parser=backend)
            await plain.start(port=0)
            expected = _by_subscription(await _collect_pushes(plain, CORPUS))

            sharded = ShardedServiceServer(workers=2, parser=backend)
            await sharded.start(port=0)
            actual = _by_subscription(await _collect_pushes(sharded, CORPUS))
            assert actual == expected

        run(scenario())


class TestRoutingPolicy:
    def test_identical_fingerprints_pin_to_one_worker(self):
        """Structurally identical queries share a worker (machine dedup
        survives sharding): total machine_count stays 1."""

        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                await client.subscribe("//s1/v1", name="a")
                await client.subscribe("//s1/v1", name="b")
                await client.subscribe("//s1/v1", name="c")
                stats = await client.stats()
                assert stats["machine_count"] == 1
                per_worker = [w["subscriptions"] for w in stats["workers"]]
                assert sorted(per_worker) == [0, 3]
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_family_shapes_pin_to_one_anchor_worker(self):
        """The five refinement shapes of one containment family land on the
        worker running its anchor: one machine in total, not one per worker."""

        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                for index, shape in enumerate(FAMILY_VARIANTS):
                    await client.subscribe(shape.format(f=1), name=f"shape{index}")
                stats = await client.stats()
                assert stats["machine_count"] == 1
                per_worker = [w["subscriptions"] for w in stats["workers"]]
                assert sorted(per_worker) == [0, len(FAMILY_VARIANTS)]
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_distinct_queries_spread_least_loaded(self):
        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                await client.subscribe("//s1/v1", name="a")
                await client.subscribe("//s2/v2", name="b")
                await client.subscribe("//s3/v3", name="c")
                await client.subscribe("//s4/v4", name="d")
                stats = await client.stats()
                per_worker = sorted(w["subscriptions"] for w in stats["workers"])
                assert per_worker == [2, 2]
                assert stats["machine_count"] == 4
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_unsubscribe_releases_route_and_worker_state(self):
        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                await client.subscribe("//s1/v1", name="a")
                await client.unsubscribe("a")
                stats = await client.stats()
                assert stats["subscriptions"] == 0
                assert stats["machine_count"] == 0
                # The name is free again and the query routes cleanly.
                await client.subscribe("//s1/v1", name="a")
                stats = await client.stats()
                assert stats["subscriptions"] == 1
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_duplicate_name_matches_engine_error_text(self):
        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                await client.subscribe("//s1/v1", name="taken")
                with pytest.raises(ServiceError) as excinfo:
                    await client.subscribe("//s2/v2", name="taken")
                assert "a subscription named 'taken' already exists" in str(
                    excinfo.value
                )
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_control_characters_in_names_are_rejected(self):
        """Names travel in the worker fast-path framing; the front refuses
        names that would corrupt it before any worker sees them."""

        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                with pytest.raises(ServiceError, match="control characters"):
                    await client.subscribe("//s1/v1", name="bad\x1fname")
            finally:
                await client.close()
                await server.close()

        run(scenario())


class TestSubscribeBatch:
    def test_batch_spreads_across_workers(self):
        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                names = await client.subscribe_batch(
                    [
                        ("//s1/v1", "a"),
                        ("//s2/v2", None),
                        ("//s3/v3", "c"),
                        ("//s4/v4", None),
                    ]
                )
                assert names[0] == "a"
                assert names[2] == "c"
                assert len(set(names)) == 4
                stats = await client.stats()
                assert stats["subscriptions"] == 4
                per_worker = sorted(w["subscriptions"] for w in stats["workers"])
                assert per_worker == [2, 2]
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_batch_is_all_or_nothing(self):
        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                await client.subscribe("//s1/v1", name="taken")
                with pytest.raises(ServiceError) as excinfo:
                    await client.subscribe_batch(
                        [("//s2/v2", "fresh"), ("//s3/v3", "taken")]
                    )
                assert "taken" in str(excinfo.value)
                stats = await client.stats()
                # Rollback released the reserved route: only the original
                # subscription remains and 'fresh' is free to use again.
                assert stats["subscriptions"] == 1
                await client.subscribe("//s2/v2", name="fresh")
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_batch_delivers_like_singular_subscribes(self):
        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            subscriber = await ServiceConnection.connect(host, port)
            publisher = await ServiceConnection.connect(host, port)
            try:
                await subscriber.subscribe_batch(
                    [("//f/s1", "one"), ("//f/s2", "two")]
                )
                await publisher.feed("<f><s1>x</s1><s2>y</s2></f>")
                await publisher.finish()
                seen = set()
                while len(seen) < 2:
                    frame = await subscriber.next_push(timeout=10)
                    if frame.get("type") == "solution":
                        seen.add(frame["name"])
                assert seen == {"one", "two"}
            finally:
                await subscriber.close()
                await publisher.close()
                await server.close()

        run(scenario())


#: Flat keys every /stats payload must carry — the stable public schema.
STATS_FLAT_KEYS = {
    "type",
    "parser",
    "machine_count",
    "subscriptions",
    "connections",
    "documents",
    "aborted_documents",
    "document_open",
    "elements",
    "events_per_sec",
    "solutions",
    "uptime_s",
    "checkpoints_written",
    "workers",
    "subscription_detail",
}

#: Per-entry schema of the ``workers`` list (shared by both server kinds).
WORKER_ENTRY_KEYS = {
    "worker",
    "mode",
    "pid",
    "alive",
    "subscriptions",
    "machine_count",
    "elements",
    "events_per_sec",
    "queue_depth",
}


class TestStatsSchema:
    def _check_common(self, stats, expected_mode, expected_workers):
        assert STATS_FLAT_KEYS <= set(stats)
        workers = stats["workers"]
        assert len(workers) == expected_workers
        for index, entry in enumerate(workers):
            assert WORKER_ENTRY_KEYS <= set(entry)
            assert entry["worker"] == index
            assert entry["mode"] == expected_mode
            assert entry["alive"] is True
            assert isinstance(entry["pid"], int)

    def test_plain_server_reports_one_inline_worker(self):
        async def scenario():
            server = ServiceServer(parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                await client.subscribe("//s1/v1", name="q")
                stats = await client.stats()
                self._check_common(stats, "inline", expected_workers=1)
                assert stats["workers"][0]["subscriptions"] == 1
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_sharded_server_reports_per_worker_sections(self):
        async def scenario():
            server = ShardedServiceServer(workers=2, parser="native")
            await server.start(port=0)
            host, port = server.address
            client = await ServiceConnection.connect(host, port)
            try:
                await client.subscribe("//s1/v1", name="q")
                await client.feed("<feed><s1><v1>x</v1></s1></feed>")
                await client.finish()
                stats = await client.stats()
                self._check_common(stats, "process", expected_workers=2)
                assert stats["worker_count"] == 2
                # Aggregates: machine_count sums the shards; elements is the
                # document-global count (each worker parses the whole doc,
                # so it is a max, not a sum).
                assert stats["machine_count"] == sum(
                    w["machine_count"] for w in stats["workers"]
                )
                assert stats["elements"] == 3
                assert stats["documents"] == 1
                assert stats["solutions"] == 1
                assert stats["subscription_detail"]["q"]["delivered"] == 1
            finally:
                await client.close()
                await server.close()

        run(scenario())
