"""Subscription-service behaviour tests (in-process asyncio stack).

Each test spins up a real :class:`ServiceServer` on an ephemeral loopback
port and drives it with :class:`ServiceClient` connections inside one
``asyncio.run`` — no external processes, no fixed ports, no sleeps longer
than the push round-trips being awaited.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.service.client import ServiceClient, ServiceConnection, ServiceError
from repro.service.server import ServiceServer

TIMEOUT = 5.0

DOC_ONE = "<feed><r><s1><v1>hi</v1></s1></r></feed>"


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=30))


async def _start() -> ServiceServer:
    server = ServiceServer(parser="native")
    await server.start(port=0)
    return server


class TestSubscribeFeedSolve:
    def test_solution_pushed_to_subscriber(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            subscriber = await ServiceClient.connect(host, port)
            publisher = await ServiceClient.connect(host, port)
            try:
                name = await subscriber.subscribe("//s1/v1", name="ticker")
                assert name == "ticker"
                await publisher.feed("<feed><r><s1><v1>h")
                await publisher.feed("i</v1></s1></r></feed>")
                push = await subscriber.next_push(timeout=TIMEOUT)
                assert push["type"] == "solution"
                assert push["name"] == "ticker"
                assert push["solution"]["tag"] == "v1"
                summary = await publisher.finish()
                assert summary["elements"] == 4
                eof = await subscriber.next_push(timeout=TIMEOUT)
                assert eof["type"] == "eof"
                assert eof["delivered"] == 1
                assert eof["aborted"] is False
            finally:
                await subscriber.close()
                await publisher.close()
                await server.close()

        run(scenario())

    def test_standing_query_spans_documents(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            subscriber = await ServiceClient.connect(host, port)
            publisher = await ServiceClient.connect(host, port)
            try:
                await subscriber.subscribe("//s1/v1", name="q")
                for round_no in range(3):
                    await publisher.feed(DOC_ONE)
                    summary = await publisher.finish()
                    assert summary["document"] == round_no
                    push = await subscriber.next_push(timeout=TIMEOUT)
                    assert push["type"] == "solution"
                    eof = await subscriber.next_push(timeout=TIMEOUT)
                    assert eof["type"] == "eof" and eof["document"] == round_no
                stats = await subscriber.stats()
                assert stats["documents"] == 3
                assert stats["solutions"] == 3
                assert stats["machine_count"] == 1
                assert stats["subscription_detail"]["q"]["delivered"] == 3
            finally:
                await subscriber.close()
                await publisher.close()
                await server.close()

        run(scenario())

    def test_mid_stream_subscription_sees_remainder(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            subscriber = await ServiceClient.connect(host, port)
            publisher = await ServiceClient.connect(host, port)
            try:
                await publisher.feed("<feed><r><s1><v1>old</v1></s1></r>")
                reply = await subscriber.subscribe("//s1/v1", name="late")
                assert reply == "late"
                await publisher.feed("<r><s1><v1>new</v1></s1></r></feed>")
                await publisher.finish()
                push = await subscriber.next_push(timeout=TIMEOUT)
                assert push["type"] == "solution"
                # Only the remainder's match was delivered.
                eof = await subscriber.next_push(timeout=TIMEOUT)
                assert eof["type"] == "eof" and eof["delivered"] == 1
            finally:
                await subscriber.close()
                await publisher.close()
                await server.close()

        run(scenario())


class TestOwnershipAndErrors:
    def test_unsubscribe_requires_ownership(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            owner = await ServiceClient.connect(host, port)
            intruder = await ServiceClient.connect(host, port)
            try:
                await owner.subscribe("//a", name="mine")
                with pytest.raises(ServiceError):
                    await intruder.unsubscribe("mine")
                await owner.unsubscribe("mine")
                assert server.engine.machine_count == 0
            finally:
                await owner.close()
                await intruder.close()
                await server.close()

        run(scenario())

    def test_disconnect_unregisters_subscriptions(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            subscriber = await ServiceClient.connect(host, port)
            await subscriber.subscribe("//a[b]", name="gone")
            assert server.engine.machine_count == 1
            await subscriber.close()
            for _ in range(100):
                if server.engine.machine_count == 0:
                    break
                await asyncio.sleep(0.01)
            assert server.engine.machine_count == 0
            await server.close()

        run(scenario())

    def test_duplicate_name_rejected(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            client = await ServiceClient.connect(host, port)
            try:
                await client.subscribe("//a", name="dup")
                with pytest.raises(ServiceError):
                    await client.subscribe("//b", name="dup")
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_bad_query_rejected(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            client = await ServiceClient.connect(host, port)
            try:
                with pytest.raises(ServiceError):
                    await client.subscribe("//a[", name="bad")
                # The connection survives a rejected subscribe.
                await client.ping()
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_malformed_xml_aborts_document(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            subscriber = await ServiceClient.connect(host, port)
            publisher = await ServiceClient.connect(host, port)
            try:
                await subscriber.subscribe("//s1/v1", name="q")
                await publisher.feed("<feed><r></oops>")
                error = await publisher.next_push(timeout=TIMEOUT)
                assert error["type"] == "error" and error["cmd"] == "feed"
                eof = await subscriber.next_push(timeout=TIMEOUT)
                assert eof["type"] == "eof" and eof["aborted"] is True
                # The next document parses cleanly.
                await publisher.feed(DOC_ONE)
                await publisher.finish()
                push = await subscriber.next_push(timeout=TIMEOUT)
                assert push["type"] == "solution"
            finally:
                await subscriber.close()
                await publisher.close()
                await server.close()

        run(scenario())

    def test_finish_without_document_errors(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            client = await ServiceClient.connect(host, port)
            try:
                with pytest.raises(ServiceError):
                    await client.finish()
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_raw_xml_lines_feed_the_stream(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            subscriber = await ServiceClient.connect(host, port)
            try:
                await subscriber.subscribe("//s1/v1", name="q")
                # Simulate a netcat publisher: raw XML lines, no JSON.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(DOC_ONE.encode("utf-8") + b"\n")
                writer.write(b'{"cmd":"finish"}\n')
                await writer.drain()
                push = await subscriber.next_push(timeout=TIMEOUT)
                assert push["type"] == "solution"
                writer.close()
                await writer.wait_closed()
            finally:
                await subscriber.close()
                await server.close()

        run(scenario())


class TestBackpressure:
    def test_slow_consumer_drops_oldest_not_parse_loop(self):
        async def scenario():
            # Outbox bound of 8: feeding 50 matches must drop ~42 oldest
            # frames while the parse loop keeps running and the newest
            # frames survive.
            server = ServiceServer(parser="native", outbox_limit=8)
            await server.start(port=0)
            host, port = server.address
            subscriber = await ServiceClient.connect(host, port)
            publisher = await ServiceClient.connect(host, port)
            try:
                await subscriber.subscribe("//v1", name="q")
                # Stall the subscriber's writer task by never reading and
                # filling the outbox synchronously: feed everything in one
                # frame so the server enqueues 50 solutions in one loop step.
                records = "".join(f"<v1>{i}</v1>" for i in range(50))
                await publisher.feed(f"<feed>{records}</feed>")
                summary = await publisher.finish()
                assert summary["elements"] == 51
                stats = await publisher.stats()
                detail = stats["subscription_detail"]["q"]
                assert detail["delivered"] == 50
                assert detail["dropped"] > 0
                received = 0
                last = None
                while True:
                    push = await subscriber.next_push(timeout=TIMEOUT)
                    if push["type"] == "eof":
                        break
                    if push["type"] == "solution":
                        received += 1
                        last = push
                assert received >= 1
                assert received + detail["dropped"] == 50
                # Drop-oldest: the newest solution (the 50th v1, document
                # pre-order 50) always survives.
                assert last["solution"]["order"] == 50
            finally:
                await subscriber.close()
                await publisher.close()
                await server.close()

        run(scenario())


class TestBackpressureControlFrames:
    def test_eof_and_replies_survive_a_full_outbox(self):
        async def scenario():
            # Outbox bound of 4 with 50 matches: solution frames drop, but
            # the eof and the stats reply must still arrive — losing a
            # control frame would wedge the client protocol.
            server = ServiceServer(parser="native", outbox_limit=4)
            await server.start(port=0)
            host, port = server.address
            subscriber = await ServiceClient.connect(host, port)
            publisher = await ServiceClient.connect(host, port)
            try:
                await subscriber.subscribe("//v1", name="q")
                records = "".join(f"<v1>{i}</v1>" for i in range(50))
                await publisher.feed(f"<feed>{records}</feed>")
                await publisher.finish()
                saw_eof = False
                while not saw_eof:
                    push = await subscriber.next_push(timeout=TIMEOUT)
                    saw_eof = push["type"] == "eof"
                # The same (slow) connection still gets its reply frames.
                stats = await subscriber.stats()
                assert stats["subscription_detail"]["q"]["dropped"] > 0
            finally:
                await subscriber.close()
                await publisher.close()
                await server.close()

        run(scenario())


class TestLocalSubscriptions:
    def test_local_callback_receives_solutions(self):
        async def scenario():
            server = await _start()
            received = []
            server.add_local_subscription(
                "//s1/v1", name="local", callback=lambda name, s: received.append((name, s))
            )
            host, port = server.address
            publisher = await ServiceClient.connect(host, port)
            try:
                await publisher.feed(DOC_ONE)
                await publisher.finish()
                assert len(received) == 1
                assert received[0][0] == "local"
                assert received[0][1].node.tag == "v1"
                stats = await publisher.stats()
                assert stats["subscription_detail"]["local"]["local"] is True
            finally:
                await publisher.close()
                await server.close()

        run(scenario())

    def test_raising_local_callback_is_isolated(self):
        async def scenario():
            server = await _start()

            def explode(name, solution):
                raise ValueError("bad watch callback")

            server.add_local_subscription("//v1", name="boom", callback=explode)
            host, port = server.address
            publisher = await ServiceClient.connect(host, port)
            try:
                # The feed that triggers the callback must complete, and
                # the publisher must stay connected.
                await publisher.feed("<feed><v1>x</v1><v1>y</v1></feed>")
                summary = await publisher.finish()
                assert summary["type"] == "finished"
                stats = await publisher.stats()
                detail = stats["subscription_detail"]["boom"]
                assert detail["delivered"] == 2
                assert detail["callback_errors"] == 2
            finally:
                await publisher.close()
                await server.close()

        run(scenario())


class TestManySubscribers:
    def test_hundred_subscribers_each_get_every_solution(self):
        """100 subscriber connections on disjoint queries over one chunked
        feed: each receives exactly its ground truth and nothing drops."""
        rng = random.Random(7)
        labels = [rng.randrange(100) for _ in range(400)]
        document = "<feed>" + "".join(
            f'<r seq="{i}"><s{i}><v{i}>x{rng.randrange(5)}</v{i}></s{i}></r>' for i in labels
        ) + "</feed>"

        async def scenario():
            server = await _start()
            host, port = server.address
            subscribers = []
            try:
                for i in range(100):
                    subscriber = await ServiceConnection.connect(host, port)
                    subscribers.append(subscriber)
                    await subscriber.subscribe(f"//s{i}/v{i}", name=f"q{i}")

                async def count(subscriber):
                    return sum([1 async for _ in subscriber.solutions(stop_at_eof=True)])

                consumers = [asyncio.ensure_future(count(s)) for s in subscribers]
                publisher = await ServiceConnection.connect(host, port)
                subscribers.append(publisher)
                for start in range(0, len(document), 4096):
                    await publisher.feed(document[start:start + 4096])
                await publisher.finish()
                received = await asyncio.gather(*consumers)
                stats = await publisher.stats()
            finally:
                for subscriber in subscribers:
                    await subscriber.close()
                await server.close()
            assert received == [labels.count(i) for i in range(100)]
            assert sum(d["dropped"] for d in stats["subscription_detail"].values()) == 0

        run(scenario())


class TestStats:
    def test_stats_shape(self):
        async def scenario():
            server = await _start()
            host, port = server.address
            client = await ServiceClient.connect(host, port)
            try:
                await client.subscribe("//s1/v1", name="a")
                await client.subscribe("//s1[v1]", name="b")
                await client.feed(DOC_ONE)
                await client.finish()
                stats = await client.stats()
                assert stats["machine_count"] == 2
                assert stats["subscriptions"] == 2
                assert stats["connections"] == 1
                assert stats["elements"] == 4
                assert stats["events_per_sec"] > 0
                assert set(stats["subscription_detail"]) == {"a", "b"}
            finally:
                await client.close()
                await server.close()

        run(scenario())
