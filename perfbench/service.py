"""Load generator for the two service workloads.

One process, one asyncio loop, two connections: a subscriber holding every
standing query and a publisher feeding one ``<feed>`` document.  The server
(``vitex serve``) is a subprocess in its own process group, killed on every
exit path.  Two phases over the same open document:

* ``closed`` — a windowed closed loop: at most :data:`WINDOW` chunks may be
  un-acknowledged (a chunk is acknowledged when all matches it completes
  reached the subscriber callback).  Gives throughput and CPU per MB; the
  window also keeps the subscriber's server-side outbox far below its
  drop-oldest limit, so nothing is lost by construction.
* ``open`` — chunks leave on a fixed schedule whatever the server does;
  each match is timed from the moment its chunk was *due*.  Gives latency.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence

from .workloads import peak_rss_mb, percentile, solution_key, span

#: Chunks the closed loop keeps in flight.
WINDOW = 4

#: Open-loop send rate.  Sized once on the 2-core reference box at about
#: a third of the closed-loop capacity of ``service-fanout`` and then frozen,
#: so a faster server shows as lower latency, not as a different load.
OPEN_CHUNKS_PER_S = 48.0

#: Chunks that may still be un-acknowledged when the open phase ends (half a
#: second of traffic).  More means the server is not keeping up with the
#: schedule: the backlog would grow for as long as the phase lasts, so the
#: matches still owed at that moment count as failed.
BACKLOG_LIMIT = int(OPEN_CHUNKS_PER_S / 2)

#: Seconds without a single arriving match before a phase gives up and
#: counts what is still outstanding as failed.
STALL_TIMEOUT_S = 10.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: The cores this process may use, read before it pins itself to the first.
_CORES = sorted(os.sched_getaffinity(0))


def proc_cpu_seconds(pid: int) -> float:
    """user+system CPU of one live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


class ServerProcess:
    """``vitex serve --port 0 [--workers N]`` in its own process group."""

    def __init__(self, src_dir: str, cwd: str, workers: int) -> None:
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        if workers > 1:
            command += ["--workers", str(workers)]
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="0")
        # The generator pins itself to one core, and the server (with the
        # workers it spawns) to the others when there are enough of them
        # for one each.  Left to the scheduler, a server woken through the
        # socket often lands on the generator's core, and throughput then
        # has two modes (0.95 and 1.2 MB/s on the reference box).
        cores = _CORES
        processes = workers + 1 if workers > 1 else 1
        if len(cores) > processes:
            os.sched_setaffinity(0, cores[1:])  # inherited by the server
        self._process = subprocess.Popen(
            command,
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        os.sched_setaffinity(0, cores[:1])
        self.pid = self._process.pid
        self.port = 0

    def wait_listening(self, timeout: float = 30.0) -> None:
        """Block until the server printed its ``listening on host:port`` line."""
        deadline = time.monotonic() + timeout
        stdout = self._process.stdout
        assert stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._process.poll() is not None:
                raise RuntimeError("vitex serve did not start listening")
            if not select.select([stdout], [], [], remaining)[0]:
                continue
            line = stdout.readline().decode("utf-8", "replace")
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                return

    def stop(self) -> None:
        """Terminate the whole process group and wait until it is gone."""
        process = self._process
        if process.poll() is None:
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(process.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    process.wait(timeout=5)
                    break
                except subprocess.TimeoutExpired:
                    continue
        # Workers of a killed front may outlive it for a moment.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        if process.stdout is not None:
            process.stdout.close()


class _Tracker:
    """Which matches are still owed, chunk by chunk."""

    def __init__(self, chunk_keys: Sequence[Sequence[str]]) -> None:
        self.owner: Dict[str, int] = {}
        self.outstanding: List[int] = []
        for index, keys in enumerate(chunk_keys):
            self.outstanding.append(len(keys))
            for key in keys:
                self.owner[key] = index
        self.expected = len(self.owner)
        self.unexpected = 0
        self.arrived = 0
        self.due: List[float] = [0.0] * len(chunk_keys)
        self.latencies: List[float] = []
        self.acked = asyncio.Event()
        self.last_arrival = time.perf_counter()

    def on_match(self, match: Any) -> None:
        now = time.perf_counter()
        chunk = self.owner.pop(solution_key(match.name, match.solution), None)
        if chunk is None:  # a duplicate, or something nobody asked for
            self.unexpected += 1
            return
        self.arrived += 1
        self.last_arrival = now
        self.latencies.append(now - self.due[chunk])
        self.outstanding[chunk] -= 1
        if not self.outstanding[chunk]:
            self.acked.set()

    def unacked(self, sent: int) -> int:
        return sum(1 for count in self.outstanding[:sent] if count)

    async def wait_until(self, sent: int, limit: int) -> bool:
        """Wait until at most ``limit`` of the first ``sent`` chunks are
        un-acknowledged; False when arrivals stalled."""
        while self.unacked(sent) > limit:
            self.acked.clear()
            try:
                await asyncio.wait_for(self.acked.wait(), timeout=1.0)
            except asyncio.TimeoutError:
                if time.perf_counter() - self.last_arrival > STALL_TIMEOUT_S:
                    return False
        return True


async def _drive(
    spec: Dict[str, Any], server: ServerProcess, started: float, tracer: Any
) -> Dict[str, Any]:
    import repro  # the client half of the system under test

    closed_chunks: List[str] = spec["closed_chunks"]
    open_chunks: List[str] = spec["open_chunks"]
    chunks = closed_chunks + open_chunks
    tracker = _Tracker(spec["closed_keys"] + spec["open_keys"])
    subscriber = await repro.connect("127.0.0.1", server.port)
    publisher = await repro.connect("127.0.0.1", server.port)
    try:
        await subscriber.subscribe_many(
            [tuple(pair) for pair in spec["queries"]], callback=tracker.on_match
        )
        stats = await publisher.stats()
        pids = sorted({server.pid} | {w["pid"] for w in stats.get("workers", [])})
        session = publisher.open()
        await session.feed_text("<feed>")
        await publisher.ping()
        setup_s = time.perf_counter() - started

        # ---- closed phase
        cpu_before = {pid: proc_cpu_seconds(pid) for pid in pids}
        own_before = time.process_time()
        begin = time.perf_counter()
        alive = True
        for index, chunk in enumerate(closed_chunks):
            with span(tracer, "loadgen.closed.wait_window"):
                alive = await tracker.wait_until(index, WINDOW - 1)
            if not alive:
                break
            tracker.due[index] = time.perf_counter()
            with span(tracer, "loadgen.closed.send"):
                await session.feed_text(chunk)
        alive = alive and await tracker.wait_until(len(closed_chunks), 0)
        closed_wall = time.perf_counter() - begin
        own_cpu = time.process_time() - own_before
        cpu_after = {pid: proc_cpu_seconds(pid) for pid in pids}
        closed_latencies = sorted(tracker.latencies)
        tracker.latencies = []

        # ---- open phase
        period = 1.0 / OPEN_CHUNKS_PER_S
        lags: List[float] = []
        base = len(closed_chunks)
        begin = time.perf_counter() + period
        if alive:
            for offset, chunk in enumerate(open_chunks):
                due = begin + offset * period
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(max(0.0, time.perf_counter() - due))
                tracker.due[base + offset] = due
                with span(tracer, "loadgen.open.send"):
                    await session.feed_text(chunk)
            delay = begin + len(open_chunks) * period - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        backlog_end = tracker.unacked(len(chunks)) if alive else len(open_chunks)
        late = sum(tracker.outstanding) if backlog_end > BACKLOG_LIMIT else 0
        open_wall = time.perf_counter() - begin
        if alive:
            await tracker.wait_until(len(chunks), 0)
        await session.feed_text("</feed>")
        await session.finish()
        open_latencies = sorted(tracker.latencies)

        stats = await publisher.stats()
        dropped = sum(
            detail.get("dropped", 0)
            for detail in stats.get("subscription_detail", {}).values()
        )
        per_pid_cpu = {pid: cpu_after[pid] - cpu_before[pid] for pid in pids}
        worker_events = [
            w.get("elements", 0) for w in stats.get("workers", []) if w["pid"] != server.pid
        ]
        callback_errors = sum(
            sub.callback_errors for sub in subscriber.subscriptions.values()
        )
        closed_mb = sum(len(chunk) for chunk in closed_chunks) / 1e6
        return {
            "setup_s": setup_s,
            "wall_s": closed_wall,
            "measured_s": closed_wall + open_wall,
            "cpu_s": sum(per_pid_cpu.values()),
            "input_mb": closed_mb,
            "latency_p50_ms": percentile(open_latencies, 0.50) * 1e3 if open_latencies else 0.0,
            "latency_p99_ms": percentile(open_latencies, 0.99) * 1e3 if open_latencies else 0.0,
            "latency_samples": len(open_latencies),
            "closed_latency_p50_ms": percentile(closed_latencies, 0.50) * 1e3 if closed_latencies else 0.0,
            "peak_rss_mb": sum(peak_rss_mb(pid) for pid in pids),
            "expected": tracker.expected,
            "missing": len(tracker.owner),
            "late": max(0, late - len(tracker.owner)),  # the missing are counted already
            "unexpected": tracker.unexpected,
            "errors": callback_errors,
            "dropped": dropped,
            "layers": {
                "service.server.cpu_s": per_pid_cpu[server.pid] if len(pids) == 1 else 0.0,
                "service.server.busy_share": (
                    per_pid_cpu[server.pid] / closed_wall if len(pids) == 1 else 0.0
                ),
                "service.server.dropped": dropped,
                "service.server.rss_mb": peak_rss_mb(server.pid),
                "service.sharding.front_cpu_s": per_pid_cpu[server.pid] if len(pids) > 1 else 0.0,
                "service.worker.cpu_s": sum(
                    cpu for pid, cpu in per_pid_cpu.items() if pid != server.pid
                ),
                "service.worker.skew": (
                    max(worker_events) / (sum(worker_events) / len(worker_events))
                    if worker_events and sum(worker_events)
                    else 0.0
                ),
                "loadgen.lag_p99_ms": percentile(sorted(lags), 0.99) * 1e3 if lags else 0.0,
                "loadgen.backlog_end": backlog_end,
                "loadgen.cpu_share": own_cpu / closed_wall,
                "core.multi.matches": tracker.arrived,
                "core.multi.callback_errors": callback_errors,
            },
        }
    finally:
        await publisher.close()
        await subscriber.close()


def run(
    spec: Dict[str, Any], src_dir: str, out_dir: str, tracer: Any = None
) -> Dict[str, Any]:
    """Start a server, drive both phases, stop the server, return the sample.

    ``tracer`` (traced pass only) gets a span per chunk sent and per wait
    for the closed loop's window — the generator's side of the wire."""
    started = time.perf_counter()
    server = ServerProcess(src_dir, out_dir, spec["workers"])
    try:
        server.wait_listening()
        spawn_s = time.perf_counter() - started
        sample = asyncio.run(_drive(spec, server, started, tracer))
        sample["layers"]["service.sharding.spawn_s"] = spawn_s if spec["workers"] > 1 else 0.0
        return sample
    finally:
        server.stop()
