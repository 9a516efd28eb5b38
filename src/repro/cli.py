"""Command-line interface: ``vitex`` (or ``python -m repro.cli``).

Subcommands mirror how the original demo system was driven:

* ``vitex run QUERY FILE`` — evaluate an XPath query over an XML file (or
  stdin with ``-``), printing solutions as they are found.
* ``vitex explain QUERY`` — show the parsed query twig and the TwigM machine
  that the builder constructs for it (paper Figure 3).
* ``vitex generate DATASET`` — write one of the synthetic datasets to a file.
* ``vitex watch QUERIES FILE`` — register many standing queries (one per
  line) and stream ``[name] solution`` matches as they are found.
* ``vitex serve`` / ``vitex publish`` / ``vitex subscribe`` — the streaming
  subscription service: a long-lived server holding standing queries,
  publishers pushing live XML at it chunk by chunk, and subscribers
  receiving solution frames (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import os
import re
import signal
import sys
from typing import List, Optional, Tuple

from . import __version__
from .api import Engine, EngineConfig, Query
from .core.engine import TwigMEvaluator as _SingleQueryEvaluator
from .core.builder import build_machine
from .datasets.auction import AuctionConfig, AuctionGenerator
from .datasets.newsfeed import NewsFeedConfig, NewsFeedGenerator
from .datasets.protein import ProteinConfig, ProteinDatabaseGenerator
from .datasets.recursive import RecursiveBookGenerator, RecursiveConfig
from .datasets.treebank import TreebankConfig, TreebankGenerator
from .errors import ViteXError
from .xpath.analysis import describe
from .xpath.normalize import compile_query, query_to_string


#: The one ``--parser`` spelling shared by every XML-parsing verb.  Choices
#: come from :class:`repro.api.EngineConfig` so the CLI can never drift from
#: the library's accepted backends (a test enforces the sync).
PARSER_CHOICES = EngineConfig.PARSERS


def _parser_flag_parent() -> argparse.ArgumentParser:
    """Shared argparse parent providing the uniform ``--parser`` flag.

    The default is ``None`` so each verb can keep its own effective default
    (always ``native`` today) without the parent hard-coding it; verbs
    resolve via :func:`_effective_parser`.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--parser",
        choices=PARSER_CHOICES,
        default=None,
        help="parser back-end: pure (alias native) or expat (default: native)",
    )
    return parent


def _effective_parser(args: argparse.Namespace, default: str = "native") -> str:
    """The verb's parser backend: the shared flag, or the verb default."""
    parser = getattr(args, "parser", None)
    return default if parser is None else parser


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="vitex",
        description="ViteX reproduction: streaming XPath processing (ICDE 2005)",
    )
    parser.add_argument("--version", action="version", version=f"vitex-repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")
    parser_flag = _parser_flag_parent()

    run_parser = subparsers.add_parser(
        "run",
        help="evaluate a query over an XML document",
        parents=[parser_flag],
    )
    run_parser.add_argument("query", help="XPath expression (XP{/,//,*,[]} fragment)")
    run_parser.add_argument("file", help="path to an XML file, or - for stdin")
    run_parser.add_argument(
        "--fragments",
        action="store_true",
        help="print serialized XML fragments for element solutions",
    )
    run_parser.add_argument(
        "--eager",
        action="store_true",
        help="emit solutions eagerly when the remaining ancestors carry no predicates",
    )
    run_parser.add_argument(
        "--stats", action="store_true", help="print engine statistics after the run"
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="print only the solution count"
    )

    watch_parser = subparsers.add_parser(
        "watch",
        help="register standing queries from a file and stream matches",
        parents=[parser_flag],
        description=(
            "Register every query in QUERIES (one per line; 'name: query' "
            "assigns a subscription name, bare lines are auto-named, '#' "
            "starts a comment) and stream '[name] solution' lines as "
            "matches are found — the paper's stock-ticker subscription "
            "scenario on the command line."
        ),
    )
    watch_parser.add_argument("queries", help="path to the query file")
    watch_parser.add_argument("file", help="path to an XML file, or - for stdin")
    watch_parser.add_argument(
        "--quiet", action="store_true", help="print only the per-subscription totals"
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the streaming subscription service",
        parents=[parser_flag],
        description=(
            "Start the asyncio subscription server: clients SUBSCRIBE "
            "standing queries and FEED live XML; solutions are pushed back "
            "as they are found.  With --watch, queries from a watch-format "
            "file are registered server-side and matches print to stdout."
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=None, help="TCP port (default 8005; 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--watch",
        metavar="QUERIES",
        default=None,
        help="register server-local standing queries from a watch-format file",
    )
    serve_parser.add_argument(
        "--outbox-limit",
        type=int,
        default=None,
        help="per-connection outbox bound in frames (slow consumers drop oldest)",
    )
    serve_parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="checkpoint file path (default vitex-checkpoint.json) used by "
        "the checkpoint frame, vitex checkpoint and --checkpoint-interval",
    )
    serve_parser.add_argument(
        "--checkpoint-interval",
        type=float,
        metavar="SECONDS",
        default=None,
        help="auto-write the checkpoint file every SECONDS (chunk-aligned)",
    )
    serve_parser.add_argument(
        "--workers",
        default="1",
        metavar="N",
        help="shard subscriptions across N worker processes, or 'auto' for "
        "one per CPU core (default 1: single-process server, byte-identical "
        "protocol)",
    )
    serve_parser.add_argument(
        "--shard-mode",
        choices=("auto", "events", "broadcast"),
        default="auto",
        help="how the front feeds its workers: 'events' parses each document "
        "once and ships binary event frames (worker protocol v2), "
        "'broadcast' ships raw XML for every worker to re-parse (v1), "
        "'auto' negotiates events when the whole pool supports it (default)",
    )

    resume_parser = subparsers.add_parser(
        "resume",
        help="restore a checkpoint file and continue serving",
        parents=[parser_flag],
        description=(
            "Start the subscription server from a checkpoint written by "
            "'vitex checkpoint' / the checkpoint frame / --checkpoint-interval: "
            "standing queries, machine state and any half-parsed document "
            "resume exactly where the checkpoint was taken.  Subscribers "
            "re-attach by subscribing under their previous names."
        ),
    )
    resume_parser.add_argument("checkpoint_file", help="path to the checkpoint file")
    resume_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    resume_parser.add_argument(
        "--port", type=int, default=None, help="TCP port (default 8005; 0 = ephemeral)"
    )
    resume_parser.add_argument(
        "--watch",
        metavar="QUERIES",
        default=None,
        help="re-bind printing callbacks to restored server-local queries "
        "(and register any new ones from the watch-format file)",
    )
    resume_parser.add_argument(
        "--outbox-limit",
        type=int,
        default=None,
        help="per-connection outbox bound in frames (slow consumers drop oldest)",
    )
    resume_parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="checkpoint file path for future checkpoints "
        "(default: the file being resumed)",
    )
    resume_parser.add_argument(
        "--checkpoint-interval",
        type=float,
        metavar="SECONDS",
        default=None,
        help="auto-write the checkpoint file every SECONDS (chunk-aligned)",
    )
    resume_parser.add_argument(
        "--workers",
        default="1",
        metavar="N",
        help="shard the restored subscriptions across N worker processes, or "
        "'auto' for one per CPU core (mid-document checkpoints need N = the "
        "count that wrote them)",
    )
    resume_parser.add_argument(
        "--shard-mode",
        choices=("auto", "events", "broadcast"),
        default="auto",
        help="worker feed strategy (see 'vitex serve --help'); checkpoints "
        "taken mid-document in events mode must be resumed with 'auto' or "
        "'events'",
    )

    checkpoint_parser = subparsers.add_parser(
        "checkpoint",
        help="ask a running service to write a checkpoint file",
        description=(
            "Connect to a running vitex service and trigger a checkpoint: "
            "the server writes its live state (standing queries, machine "
            "stacks, any half-parsed document) to disk and reports the path "
            "and size.  Resume later with 'vitex resume'."
        ),
    )
    checkpoint_parser.add_argument("--host", default="127.0.0.1")
    checkpoint_parser.add_argument("--port", type=int, default=None)
    checkpoint_parser.add_argument(
        "--path",
        default=None,
        help="server-side path to write (default: the server's configured path)",
    )

    publish_parser = subparsers.add_parser(
        "publish",
        help="stream an XML document to the subscription service",
        parents=[parser_flag],
        description=(
            "Read FILE (or stdin with -) and push it to a running vitex "
            "service in chunks, then finish the document."
        ),
    )
    publish_parser.add_argument("file", help="path to an XML file, or - for stdin")
    publish_parser.add_argument("--host", default="127.0.0.1")
    publish_parser.add_argument("--port", type=int, default=None)
    publish_parser.add_argument(
        "--chunk-size",
        type=int,
        # Worst case ~6 bytes per character once JSON-escaped (control
        # chars); 32 Ki characters keeps any frame under the service's
        # 256 KiB frame bound.
        default=32 * 1024,
        help="feed chunk size in characters (default 32768)",
    )
    publish_parser.add_argument(
        "--no-finish",
        action="store_true",
        help="leave the document open (more chunks will follow from elsewhere)",
    )
    publish_parser.add_argument(
        "--follow",
        action="store_true",
        help="infinite-stream mode: open a stream session (document "
        "boundaries autodetected server-side), tail FILE as it grows — or "
        "stdin until EOF — and close the session on Ctrl-C, printing its "
        "final stats",
    )
    publish_parser.add_argument(
        "--retain-docs",
        type=int,
        metavar="K",
        default=None,
        help="(--follow) retain the last K documents server-side so late "
        "subscribers can join with a replay window",
    )
    publish_parser.add_argument(
        "--retain-bytes",
        type=int,
        metavar="B",
        default=None,
        help="(--follow) bound the server-side retention spool to B bytes",
    )
    publish_parser.add_argument(
        "--on-error",
        choices=("skip", "raise"),
        default=None,
        help="(--follow) parse-error policy: 'skip' abandons the bad "
        "document and resumes at the next boundary (default), 'raise' "
        "closes the stream session",
    )
    publish_parser.add_argument(
        "--idle-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="(--follow) ask the server to close the stream session after "
        "this long without a feed",
    )
    publish_parser.add_argument(
        "--heartbeat-interval",
        type=float,
        metavar="SECONDS",
        default=None,
        help="(--follow) ask the server to push heartbeat frames at this "
        "interval while the stream session is open",
    )

    subscribe_parser = subparsers.add_parser(
        "subscribe",
        help="hold standing queries against the subscription service",
        description=(
            "Subscribe one or more queries and print '[name] solution' "
            "lines as the service pushes matches; Ctrl-C prints totals."
        ),
    )
    subscribe_parser.add_argument("queries", nargs="+", help="XPath expressions")
    subscribe_parser.add_argument("--host", default="127.0.0.1")
    subscribe_parser.add_argument("--port", type=int, default=None)
    subscribe_parser.add_argument(
        "--count", type=int, default=None, help="exit after this many solutions"
    )
    subscribe_parser.add_argument(
        "--replay",
        action="store_true",
        help="replay the server's retained document window before live "
        "delivery (needs an open stream session with retention, see "
        "'vitex publish --follow --retain-docs')",
    )

    explain_parser = subparsers.add_parser("explain", help="show the query twig and TwigM machine")
    explain_parser.add_argument("query", help="XPath expression")

    generate_parser = subparsers.add_parser("generate", help="write a synthetic dataset to a file")
    generate_parser.add_argument(
        "dataset", choices=("protein", "recursive", "auction", "newsfeed", "treebank")
    )
    generate_parser.add_argument("output", help="output path")
    generate_parser.add_argument("--size-mb", type=float, default=1.0, help="approximate size in MB")
    generate_parser.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "watch":
            return _command_watch(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "resume":
            return _command_resume(args)
        if args.command == "checkpoint":
            return _command_checkpoint(args)
        if args.command == "publish":
            return _command_publish(args)
        if args.command == "subscribe":
            return _command_subscribe(args)
        if args.command == "explain":
            return _command_explain(args)
        if args.command == "generate":
            return _command_generate(args)
    except ViteXError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - unreachable


def _command_run(args: argparse.Namespace) -> int:
    # Fragment capture and eager emission are single-machine features, so
    # ``run`` drives the internal single-query evaluator directly (the
    # query still goes through the compiled ``Query`` value object).
    evaluator = _SingleQueryEvaluator(
        Query(args.query), capture_fragments=args.fragments, eager_emission=args.eager
    )
    if args.file == "-":
        source = sys.stdin.read()
    else:
        source = open(args.file, "rb")
    count = 0
    try:
        for solution in evaluator.stream(source, parser=_effective_parser(args)):
            count += 1
            if args.quiet:
                continue
            print(solution.describe())
            if args.fragments and solution.fragment:
                print(f"    {solution.fragment}")
    finally:
        if hasattr(source, "close"):
            source.close()
    print(f"{count} solution(s)")
    if args.stats:
        for key, value in evaluator.statistics.as_dict().items():
            print(f"  {key}: {value}")
    return 0


#: ``name: query`` line in a watch query file (names never start with ``/``,
#: so there is no ambiguity with bare XPath lines).
_WATCH_LINE_RE = re.compile(r"^([A-Za-z_][\w.-]*):\s+(.+)$")


def _load_watch_queries(path: str) -> List[Tuple[Optional[str], str]]:
    """Parse a watch query file into ``(name or None, query)`` entries."""
    entries: List[Tuple[Optional[str], str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            match = _WATCH_LINE_RE.match(line)
            if match:
                entries.append((match.group(1), match.group(2).strip()))
            else:
                entries.append((None, line))
    return entries


def _command_watch(args: argparse.Namespace) -> int:
    entries = _load_watch_queries(args.queries)
    if not entries:
        print(f"error: no queries found in {args.queries}", file=sys.stderr)
        return 1
    engine = Engine(EngineConfig(parser=_effective_parser(args)))
    for name, query in entries:
        engine.subscribe(query, name=name)
    if args.file == "-":
        source = sys.stdin.read()
    else:
        source = open(args.file, "rb")
    # A long watch over a live pipe is routinely ended with Ctrl-C: convert
    # SIGINT into the summary path (delivery counts + engine close, which
    # releases the compiled-query cache refs) instead of a bare traceback.
    def _sigint_handler(signum, frame):
        raise KeyboardInterrupt

    try:
        previous_handler = signal.signal(signal.SIGINT, _sigint_handler)
    except ValueError:  # not the main thread (e.g. under a test runner)
        previous_handler = None
    interrupted = False
    try:
        try:
            for match in engine.stream(source):
                if not args.quiet:
                    print(match.describe())
        except KeyboardInterrupt:
            interrupted = True
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
        if hasattr(source, "close"):
            source.close()
    if interrupted:
        print("interrupted; delivery counts so far:", file=sys.stderr)
    for subscription in engine.subscriptions:
        print(
            f"{subscription.name}: {subscription.delivered} solution(s) "
            f"for {subscription.query}"
        )
    engine.close()
    return 130 if interrupted else 0


def _service_port(args: argparse.Namespace) -> int:
    from .service.server import DEFAULT_PORT

    return DEFAULT_PORT if args.port is None else args.port


def _command_serve(args: argparse.Namespace) -> int:
    return _serve_main(args, restore_path=None)


def _command_resume(args: argparse.Namespace) -> int:
    return _serve_main(args, restore_path=args.checkpoint_file)


def _serve_main(args: argparse.Namespace, restore_path: Optional[str]) -> int:
    from .service.server import DEFAULT_OUTBOX_LIMIT, ServiceServer

    workers_arg = getattr(args, "workers", 1)
    shard_mode = getattr(args, "shard_mode", "auto")
    if isinstance(workers_arg, str) and workers_arg.strip().lower() == "auto":
        workers = os.cpu_count() or 1
    else:
        try:
            workers = int(workers_arg)
        except (TypeError, ValueError):
            print(
                f"error: --workers must be an integer or 'auto', "
                f"got {workers_arg!r}",
                file=sys.stderr,
            )
            return 1
    if workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 1
    cores = os.cpu_count()
    if cores is not None and workers > cores:
        print(
            f"warning: --workers {workers} exceeds the {cores} available "
            f"CPU core(s); worker processes will contend for cores",
            file=sys.stderr,
        )
    outbox_limit = (
        DEFAULT_OUTBOX_LIMIT if args.outbox_limit is None else args.outbox_limit
    )
    watch_entries: List[Tuple[Optional[str], str]] = []
    if args.watch:
        try:
            watch_entries = _load_watch_queries(args.watch)
        except OSError as exc:
            print(f"error: cannot read {args.watch}: {exc}", file=sys.stderr)
            return 1
        if not watch_entries:
            print(f"error: no queries found in {args.watch}", file=sys.stderr)
            return 1
    checkpoint_path = args.checkpoint
    if checkpoint_path is None and restore_path is not None:
        # Future checkpoints of a resumed server overwrite the file it came
        # from unless redirected.
        checkpoint_path = restore_path

    async def _run() -> int:
        server_kwargs = dict(
            parser=_effective_parser(args),
            outbox_limit=outbox_limit,
            checkpoint_path=checkpoint_path,
            checkpoint_interval=args.checkpoint_interval,
        )
        if workers > 1 or shard_mode == "events":
            from .service.sharding import ShardedServiceServer

            # An explicit --shard-mode events forces the sharded front even
            # at --workers 1 (parse-once over one worker pipe).
            server = ShardedServiceServer(
                workers=workers, shard_mode=shard_mode, **server_kwargs
            )
        else:
            # ``--workers 1`` is the plain single-process server: byte-
            # identical protocol, no worker pipes in the path.
            server = ServiceServer(**server_kwargs)

        def _print_solution(name: str, solution) -> None:
            print(f"[{name}] {solution.describe()}", flush=True)

        if restore_path is not None:
            summary = server.restore_from_file(restore_path)
            if inspect.isawaitable(summary):
                # The sharded server restores asynchronously (it round-trips
                # per-worker snapshots over the pipes).
                summary = await summary
            state = "mid-document" if summary["mid_document"] else "between documents"
            print(
                f"resumed {restore_path}: {summary['subscriptions']} "
                f"subscription(s), {summary['elements']} element(s) parsed, "
                f"{state}",
                flush=True,
            )
        for name, query in watch_entries:
            if name is not None and server.rebind_local_callback(
                name, _print_solution, query=query
            ):
                print(f"watching [{name}] {query} (restored)")
                continue
            registered = server.add_local_subscription(
                query, name=name, callback=_print_solution
            )
            print(f"watching [{registered}] {query}")
        await server.start(args.host, _service_port(args))
        host, port = server.address
        print(f"vitex service listening on {host}:{port}", flush=True)
        stop = asyncio.Event()
        graceful = False

        def _request_stop(drain: bool) -> None:
            # SIGTERM asks for a graceful drain (stop accepting, flush every
            # outbox, broadcast eof); SIGINT keeps the immediate shutdown.
            nonlocal graceful
            graceful = graceful or drain
            stop.set()

        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGINT, _request_stop, False)
            loop.add_signal_handler(signal.SIGTERM, _request_stop, True)
        except NotImplementedError:  # pragma: no cover - non-unix loops
            pass
        serve_task = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        if graceful:
            print("draining: flushing outboxes before shutdown", flush=True)
            await server.drain()
        stats = server.stats()
        serve_task.cancel()
        try:
            await serve_task
        except asyncio.CancelledError:
            pass
        await server.close()
        print(
            f"shutting down: {stats['documents']} document(s), "
            f"{stats['elements']} element(s), {stats['solutions']} solution(s) delivered"
        )
        for name, detail in stats["subscription_detail"].items():
            dropped = f", {detail['dropped']} dropped" if detail["dropped"] else ""
            print(
                f"{name}: {detail['delivered']} solution(s){dropped} "
                f"for {detail['query']}"
            )
        return 0

    return asyncio.run(_run())


def _command_checkpoint(args: argparse.Namespace) -> int:
    from .api.remote import connect
    from .service.client import ServiceError

    async def _run() -> int:
        try:
            client = await connect(args.host, _service_port(args))
        except OSError as exc:
            print(
                f"error: cannot reach service at {args.host}:{_service_port(args)}: {exc}",
                file=sys.stderr,
            )
            return 1
        try:
            reply = await client.checkpoint(args.path)
            state = "mid-document" if reply.get("mid_document") else "between documents"
            print(
                f"checkpointed {reply['subscriptions']} subscription(s) "
                f"to {reply['path']} ({reply['bytes']} bytes, {state}); "
                f"resume with: vitex resume {reply['path']}"
            )
            return 0
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            await client.close()

    return asyncio.run(_run())


def _command_publish(args: argparse.Namespace) -> int:
    from .api.remote import connect
    from .service.client import ServiceError

    if args.chunk_size <= 0:
        print("error: --chunk-size must be positive", file=sys.stderr)
        return 1
    stream_only = (
        args.retain_docs,
        args.retain_bytes,
        args.on_error,
        args.idle_timeout,
        args.heartbeat_interval,
    )
    if not args.follow and any(value is not None for value in stream_only):
        print(
            "error: --retain-docs/--retain-bytes/--on-error/--idle-timeout/"
            "--heartbeat-interval configure the stream session and need --follow",
            file=sys.stderr,
        )
        return 1
    if args.follow and args.no_finish:
        print(
            "error: --no-finish is a bounded-document flag; --follow has no "
            "finish (boundaries are autodetected)",
            file=sys.stderr,
        )
        return 1
    if args.follow:
        return _publish_follow(args)

    async def _run() -> int:
        try:
            client = await connect(args.host, _service_port(args))
        except OSError as exc:
            print(
                f"error: cannot reach service at {args.host}:{_service_port(args)}: {exc}",
                file=sys.stderr,
            )
            return 1
        try:
            if args.file == "-":
                handle = sys.stdin
            else:
                handle = open(args.file, "r", encoding="utf-8")
            session = client.open()
            sent = 0
            chunks = 0
            try:
                while True:
                    chunk = handle.read(args.chunk_size)
                    if not chunk:
                        break
                    await session.feed_text(chunk)
                    sent += len(chunk)
                    chunks += 1
            finally:
                if handle is not sys.stdin:
                    handle.close()
            if args.no_finish:
                # Round-trip a ping: the server processes frames in order,
                # so any parse error for the chunks above has reached the
                # push lane by the time the pong lands.
                await client.ping()
                failure = _first_error_push(client)
                if failure is not None:
                    print(f"error: {failure}", file=sys.stderr)
                    return 1
                print(f"published {sent} char(s) in {chunks} chunk(s); document left open")
                return 0
            summary = await session.finish()
            print(
                f"published {sent} char(s) in {chunks} chunk(s); "
                f"document {summary['document']} finished "
                f"with {summary['elements']} element(s)"
            )
            return 0
        except ServiceError as exc:
            # A feed error that aborted the document makes finish() fail
            # with "no document in progress" — the push lane has the real
            # parse error; prefer it.
            failure = _first_error_push(client)
            print(f"error: {failure or exc}", file=sys.stderr)
            return 1
        finally:
            await client.close()

    return asyncio.run(_run())


def _publish_follow(args: argparse.Namespace) -> int:
    """``vitex publish --follow``: an endless feed into a stream session.

    Opens an infinite-stream session on the service, then tails FILE as it
    grows (or reads stdin until the pipe closes), shipping every new chunk
    as a raw ``feed`` frame — the server autodetects document boundaries.
    Ctrl-C closes the session gracefully and prints its final stats.
    """
    from .api.remote import connect
    from .service.client import ServiceError

    async def _run() -> int:
        try:
            client = await connect(args.host, _service_port(args))
        except OSError as exc:
            print(
                f"error: cannot reach service at {args.host}:{_service_port(args)}: {exc}",
                file=sys.stderr,
            )
            return 1
        interrupted = False
        sent = 0
        chunks = 0
        stop = asyncio.Event()
        tailing = args.file != "-"
        if tailing:
            # Tailing a file idles in asyncio timers, where a bare SIGINT
            # would surface as an unhandled KeyboardInterrupt out of
            # asyncio.run; route it to the stop event instead.  Reading
            # stdin blocks *inside* the coroutine, so there SIGINT must
            # stay the default KeyboardInterrupt (a loop-level handler
            # could never run while read() is blocked).
            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGINT, stop.set
                )
            except NotImplementedError:  # pragma: no cover - non-unix loops
                pass
        try:
            try:
                reply = await client.stream_open(
                    retain_documents=args.retain_docs,
                    retain_bytes=args.retain_bytes,
                    on_error=args.on_error,
                    idle_timeout=args.idle_timeout,
                    heartbeat_interval=args.heartbeat_interval,
                )
            except ServiceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            replay = "on" if reply.get("replay") else "off"
            print(
                f"stream session open (replay {replay}); "
                "feeding until Ctrl-C" + (" or EOF" if not tailing else ""),
                flush=True,
            )
            handle = sys.stdin if args.file == "-" else open(
                args.file, "r", encoding="utf-8"
            )
            failure: Optional[str] = None
            try:
                while not stop.is_set():
                    chunk = handle.read(args.chunk_size)
                    if not chunk:
                        if not tailing:
                            break  # stdin pipe closed: the stream is over
                        try:
                            await asyncio.wait_for(stop.wait(), timeout=0.25)
                        except asyncio.TimeoutError:
                            pass
                        continue
                    await client.feed(chunk)
                    sent += len(chunk)
                    chunks += 1
                    failure = _first_error_push(client)
                    if failure is not None:
                        print(f"error: {failure}", file=sys.stderr)
                        break
            except KeyboardInterrupt:
                interrupted = True
            finally:
                if handle is not sys.stdin:
                    handle.close()
            interrupted = interrupted or stop.is_set()
            try:
                stats = (await client.stream_close()).get("stats", {})
            except ServiceError as exc:
                # A raise-mode parse error (or idle timeout) already closed
                # the session server-side; the push lane had the story.
                if failure is None:
                    print(f"error: {exc}", file=sys.stderr)
                return 1
            print(
                f"stream closed: published {sent} char(s) in {chunks} "
                f"chunk(s); {stats.get('documents', 0)} document(s) "
                f"({stats.get('documents_failed', 0)} failed), "
                f"{stats.get('elements', 0)} element(s)"
            )
            return 130 if interrupted else (1 if failure is not None else 0)
        finally:
            await client.close()

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 130


def _first_error_push(client) -> Optional[str]:
    """The first buffered ``error`` push's message, if any."""
    for frame in client.pending_pushes():
        if frame.get("type") == "error":
            return frame.get("message", "service error")
    return None


def _command_subscribe(args: argparse.Namespace) -> int:
    from .api.remote import connect

    async def _run() -> int:
        try:
            client = await connect(args.host, _service_port(args))
        except OSError as exc:
            print(
                f"error: cannot reach service at {args.host}:{_service_port(args)}: {exc}",
                file=sys.stderr,
            )
            return 1
        delivered = {}
        try:
            for query in args.queries:
                subscription = await client.subscribe(
                    query, replay_window=args.replay
                )
                delivered[subscription.name] = 0
                print(f"subscribed [{subscription.name}] {query}", flush=True)
            remaining = args.count
            async for match in client.matches():
                print(match.describe(), flush=True)
                delivered[match.name] = delivered.get(match.name, 0) + 1
                if remaining is not None:
                    remaining -= 1
                    if remaining <= 0:
                        break
            return 0
        except KeyboardInterrupt:
            return 130
        finally:
            for name, count in delivered.items():
                print(f"{name}: {count} solution(s)", file=sys.stderr)
            await client.close()

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 130


def _command_explain(args: argparse.Namespace) -> int:
    tree = compile_query(args.query)
    print(f"Query: {args.query}")
    print(f"Shape: {describe(tree)}")
    print()
    print("Normalized query twig:")
    print(query_to_string(tree))
    print()
    machine = build_machine(tree)
    print(machine.describe())
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    target_bytes = int(args.size_mb * 1024 * 1024)
    if args.dataset == "protein":
        generator = ProteinDatabaseGenerator(
            ProteinConfig(target_bytes=max(1024, target_bytes)), seed=args.seed
        )
    elif args.dataset == "recursive":
        depth = max(3, int(args.size_mb * 4))
        generator = RecursiveBookGenerator(
            RecursiveConfig(section_depth=depth, table_depth=depth, section_groups=depth),
            seed=args.seed,
        )
    elif args.dataset == "auction":
        scale = max(1, int(args.size_mb * 200))
        generator = AuctionGenerator(
            AuctionConfig(items=scale, people=scale // 2 + 1, open_auctions=scale // 2 + 1),
            seed=args.seed,
        )
    elif args.dataset == "treebank":
        generator = TreebankGenerator(
            TreebankConfig(sentences=max(5, int(args.size_mb * 1200))), seed=args.seed
        )
    else:
        generator = NewsFeedGenerator(
            NewsFeedConfig(updates=max(10, int(args.size_mb * 6000))), seed=args.seed
        )
    written = generator.write_to(args.output)
    print(f"wrote {written} bytes of {args.dataset} data to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
