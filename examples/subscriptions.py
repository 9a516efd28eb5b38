#!/usr/bin/env python3
"""Standing subscriptions: many queries, one pass, eager delivery.

This example combines the two extensions the reproduction adds on top of the
paper's single-query engine:

* :class:`repro.Engine` — subscribe any number of XPath queries and drive
  them all from **one** sequential scan of the stream (parsing dominates
  cost, so this is ~N× cheaper than N scans);
* ``eager_emission`` — the single-query evaluator can also be configured to
  emit results the moment all remaining constraints are trivially satisfied.

The scenario is the paper's motivating one: a personalised news/stock feed
where different consumers subscribe to different fragments of the stream.

Run it with ``python examples/subscriptions.py [--updates 3000]``.
"""

from __future__ import annotations

import argparse
import time

from repro import Engine, Query, evaluate, stream_evaluate
from repro.datasets import NewsFeedConfig, NewsFeedGenerator

SUBSCRIPTIONS = {
    "acme-quotes": "//update[quote/@symbol='ACME']",
    "expensive-quotes": "//update/quote[price>400]/@symbol",
    "market-news": "//headline[@section='markets']/title/text()",
    "tech-news": "//headline[@section='technology']/title/text()",
    "high-volume": "//quote[volume>90000]/@symbol",
}


def run_shared_pass(generator: NewsFeedGenerator) -> dict:
    """Evaluate every subscription in a single scan of the feed."""
    delivery_log = {}

    def on_match(match) -> None:
        delivery_log[match.name] = delivery_log.get(match.name, 0) + 1

    with Engine() as engine:
        for name, query in SUBSCRIPTIONS.items():
            engine.subscribe(Query(query), callback=on_match, name=name)

        start = time.perf_counter()
        results = engine.evaluate(generator.chunks())
        elapsed = time.perf_counter() - start
    return {"results": results, "elapsed": elapsed, "delivered": delivery_log}


def run_separate_passes(generator: NewsFeedGenerator) -> float:
    """Reference: evaluate each subscription with its own scan."""
    start = time.perf_counter()
    for query in SUBSCRIPTIONS.values():
        evaluate(query, generator.chunks())
    return time.perf_counter() - start


def print_table(rows: list, title: str) -> None:
    """Print dict rows as an aligned plain-text table under ``title``."""
    widths = {key: max(len(key), *(len(str(row[key])) for row in rows)) for key in rows[0]}
    print(title)
    print("  ".join(key.ljust(width) for key, width in widths.items()))
    for row in rows:
        print("  ".join(str(row[key]).ljust(width) for key, width in widths.items()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--updates", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=14)
    args = parser.parse_args()

    generator = NewsFeedGenerator(NewsFeedConfig(updates=args.updates), seed=args.seed)
    print(f"Feed: {args.updates} updates, {len(SUBSCRIPTIONS)} standing subscriptions\n")

    shared = run_shared_pass(generator)
    separate_elapsed = run_separate_passes(generator)

    rows = [
        {
            "subscription": name,
            "query": query,
            "solutions": len(shared["results"][name]),
            "push_deliveries": shared["delivered"].get(name, 0),
        }
        for name, query in SUBSCRIPTIONS.items()
    ]
    print_table(rows, "Per-subscription results (single shared scan)")
    print()
    print(f"shared single scan : {shared['elapsed']:.2f} s")
    print(f"one scan per query : {separate_elapsed:.2f} s")
    print(f"speed-up           : {separate_elapsed / max(shared['elapsed'], 1e-9):.1f}x")
    print()

    # Eager emission demo: how early does the first ACME alert arrive?
    query = SUBSCRIPTIONS["acme-quotes"]
    for eager in (False, True):
        start = time.perf_counter()
        first = None
        for _ in stream_evaluate(query, generator.chunks(), eager_emission=eager):
            first = time.perf_counter() - start
            break
        label = "eager emission" if eager else "lazy (paper)  "
        print(f"first ACME alert with {label}: {first * 1000:.1f} ms into the stream")


if __name__ == "__main__":
    main()
