#!/usr/bin/env python3
"""Recursive documents: watching the exponential match space get pruned.

Section 1 of the paper explains why streaming XPath is hard: on recursive
data a single XML node can have exponentially many pattern matches, and
predicate satisfaction is only known later in the stream.  This example makes
that concrete:

* it generates documents where ``section`` nests deeper and deeper,
* runs the query family ``//section[author]//section[author]...`` with both
  the TwigM engine (via :class:`repro.Engine`) and the naive
  match-enumerating baseline,
* prints how many explicit pattern matches the naive approach stores versus
  how many stack entries TwigM needs — the polynomial/exponential separation
  that is the paper's core claim.

Run it with ``python examples/recursive_documents.py [--depth 10] [--max-steps 5]``.
"""

from __future__ import annotations

import argparse
import time

from repro import Engine, Query
from repro.baselines import NaiveStreamingEvaluator
from repro.datasets import RecursiveBookGenerator, RecursiveConfig
from repro.xpath import linear_descendant_query


def build_document(depth: int) -> str:
    """A document whose <section> elements nest ``depth`` levels deep."""
    generator = RecursiveBookGenerator(
        RecursiveConfig(
            section_depth=depth,
            table_depth=3,
            section_groups=1,
            cells_per_table=1,
            author_probability=1.0,
            position_probability=1.0,
            noise_per_section=0,
        ),
        seed=21,
    )
    return generator.text()


def print_table(rows: list, title: str) -> None:
    """Print dict rows as an aligned plain-text table under ``title``."""
    widths = {key: max(len(key), *(len(str(row[key])) for row in rows)) for key in rows[0]}
    print(title)
    print("  ".join(key.ljust(width) for key, width in widths.items()))
    for row in rows:
        print("  ".join(str(row[key]).ljust(width) for key, width in widths.items()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=10, help="section nesting depth")
    parser.add_argument("--max-steps", type=int, default=5, help="largest query size (steps)")
    args = parser.parse_args()

    document = build_document(args.depth)
    print(f"Document: sections nested {args.depth} deep ({len(document)} characters)\n")

    rows = []
    for steps in range(1, args.max_steps + 1):
        query = linear_descendant_query("section", steps, predicate_tag="author")

        with Engine() as twigm:
            subscription = twigm.subscribe(Query(query))
            start = time.perf_counter()
            twigm_result = twigm.evaluate(document)[subscription.name]
            twigm_seconds = time.perf_counter() - start
            twigm_pushes = twigm.statistics()[subscription.name]["pushes"]

        naive = NaiveStreamingEvaluator(query)
        start = time.perf_counter()
        naive_result = naive.evaluate(document)
        naive_seconds = time.perf_counter() - start

        assert naive_result.keys() == twigm_result.keys(), "engines disagree!"

        rows.append(
            {
                "steps": steps,
                "query": query if steps <= 3 else f"//section[author] x {steps}",
                "solutions": len(twigm_result),
                "twigm_entries": twigm_pushes,
                "twigm_s": round(twigm_seconds, 4),
                "naive_records": naive.statistics.records_created,
                "naive_s": round(naive_seconds, 4),
            }
        )

    print_table(rows, "TwigM stack entries vs naive explicit pattern matches")
    print()
    last = rows[-1]
    ratio = last["naive_records"] / max(1, last["twigm_entries"])
    print(f"At {last['steps']} steps the naive evaluator stores {last['naive_records']} explicit")
    print(f"pattern matches where TwigM pushes only {last['twigm_entries']} stack entries "
          f"({ratio:.0f}x fewer).")
    print("Increase --depth to watch the gap grow exponentially while TwigM stays flat.")


if __name__ == "__main__":
    main()
