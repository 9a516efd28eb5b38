"""``python3 -m perfbench pin``: (re)write ``perfbench/expected/*.json``.

For the default seed, pins the sha256 of every workload's input and the
count + digest of its expected match keys.  Before writing, the generator's
own answer is cross-checked against ``repro.baselines.dom_eval`` — the DOM
oracle — wherever the input is a tree: both one-shot documents, and every
ticker document × query of ``stream-churn``.  The record feeds (``subs-100k``
and the two service workloads) are pinned from generator bookkeeping: one
known match per record and subscription.

Run it only when an input generator changes on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from typing import List

from . import harness, inputs, workloads


def _oracle_keys(query: str, document: str, name: str) -> List[str]:
    from repro.baselines.dom_eval import evaluate_with_dom

    return [
        inputs.match_key(name, s.kind.value, s.node.order, s.attribute or "")
        for s in evaluate_with_dom(query, document)
    ]


def _cross_check(name: str, spec: dict) -> None:
    if name in ("protein-oneshot", "recursive-oneshot"):
        with open(spec["doc"], encoding="utf-8") as handle:
            oracle = _oracle_keys(spec["query"], handle.read(), "q")
        if sorted(oracle) != sorted(spec["expected_keys"]):
            raise SystemExit(f"{name}: generator bookkeeping disagrees with the DOM oracle")
    elif name == "stream-churn":
        for index, (document, records) in enumerate(inputs.ticker_corpus(spec["seed"])):
            for query, rule in inputs.TICKER_QUERIES:
                oracle = _oracle_keys(query, document, "t")
                mine = [inputs.match_key("t", *match) for match in inputs.ticker_matches(records, rule)]
                if oracle != mine:
                    raise SystemExit(f"{name}: document {index}, {query}: rule disagrees with the DOM oracle")


def main(argv: List[str]) -> int:
    sys.path.insert(0, harness.SRC_DIR)
    manifest = harness.load_manifest()
    tmp_dir = os.path.join(harness.OUT_DIR, f"tmp-{os.getpid()}-pin")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(os.path.join(harness.HERE, "expected"), exist_ok=True)
    try:
        for workload in manifest["workloads"]:
            name = workload["name"]
            spec = workloads.build_spec(name, inputs.DEFAULT_SEED, 1.0, tmp_dir)
            _cross_check(name, spec)
            pin = {
                "seed": inputs.DEFAULT_SEED,
                "input_sha256": spec["input_sha256"],
                "count": spec["expected"]["count"],
                "digest": spec["expected"]["digest"],
            }
            path = os.path.join(harness.HERE, "expected", f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(pin, handle, indent=1)
                handle.write("\n")
            print(f"pinned {name}: {pin['count']} matches, input {pin['input_sha256'][:12]}…")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return 0
