"""Named workloads: (dataset, query) pairs used by benchmarks and examples.

A workload bundles a dataset factory with one or more queries and a size
knob, so every experiment in EXPERIMENTS.md can name exactly what it ran.
The registry keys are stable strings (``protein``, ``recursive``, ``auction``,
``newsfeed``) used by the CLI's ``vitex bench`` subcommand and the benchmark
files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..datasets.auction import AuctionConfig, AuctionGenerator
from ..datasets.base import DatasetGenerator
from ..datasets.newsfeed import NewsFeedConfig, NewsFeedGenerator
from ..datasets.protein import ProteinConfig, ProteinDatabaseGenerator
from ..datasets.recursive import RecursiveBookGenerator, RecursiveConfig
from ..datasets.treebank import TreebankConfig, TreebankGenerator
from ..errors import BenchmarkError


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    #: Registry key.
    name: str
    #: Human description shown in reports.
    description: str
    #: Factory producing a dataset generator scaled by ``scale`` (1.0 = default).
    dataset_factory: Callable[[float], DatasetGenerator]
    #: Queries the workload runs (at least one).
    queries: Sequence[str] = field(default_factory=tuple)

    def dataset(self, scale: float = 1.0) -> DatasetGenerator:
        """Instantiate the dataset generator at the given scale."""
        if scale <= 0:
            raise BenchmarkError("scale must be positive")
        return self.dataset_factory(scale)


# ---------------------------------------------------------------------------
# Dataset factories
# ---------------------------------------------------------------------------


def _protein_factory(scale: float) -> DatasetGenerator:
    return ProteinDatabaseGenerator(ProteinConfig(entries=max(1, int(400 * scale))), seed=11)


def _recursive_factory(scale: float) -> DatasetGenerator:
    depth = max(2, int(4 * scale))
    return RecursiveBookGenerator(
        RecursiveConfig(
            section_depth=depth,
            table_depth=depth,
            section_groups=max(1, int(4 * scale)),
            cells_per_table=2,
            author_probability=0.6,
            position_probability=0.6,
        ),
        seed=12,
    )


def _auction_factory(scale: float) -> DatasetGenerator:
    return AuctionGenerator(
        AuctionConfig(
            items=max(1, int(150 * scale)),
            people=max(1, int(80 * scale)),
            open_auctions=max(1, int(100 * scale)),
        ),
        seed=13,
    )


def _newsfeed_factory(scale: float) -> DatasetGenerator:
    return NewsFeedGenerator(NewsFeedConfig(updates=max(10, int(1500 * scale))), seed=14)


def _treebank_factory(scale: float) -> DatasetGenerator:
    return TreebankGenerator(
        TreebankConfig(sentences=max(5, int(150 * scale)), max_depth=14), seed=15
    )


# ---------------------------------------------------------------------------
# Query suites
# ---------------------------------------------------------------------------

#: The paper's example query on the protein dataset (Feature 5).
PROTEIN_PAPER_QUERY = "//ProteinEntry[reference]/@id"

PROTEIN_QUERIES: List[str] = [
    PROTEIN_PAPER_QUERY,
    "//ProteinEntry/header/accession",
    "//ProteinEntry[organism/source='Homo sapiens']/@id",
    "//reference//year",
    "//ProteinEntry[feature and keyword]/protein",
]

RECURSIVE_QUERIES: List[str] = [
    "//section[author]//table[position]//cell",
    "//section//table//cell",
    "//section//section//cell",
    "//table[position]//cell",
    "/book//section[author]//cell",
]

AUCTION_QUERIES: List[str] = [
    "//item[price>250]/name",
    "//open_auction[bidder]/current",
    "//person[address/country='Germany']/name",
    "//listitem//listitem/text",
    "//item[mailbox/mail]/@id",
]

NEWSFEED_QUERIES: List[str] = [
    "//update[quote/@symbol='ACME']",
    "//update/quote[price>400]/@symbol",
    "//headline[@section='markets']/title",
]

TREEBANK_QUERIES: List[str] = [
    "//S//NP//NN",
    "//NP[PP]//NN/text()",
    "//VP//VP//VB",
    "//S[VP/VB]//NP[not(PP)]/NN",
    "//sentence//PP//NNP",
]


# ---------------------------------------------------------------------------
# Streaming-pipeline workload (tokenizer / backend throughput)
# ---------------------------------------------------------------------------

#: Canonical query of the pipeline-throughput benchmark (BENCH_pipeline.json).
PIPELINE_QUERY = "//a[b]//c"


def build_random_tree_document(
    target_bytes: int = 2 * 1024 * 1024,
    seed: int = 42,
    vocabulary: Tuple[str, ...] = ("a", "b", "c", "d"),
    max_depth: int = 8,
) -> str:
    """Deterministic tag-dense random-tree document of roughly ``target_bytes``.

    This is the pipeline benchmark's standard document: a forest of small
    recursive trees over a four-letter vocabulary under a single ``<root>``
    element, averaging ~8 bytes per element — the same density profile as
    the seed engine's original profiling workload (~650 k events / 2 MB), so
    throughput numbers stay comparable across revisions.
    """
    rng = random.Random(seed)
    choice = rng.choice
    random_ = rng.random
    randint = rng.randint
    parts: List[str] = ["<root>"]
    size = [6]
    values = ("1", "2", "x", "hello")

    def emit(depth: int) -> None:
        tag = choice(vocabulary)
        if depth < max_depth and random_() < 0.7:
            piece = f"<{tag}>"
            parts.append(piece)
            size[0] += len(piece)
            for _ in range(randint(1, 3)):
                emit(depth + 1)
            piece = f"</{tag}>"
            parts.append(piece)
            size[0] += len(piece)
        else:
            piece = f"<{tag}>{choice(values)}</{tag}>"
            parts.append(piece)
            size[0] += len(piece)

    while size[0] < target_bytes:
        emit(1)
    parts.append("</root>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Multi-query subscription workload (M1: subscription scaling)
# ---------------------------------------------------------------------------

#: The query-mix kinds of the multi-query scaling experiment.
MULTIQUERY_MIXES = ("disjoint", "overlapping", "duplicate")


def build_multiquery_document(
    label_count: int = 200,
    records: int = 4000,
    seed: int = 7,
) -> str:
    """Deterministic subscription-stream document for the M1 experiment.

    A flat ``<feed>`` of ``records`` records, each carrying one of
    ``label_count`` *distinct* tag pairs::

        <r seq="17"><s17><v17>x3</v17></s17></r>

    The per-record tag pairs (``s{i}``/``v{i}``) give the disjoint query mix
    genuinely disjoint label sets, while the shared ``r`` wrapper gives the
    overlapping mix a tag every query machine must react to.
    """
    rng = random.Random(seed)
    randrange = rng.randrange
    parts: List[str] = ["<feed>"]
    for _ in range(records):
        i = randrange(label_count)
        parts.append(
            f'<r seq="{i}"><s{i}><v{i}>x{randrange(5)}</v{i}></s{i}></r>'
        )
    parts.append("</feed>")
    return "".join(parts)


def multiquery_mix(kind: str, count: int, label_count: int = 200) -> List[str]:
    """Build ``count`` queries of the requested mix over the M1 document.

    * ``disjoint`` — query *i* touches only its own record tags
      (``//s{i}/v{i}``): the best case for label dispatch, every machine's
      label set is private.
    * ``overlapping`` — every query steps through the shared record
      wrapper (``//r/s{i}``); the queries are linear and predicate-free, so
      each rides its ``//s{i}`` family anchor and ``<r>`` reaches no
      machine.
    * ``duplicate`` — ``count`` registrations of one identical query:
      exercises fingerprint dedup (one shared machine regardless of count).
    """
    if kind == "disjoint":
        return [f"//s{i % label_count}/v{i % label_count}" for i in range(count)]
    if kind == "overlapping":
        return [f"//r/s{i % label_count}" for i in range(count)]
    if kind == "duplicate":
        return ["//r//s0[v0]" for _ in range(count)]
    raise BenchmarkError(
        f"unknown multiquery mix {kind!r}; known mixes: {', '.join(MULTIQUERY_MIXES)}"
    )


# ---------------------------------------------------------------------------
# Million-subscription workload (M4: subscription-index scaling)
# ---------------------------------------------------------------------------


def build_subscription_stream_document(
    hit_records: int = 10,
    miss_records: int = 2000,
    families: int = 200,
    label_space: int = 4000,
    seed: int = 9,
) -> str:
    """Deterministic event stream for the M4 subscription-scaling experiment.

    The same record shape as the M1 document —
    ``<r><s{i}><v{i}>x</v{i}></s{i}></r>`` under one ``<feed>`` — but the
    label indices are split into *hits* (``i < families``: the record's
    labels belong to a registered containment family) and *misses*
    (``families <= i < label_space``: labels no registered query mentions).
    Misses dominate by construction: they isolate the per-event cost of the
    dispatch index itself, where the family anchors (``//v{f}``) ignore the
    record scaffolding entirely.  The few hit records keep a delivery
    signal (the ``solutions`` guard column of the sweep).
    """
    rng = random.Random(seed)
    randrange = rng.randrange
    records: List[Tuple[int, int]] = []
    for _ in range(hit_records):
        records.append((randrange(families), randrange(5)))
    for _ in range(miss_records):
        records.append((families + randrange(max(1, label_space - families)), randrange(5)))
    rng.shuffle(records)
    parts: List[str] = ["<feed>"]
    for i, value in records:
        parts.append(f"<r><s{i}><v{i}>x{value}</v{i}></s{i}></r>")
    parts.append("</feed>")
    return "".join(parts)


def build_ticker_document(
    entries: int = 600,
    alert_every: int = 50,
    seed: int = 17,
) -> str:
    """One stock-ticker document for the M5 infinite-stream soak.

    A ``<ticker>`` root holding ``entries`` quote records of three elements
    each (``<quote s=..><price>..</price><vol>..</vol></quote>``), so the
    element count per document is exactly ``1 + 3 * entries``.  Every
    ``alert_every``-th record is an ``<alert>`` instead of a ``<quote>``:
    the soak's standing queries target alerts, keeping delivery sparse so
    the benchmark measures unbounded parsing/dispatch, not Match-object
    construction for millions of solutions.
    """
    rng = random.Random(seed)
    parts: List[str] = ["<ticker>"]
    for i in range(entries):
        tag = "alert" if alert_every and i % alert_every == alert_every - 1 else "quote"
        price = f"{rng.randrange(1, 500)}.{rng.randrange(100):02d}"
        volume = rng.randrange(100, 100_000)
        parts.append(
            f'<{tag} s="S{rng.randrange(1000):03d}">'
            f"<price>{price}</price><vol>{volume}</vol></{tag}>"
        )
    parts.append("</ticker>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    "protein": Workload(
        name="protein",
        description="Synthetic PIR protein sequence database (paper's 75 MB dataset substitute)",
        dataset_factory=_protein_factory,
        queries=tuple(PROTEIN_QUERIES),
    ),
    "recursive": Workload(
        name="recursive",
        description="Recursive book/section/table documents (Figure 1 shape)",
        dataset_factory=_recursive_factory,
        queries=tuple(RECURSIVE_QUERIES),
    ),
    "auction": Workload(
        name="auction",
        description="XMark-style auction site documents",
        dataset_factory=_auction_factory,
        queries=tuple(AUCTION_QUERIES),
    ),
    "newsfeed": Workload(
        name="newsfeed",
        description="Stock quote / news headline stream",
        dataset_factory=_newsfeed_factory,
        queries=tuple(NEWSFEED_QUERIES),
    ),
    "treebank": Workload(
        name="treebank",
        description="Treebank-style parse trees (deep same-tag recursion)",
        dataset_factory=_treebank_factory,
        queries=tuple(TREEBANK_QUERIES),
    ),
}


def get_workload(name: str) -> Workload:
    """Look up a workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise BenchmarkError(f"unknown workload {name!r}; known workloads: {known}") from None


def iter_workloads(names: Optional[Iterable[str]] = None) -> List[Workload]:
    """Return the selected workloads (all of them when ``names`` is None)."""
    if names is None:
        return list(WORKLOADS.values())
    return [get_workload(name) for name in names]
