"""Seeded input generators and their generator-side expected answers.

Every generator is self-contained (no import of ``repro``): the program
under test only ever sees the generated text.  Each generator also returns
the answer it *knows by construction* — which elements it wrote and where —
as canonical match keys, so any seed can be verified without running a
second evaluator.  For the default seed those answers were additionally
cross-checked once against ``repro.baselines.dom_eval.evaluate_with_dom``
and pinned under ``perfbench/expected/`` (see ``python3 -m perfbench pin``).

A match key is the string ``name|kind|order|attribute`` where ``order`` is
the element's pre-order index in its document — the identity every vitex
evaluator (and the DOM oracle) reports in ``Solution.node.order``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

DEFAULT_SEED = 2005


def match_key(name: str, kind: str, order: int, attribute: str = "") -> str:
    return f"{name}|{kind}|{order}|{attribute}"


def keys_digest(keys: Sequence[str]) -> str:
    """sha256 over the sorted keys, one per line."""
    return hashlib.sha256("\n".join(sorted(keys)).encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# protein-oneshot: text-heavy, shallow PIR-style database
# ---------------------------------------------------------------------------

PROTEIN_QUERY = "//ProteinEntry[reference]/@id"

_AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
_ORGANISMS = (
    "Homo sapiens", "Mus musculus", "Saccharomyces cerevisiae",
    "Escherichia coli", "Drosophila melanogaster", "Arabidopsis thaliana",
    "Rattus norvegicus", "Caenorhabditis elegans",
)
_JOURNALS = (
    "J. Biol. Chem.", "Proc. Natl. Acad. Sci. U.S.A.", "Nucleic Acids Res.",
    "Protein Sci.", "EMBO J.",
)
_KEYWORDS = (
    "oxidoreductase", "transferase", "hydrolase", "membrane",
    "signal peptide", "phosphoprotein", "zinc finger", "kinase",
)
_FEATURE_TYPES = ("site", "region", "modification")
_SEQUENCE_LENGTH = 320


def protein_document(seed: int, target_bytes: int) -> Tuple[str, List[str]]:
    """A ``ProteinDatabase`` of about ``target_bytes`` and the keys of
    :data:`PROTEIN_QUERY`: the ``id`` attribute of every entry that was
    written with at least one ``reference`` child (80 % of them)."""
    rng = random.Random(seed)
    randrange, choice, choices = rng.randrange, rng.choice, rng.choices
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', "<ProteinDatabase>\n"]
    size = sum(len(part) for part in parts)
    keys: List[str] = []
    order = 1  # pre-order index of the next element; the root took 0
    index = 0
    while size < target_bytes:
        entry_order = order
        uid = f"PIR:{index:08d}"
        entry = [
            f'<ProteinEntry id="{uid}">\n<header><uid>{uid}</uid>'
            f"<accession>A{randrange(10_000_000):07d}</accession>"
            f"<created_date>{randrange(1988, 2002)}-{randrange(1, 13):02d}-"
            f"{randrange(1, 29):02d}</created_date></header>\n"
            f"<protein>protein {index} ({choice(_KEYWORDS)})</protein>\n"
            f"<organism><source>{choice(_ORGANISMS)}</source>"
            f"<common>{choice(_ORGANISMS).split()[0]}</common></organism>\n"
        ]
        order += 9  # entry, header + 3, protein, organism + 2
        references = randrange(1, 4) if rng.random() < 0.8 else 0
        for ref in range(references):
            entry.append(
                f'<reference><refinfo refid="{index}.{ref}">'
                f"<authors>Author {randrange(100)} et al.</authors>"
                f"<citation>{choice(_JOURNALS)}</citation>"
                f"<year>{randrange(1975, 2002)}</year>"
                f"<title>Study {index}-{ref} of {choice(_KEYWORDS)}</title>"
                f"</refinfo><accinfo><mol-type>"
                f"{choice(('complete', 'fragment'))}</mol-type></accinfo>"
                f"</reference>\n"
            )
            order += 8
        if references:
            keys.append(match_key("q", "attribute", entry_order, "id"))
        for keyword in rng.sample(_KEYWORDS, k=randrange(1, 4)):
            entry.append(f"<keyword>{keyword}</keyword>")
            order += 1
        entry.append("\n")
        for feature in range(randrange(0, 5)):
            entry.append(
                f'<feature type="{choice(_FEATURE_TYPES)}">'
                f"<description>feature {feature}</description>"
                f"<position>{randrange(1, _SEQUENCE_LENGTH)}</position>"
                f"</feature>\n"
            )
            order += 3
        sequence = "".join(choices(_AMINO_ACIDS, k=_SEQUENCE_LENGTH))
        entry.append(
            f'<sequence length="{_SEQUENCE_LENGTH}">{sequence}</sequence>\n'
            f"</ProteinEntry>\n"
        )
        order += 1
        text = "".join(entry)
        parts.append(text)
        size += len(text)
        index += 1
    parts.append("</ProteinDatabase>\n")
    return "".join(parts), keys


# ---------------------------------------------------------------------------
# recursive-oneshot: tag-dense random tree
# ---------------------------------------------------------------------------

RECURSIVE_QUERY = "//a[b]//c"


def random_tree_document(
    seed: int,
    target_bytes: int,
    vocabulary: Sequence[str] = ("a", "b", "c", "d"),
    max_depth: int = 8,
) -> Tuple[str, List[str]]:
    """A forest of small random trees under one ``<root>`` (~8 B/element)
    and the keys of :data:`RECURSIVE_QUERY`: every ``c`` with an ancestor
    ``a`` that has a ``b`` child.

    The answer is kept while writing: each open element carries the ``c``
    descendants not yet confirmed; when an ``a`` that got a ``b`` child
    closes they are confirmed, otherwise they move up to its parent.
    """
    rng = random.Random(seed)
    choice, rand, randint = rng.choice, rng.random, rng.randint
    parts: List[str] = ["<root>"]
    size = 6
    values = ("1", "2", "x", "hello")
    confirmed: List[int] = []
    order = 1

    def emit(depth: int) -> Tuple[str, List[int]]:
        """Write one subtree; return its root tag and unconfirmed ``c``s."""
        nonlocal size, order
        tag = choice(vocabulary)
        mine = order
        order += 1
        pending: List[int] = []
        if depth < max_depth and rand() < 0.7:
            piece = f"<{tag}>"
            parts.append(piece)
            size += len(piece)
            has_b = False
            for _ in range(randint(1, 3)):
                child_tag, child_pending = emit(depth + 1)
                has_b = has_b or child_tag == "b"
                pending.extend(child_pending)
            piece = f"</{tag}>"
            parts.append(piece)
            size += len(piece)
            if tag == "a" and has_b:
                confirmed.extend(pending)
                pending = []
        else:
            piece = f"<{tag}>{choice(values)}</{tag}>"
            parts.append(piece)
            size += len(piece)
        if tag == "c":
            pending.append(mine)
        return tag, pending

    while size < target_bytes:
        emit(1)
    parts.append("</root>")
    keys = [match_key("q", "element", c) for c in confirmed]
    return "".join(parts), keys


# ---------------------------------------------------------------------------
# subs-100k: refinement families over a miss-heavy record feed
# ---------------------------------------------------------------------------

#: The five refinement shapes of one containment family, most general first;
#: all select ``v{f}`` and all match a ``<feed><r><s{f}><v{f}>`` record.
FAMILY_VARIANTS = (
    "//s{f}/v{f}",
    "//r//v{f}",
    "//r/s{f}/v{f}",
    "//feed//s{f}/v{f}",
    "/feed/r/s{f}/v{f}",
)


def refinement_family_queries(count: int, families: int) -> List[str]:
    """Query *i* is family ``i % families`` in shape ``(i // families) % 5``:
    ``families × 5`` distinct fingerprints however large ``count`` is."""
    shapes = len(FAMILY_VARIANTS)
    return [
        FAMILY_VARIANTS[(i // families) % shapes].format(f=i % families)
        for i in range(count)
    ]


def subscription_feed(
    seed: int,
    hit_records: int,
    miss_records: int,
    families: int,
    subscriptions: int,
    records_per_chunk: int,
    label_space: int = 4000,
) -> Tuple[List[str], List[str]]:
    """``<feed>`` of ``<r><s{i}><v{i}>x</v{i}></s{i}></r>`` records, mostly
    labels nobody subscribed to, cut into chunks of ``records_per_chunk``
    whole records; and the expected keys: every subscription ``q{n}`` of a
    hit record's family matches that record's ``v`` element.

    Hits come at a fixed stride (their family is random) and chunks hold a
    fixed number of records: with a few dozen hits carrying all the
    matches, random placement or byte-sized chunks would make the latency
    percentiles a property of the seed rather than of the program.
    """
    rng = random.Random(seed)
    randrange = rng.randrange
    records = hit_records + miss_records
    stride = records // hit_records
    chunks: List[str] = []
    parts = ["<feed>"]
    keys: List[str] = []
    for position in range(records):
        if position % stride == stride // 2 and position // stride < hit_records:
            label = randrange(families)
            v_order = 3 * position + 3  # feed=0, then r, s, v per record
            for n in range(label, subscriptions, families):
                keys.append(match_key(f"q{n}", "element", v_order))
        else:
            label = families + randrange(label_space - families)
        parts.append(f"<r><s{label}><v{label}>x{randrange(5)}</v{label}></s{label}></r>")
        if len(parts) > records_per_chunk:
            chunks.append("".join(parts))
            parts = []
    parts.append("</feed>")
    chunks.append("".join(parts))
    return chunks, keys


# ---------------------------------------------------------------------------
# stream-churn: ticker documents with standing, churning subscriptions
# ---------------------------------------------------------------------------

Record = Tuple[str, str, float, int]  # tag, symbol, price, volume

#: Every ticker query with the rule that says which elements of one record
#: it selects, as ``(kind, offset from the record element, attribute)``.
#: Record *i* is element ``1 + 3i``; its ``price`` and ``vol`` follow it.
TickerRule = Callable[[Record], Sequence[Tuple[str, int, str]]]


def _when(condition: Callable[[Record], bool], *selected: Tuple[str, int, str]) -> TickerRule:
    return lambda record: selected if condition(record) else ()


def _alert(record: Record) -> bool:
    return record[0] == "alert"


def _quote(record: Record) -> bool:
    return record[0] == "quote"


TICKER_QUERIES: List[Tuple[str, TickerRule]] = [
    ("//alert[price]", _when(_alert, ("element", 0, ""))),
    ("/ticker/alert//vol", _when(_alert, ("element", 2, ""))),
    ("//alert/price", _when(_alert, ("element", 1, ""))),
    ("//alert/@s", _when(_alert, ("attribute", 0, "s"))),
    ("/ticker/alert", _when(_alert, ("element", 0, ""))),
    ("//alert[vol]/price", _when(_alert, ("element", 1, ""))),
    ("//ticker//alert/vol", _when(_alert, ("element", 2, ""))),
    ("//alert[price>250]", _when(lambda r: _alert(r) and r[2] > 250, ("element", 0, ""))),
    ("//alert[price>250]/vol", _when(lambda r: _alert(r) and r[2] > 250, ("element", 2, ""))),
    ("//alert[vol>50000]/@s", _when(lambda r: _alert(r) and r[3] > 50000, ("attribute", 0, "s"))),
    ("//quote[price>490]", _when(lambda r: _quote(r) and r[2] > 490, ("element", 0, ""))),
    ("//quote[price>490]/@s", _when(lambda r: _quote(r) and r[2] > 490, ("attribute", 0, "s"))),
    ("//quote[vol>99000]/price", _when(lambda r: _quote(r) and r[3] > 99000, ("element", 1, ""))),
    ("/ticker/quote[price>495]/vol", _when(lambda r: _quote(r) and r[2] > 495, ("element", 2, ""))),
    ("//quote[@s='S007']", _when(lambda r: _quote(r) and r[1] == "S007", ("element", 0, ""))),
    ("//quote[@s='S042']/price", _when(lambda r: _quote(r) and r[1] == "S042", ("element", 1, ""))),
    ("//ticker/quote[vol>99500]", _when(lambda r: _quote(r) and r[3] > 99500, ("element", 0, ""))),
    ("//quote[price>498]/price", _when(lambda r: _quote(r) and r[2] > 498, ("element", 1, ""))),
    ("//alert[price>400]/@s", _when(lambda r: _alert(r) and r[2] > 400, ("attribute", 0, "s"))),
    ("//alert[vol>90000]", _when(lambda r: _alert(r) and r[3] > 90000, ("element", 0, ""))),
    # The churn pool: queries that replace an unsubscribed one mid-stream.
    ("//alert[price>100]/price", _when(lambda r: _alert(r) and r[2] > 100, ("element", 1, ""))),
    ("//alert[vol>10000]/vol", _when(lambda r: _alert(r) and r[3] > 10000, ("element", 2, ""))),
    ("/ticker/alert[price>300]", _when(lambda r: _alert(r) and r[2] > 300, ("element", 0, ""))),
    ("//quote[price>485]/vol", _when(lambda r: _quote(r) and r[2] > 485, ("element", 2, ""))),
]

#: How many of :data:`TICKER_QUERIES` stand at any moment.
TICKER_STANDING = 20


def ticker_document(seed: int, entries: int, alert_every: int = 50) -> Tuple[str, List[Record]]:
    """One ``<ticker>`` of ``entries`` three-element records (``1 + 3 ×
    entries`` elements); every ``alert_every``-th is an ``<alert>``."""
    rng = random.Random(seed)
    parts = ["<ticker>"]
    records: List[Record] = []
    for i in range(entries):
        tag = "alert" if i % alert_every == alert_every - 1 else "quote"
        price = rng.randrange(100, 50_000) / 100
        volume = rng.randrange(100, 100_000)
        symbol = f"S{rng.randrange(1000):03d}"
        parts.append(
            f'<{tag} s="{symbol}"><price>{price:.2f}</price>'
            f"<vol>{volume}</vol></{tag}>"
        )
        records.append((tag, symbol, float(f"{price:.2f}"), volume))
    parts.append("</ticker>")
    return "".join(parts), records


def ticker_corpus(seed: int) -> List[Tuple[str, List[Record]]]:
    """The 20 distinct documents (14 KB, 721 elements each) stream-churn cycles through."""
    return [ticker_document(seed * 1000 + i, 240, alert_every=20) for i in range(20)]


def ticker_matches(records: Sequence[Record], rule: TickerRule) -> List[Tuple[str, int, str]]:
    """``(kind, order, attribute)`` of what ``rule`` selects, in document order."""
    selected = []
    for i, record in enumerate(records):
        for kind, offset, attribute in rule(record):
            selected.append((kind, 1 + 3 * i + offset, attribute))
    return selected


def churn_schedule(
    documents: int, churn_every: int, snapshot_every: int
) -> Iterator[Tuple[str, int, int, int]]:
    """The stream-churn script, shared by the runner and the expectation:
    ``("doc", d, 0, 0)`` feeds document *d*; after every ``churn_every``-th
    document ``("churn", step, out, new)`` unsubscribes query ``out`` (the
    longest-standing one) and replay-subscribes query ``new`` (the one
    longest out of service); after every ``snapshot_every``-th document
    ``("snapshot", d, 0, 0)`` checkpoints the session."""
    standing = list(range(TICKER_STANDING))
    pool = list(range(TICKER_STANDING, len(TICKER_QUERIES)))
    step = 0
    for d in range(documents):
        yield ("doc", d, 0, 0)
        if d % churn_every == churn_every - 1:
            out, new = standing.pop(0), pool.pop(0)
            standing.append(new)
            pool.append(out)
            yield ("churn", step, out, new)
            step += 1
        if d % snapshot_every == snapshot_every - 1:
            yield ("snapshot", d, 0, 0)


def churn_expected(
    corpus: Sequence[Sequence[Record]],
    documents: int,
    churn_every: int,
    snapshot_every: int,
    retain_documents: int,
) -> List[str]:
    """Keys the stream-churn run must deliver: ``t{q}@{d}`` for a live match
    in document *d*, ``t{q}@replay{step}#{n}`` for the *n*-th match replayed
    to the subscription made at churn step ``step`` (the retained window is
    the last ``retain_documents`` completed documents, oldest first)."""
    per_doc = [
        [ticker_matches(records, rule) for _, rule in TICKER_QUERIES]
        for records in corpus
    ]
    standing = set(range(TICKER_STANDING))
    keys: List[str] = []
    done = 0
    for action, a, out, new in churn_schedule(documents, churn_every, snapshot_every):
        if action == "doc":
            matches = per_doc[a % len(corpus)]
            for q in standing:
                for kind, order, attribute in matches[q]:
                    keys.append(match_key(f"t{q}@{a}", kind, order, attribute))
            done = a + 1
        elif action == "churn":
            standing.discard(out)
            standing.add(new)
            n = 0
            for d in range(max(0, done - retain_documents), done):
                for kind, order, attribute in per_doc[d % len(corpus)][new]:
                    keys.append(match_key(f"t{new}@replay{a}#{n}", kind, order, attribute))
                    n += 1
    return keys


# ---------------------------------------------------------------------------
# service-fanout / sharded-events: one match per record, disjoint labels
# ---------------------------------------------------------------------------


def fanout_queries(label_count: int) -> List[Tuple[str, str]]:
    """``(query, name)`` of the disjoint standing queries ``//s{i}/v{i}``."""
    return [(f"//s{i}/v{i}", f"s{i}") for i in range(label_count)]


def record_feed_chunks(
    seed: int,
    records: int,
    label_count: int,
    chunk_bytes: int,
    first_order: int = 1,
) -> Tuple[List[str], List[List[str]]]:
    """The *body* of a ``<feed>`` document — ``records`` records of one of
    ``label_count`` disjoint label pairs — cut into chunks of whole records
    of about ``chunk_bytes``, and per chunk the keys it completes (one per
    record: subscription ``s{i}`` matches the record's ``v{i}``).

    ``first_order`` is the pre-order index of the first record's ``<r>``;
    the caller sends ``<feed>`` before and ``</feed>`` after.
    """
    rng = random.Random(seed)
    randrange = rng.randrange
    chunks: List[str] = []
    chunk_keys: List[List[str]] = []
    parts: List[str] = []
    keys: List[str] = []
    size = 0
    order = first_order
    for _ in range(records):
        i = randrange(label_count)
        record = f'<r seq="{i}"><s{i}><v{i}>x{randrange(5)}</v{i}></s{i}></r>'
        parts.append(record)
        keys.append(match_key(f"s{i}", "element", order + 2))
        order += 3
        size += len(record)
        if size >= chunk_bytes:
            chunks.append("".join(parts))
            chunk_keys.append(keys)
            parts, keys, size = [], [], 0
    if parts:
        chunks.append("".join(parts))
        chunk_keys.append(keys)
    return chunks, chunk_keys


def expected_summary(keys: Sequence[str]) -> Dict[str, object]:
    return {"count": len(keys), "digest": keys_digest(keys)}
