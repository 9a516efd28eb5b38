"""Unified event producers: the from-scratch tokenizer and the expat backend.

The ViteX architecture (paper Figure 2) has an "XML SAX parser" module that
feeds SAX events to the TwigM machine.  This module provides that component
with pluggable, interchangeable back-ends:

* ``parser="pure"`` (alias ``"native"``, the default) — the from-scratch
  bulk-scanning tokenizer from :mod:`repro.xmlstream.tokenizer`; pure Python,
  fully streaming.
* ``parser="expat"`` — the C-accelerated ``xml.parsers.expat`` parser driven
  directly by :mod:`repro.xmlstream.expat_backend`; the paper's 4.43 s /
  6.02 s breakdown timed a C SAX parser like it.

Both produce identical event sequences (verified by differential and
property-based conformance tests), so the engine is back-end agnostic.

Two entry points are offered: :func:`iter_events` yields one event at a time
(convenient for consumers), while :func:`event_batches` yields one *list* of
events per fed chunk — the engine's bulk evaluation path uses the latter so
no per-event generator frames sit between the tokenizer and the transition
functions.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from .expat_backend import ExpatEventSource
from .reader import DEFAULT_CHUNK_SIZE, StreamReader, TextSource
from .tokenizer import StreamTokenizer

#: Names of the supported parser back-ends (``native`` is the historical
#: alias of ``pure``; both select the from-scratch tokenizer).
PARSER_BACKENDS = ("native", "pure", "expat")


def iter_events(
    source: TextSource,
    parser: str = "native",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    encoding: Optional[str] = None,
    coalesce_text: bool = True,
) -> Iterator[Event]:
    """Yield streaming events for ``source`` using the chosen parser back-end.

    ``source`` may be a document string, bytes, a path, an open file object or
    an iterable of text chunks; see :class:`repro.xmlstream.reader.StreamReader`.
    """
    for batch in event_batches(
        source,
        parser=parser,
        chunk_size=chunk_size,
        encoding=encoding,
        coalesce_text=coalesce_text,
    ):
        yield from batch


def event_batches(
    source: TextSource,
    parser: str = "native",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    encoding: Optional[str] = None,
    coalesce_text: bool = True,
) -> Iterator[List[Event]]:
    """Yield the events of ``source`` as one list per fed chunk.

    This is the bulk form of :func:`iter_events`: consumers that process
    events in a tight loop (the TwigM engine, the benchmark meters) iterate
    the batches directly and avoid one generator resumption per event.
    """
    if parser not in PARSER_BACKENDS:
        raise ValueError(
            f"unknown parser backend {parser!r}; expected one of {PARSER_BACKENDS}"
        )
    reader = StreamReader(source, chunk_size=chunk_size, encoding=encoding)
    if parser == "expat":
        return _expat_batches(reader, coalesce_text=coalesce_text)
    return _pure_batches(reader, coalesce_text=coalesce_text)


def _pure_batches(reader: StreamReader, coalesce_text: bool) -> Iterator[List[Event]]:
    tokenizer = StreamTokenizer(coalesce_text=coalesce_text)
    for chunk in reader.chunks():
        batch = tokenizer.feed(chunk)
        if batch:
            yield batch
    yield tokenizer.close()


def _expat_batches(reader: StreamReader, coalesce_text: bool) -> Iterator[List[Event]]:
    # When no encoding override is given, hand expat the raw bytes of binary
    # sources: it detects the encoding itself (BOM / XML declaration), which
    # skips the Python-side incremental decode entirely.  With an explicit
    # override the reader decodes, so expat always receives str chunks and
    # needs no encoding hint of its own.
    producer = ExpatEventSource(coalesce_text=coalesce_text)
    chunks = reader.raw_chunks() if reader.encoding is None else reader.chunks()
    for chunk in chunks:
        batch = producer.feed(chunk)
        if batch:
            yield batch
    yield producer.close()


__all__ = [
    "PARSER_BACKENDS",
    "ExpatEventSource",
    "event_batches",
    "iter_events",
    "Characters",
    "Comment",
    "EndDocument",
    "EndElement",
    "Event",
    "ProcessingInstruction",
    "StartDocument",
    "StartElement",
]
