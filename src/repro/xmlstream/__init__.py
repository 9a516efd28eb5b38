"""Streaming XML substrate for the ViteX reproduction.

Public surface:

* event model (:mod:`repro.xmlstream.events`),
* the from-scratch incremental tokenizer and the ``xml.sax`` bridge exposed
  through a single :func:`iter_events` entry point,
* a lightweight in-memory DOM used as the correctness oracle,
* serializers.
"""

from .events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    Event,
    EventRecorder,
    EventStatistics,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from .dom import Document, Element, TreeBuilder, build_tree, parse_document
from .eventcodec import (
    EVENTS_PER_FRAME,
    EventCodecError,
    EventFrameDecoder,
    EventFrameEncoder,
)
from .expat_backend import ExpatEventSource
from .reader import DEFAULT_CHUNK_SIZE, StreamReader, read_document
from .sax import PARSER_BACKENDS, event_batches, iter_events
from .serializer import (
    serialize_document,
    serialize_element,
    serialize_events,
)
from .tokenizer import StreamTokenizer, tokenize, tokenize_chunks

__all__ = [
    "Characters",
    "Comment",
    "DEFAULT_CHUNK_SIZE",
    "Document",
    "Element",
    "EVENTS_PER_FRAME",
    "EndDocument",
    "EndElement",
    "Event",
    "EventCodecError",
    "EventFrameDecoder",
    "EventFrameEncoder",
    "EventRecorder",
    "EventStatistics",
    "ExpatEventSource",
    "PARSER_BACKENDS",
    "ProcessingInstruction",
    "StartDocument",
    "StartElement",
    "StreamReader",
    "StreamTokenizer",
    "TreeBuilder",
    "build_tree",
    "event_batches",
    "iter_events",
    "parse_document",
    "read_document",
    "serialize_document",
    "serialize_element",
    "serialize_events",
    "tokenize",
    "tokenize_chunks",
]
