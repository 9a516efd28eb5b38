"""Fused streaming fast paths: scan + TwigM transitions with no event objects.

The general pipeline materialises one event object per markup construct and
dispatches it through :meth:`TwigMEvaluator.feed`.  That is the right shape
for the push API, for fragment capture and for incremental solution
streaming — but for the dominant ``evaluate(document)`` call it spends a
large fraction of the per-element budget on allocating, dispatching and
unpacking event tuples.

Every driver here runs start and end tags through the scalar transition
functions of :mod:`repro.core.transitions` (the paper's §3.2); none keeps a
private copy of them (``tools/check_single_kernel.py`` enforces that).
There is one per input format, and both hand each tag to the runtimes an
index dispatches it to: :class:`MultiQueryEvaluator` passes its
:class:`~repro.core.queryindex.QueryIndex`, :class:`TwigMEvaluator` passes
itself as a one-entry index.

* :func:`fused_pure_multi_evaluate` — the one pure scan, behind both
  engines' ``evaluate()`` on in-memory ``str`` documents, where chunking
  buys no memory advantage.  It walks the document once.  Tags are
  recognised under the tag-memo policy of :mod:`repro.xmlstream.tokenizer`
  (which states the soundness argument and the cap): a start tag seen
  before costs one probe of a per-call table whose entries also carry the
  dispatch result, an end tag is compared literally with the open
  element's, everything else goes through the tokenizer's regexes, and no
  well-formedness check is skipped.  Line numbers are computed only when a
  start tag is dispatched.  Returns ``None`` whenever the document needs
  the general pipeline — unsupported constructs or any syntax error — and
  the caller replays through the event pipeline, which reproduces the exact
  error message of the incremental tokenizer.
* :class:`FusedExpatDriver` — the expat callbacks, one-shot or push
  (session) mode.  Works for any (possibly streaming) source and keeps
  expat's constant-memory behaviour.

Statistics follow the per-subscription semantics documented in
:mod:`repro.core.multi`.  Both drivers also report the stream-level counts
(:data:`StreamShape`), from which the single-query engine records the event
pipeline's counters exactly.
"""

from __future__ import annotations

from typing import List, MutableSequence, Optional, Tuple
from xml.parsers import expat

from ..errors import XMLSyntaxError
from ..xmlstream.tokenizer import (
    END_TAG_RE,
    START_TAG_RE,
    TAG_MEMO_KEY_CAP,
    StreamTokenizer,
    decode_entities,
    memoise_start_tag,
    parse_attribute_string,
)
from .transitions import process_end_element, process_start_element

#: What a driver saw of the stream: ``(elements, attributes, max_depth,
#: text_runs, misc_events)`` — text runs coalesced the way the event
#: pipeline emits ``Characters``, misc events = comments + processing
#: instructions.
StreamShape = Tuple[int, int, int, int, int]


def _scan_misc(doc: str, lt: int) -> Optional[Tuple[int, bool, Optional[str]]]:
    """Recognise the uncommon construct at ``doc[lt] == '<'``.

    Returns ``(end, is_event, cdata)``: the index just past a comment or
    processing instruction (``is_event`` — the event pipeline flushes pending
    text and emits one event for it), a CDATA section (``cdata`` is its raw
    content), or an XML declaration / DOCTYPE (neither).  ``None`` means
    unterminated or unsupported: replay through the event pipeline.
    """
    if doc.startswith("<!--", lt):
        end = doc.find("-->", lt + 4)
        return None if end == -1 else (end + 3, True, None)
    if doc.startswith("<![CDATA[", lt):
        end = doc.find("]]>", lt + 9)
        return None if end == -1 else (end + 3, False, doc[lt + 9:end])
    if doc.startswith("<?", lt):
        end = doc.find("?>", lt + 2)
        if end == -1:
            return None
        target = doc[lt + 2:end].partition(" ")[0].strip()
        return end + 2, target.lower() != "xml", None
    if doc.startswith("<!DOCTYPE", lt):
        end = StreamTokenizer.find_doctype_end(doc, lt)
        return None if end is None else (end, False, None)
    return None


def _append_text(text_nodes, text: str, level: int) -> None:
    """Hand one run of character data to the entries that collect text."""
    for machine_node in text_nodes:
        for entry in machine_node.stack.entries:
            if entry.string_parts is not None:
                entry.string_parts.append(text)
            if entry.direct_parts is not None and level == entry.level:
                entry.direct_parts.append(text)


# ---------------------------------------------------------------------------
# The pure scan: one bulk scan, label-dispatched runtimes
# ---------------------------------------------------------------------------


def fused_pure_multi_evaluate(
    index, document: str, deliveries: MutableSequence
) -> Optional[StreamShape]:
    """Evaluate every indexed runtime over one bulk scan of ``document``.

    ``index`` is a :class:`~repro.core.queryindex.QueryIndex`, or anything
    offering the members the scan reads (``dispatch``, ``text_runtimes``,
    ``context`` — the ancestor chain, or ``None``; runtimes with
    ``machine``, ``statistics``, ``collector``, ``eager``, ``is_family``).
    ``deliveries`` receives ``(runtime,
    solutions)`` pairs in emission order.  Deliveries are *buffered* rather
    than fanned out immediately: when the scan bails out (returns ``None``)
    the caller resets the machines and replays through the event pipeline,
    and buffering guarantees no subscriber callback fires twice.  A caller
    with no subscribers to fan out to passes a sink that keeps nothing.

    Returns the :data:`StreamShape` on success, or ``None`` when the
    document needs the general pipeline.
    """
    try:
        return _fused_pure_multi_scan(index, document, deliveries)
    except XMLSyntaxError:
        # Entity/attribute errors raised mid-scan: let the event pipeline
        # re-derive the canonical error message and line number.
        return None


def _fused_pure_multi_scan(
    index, doc: str, deliveries: MutableSequence
) -> Optional[StreamShape]:
    n = len(doc)
    find = doc.find
    count = doc.count
    startswith = doc.startswith
    start_match = START_TAG_RE.match
    end_match = END_TAG_RE.match
    dispatch = index.dispatch
    text_runtimes = index.text_runtimes()
    need_text = bool(text_runtimes)
    has_entities = "&" in doc
    # Per-call tag memo: raw start tag -> (name, attributes, empty,
    # interested runtimes, literal end tag).  Subscriptions cannot change
    # mid-scan (deliveries are buffered), so the runtime lists stay valid.
    memo: dict = {}
    memo_get = memo.get

    # The scan's open-element stack *is* the index's live ancestor chain
    # (when the index keeps one): family runtimes resolve residual paths
    # against it at emission time, so it must reflect the chain of the
    # element being closed — hence the pops below happen after the
    # end-element dispatch, not before.  ``open_tags`` shadows it with one
    # memo entry per open element (built on a miss even when it cannot be
    # stored), so an end tag needs no lookup.
    open_elements = index.context
    if open_elements is None:
        open_elements = []
    del open_elements[:]
    open_tags: List[tuple] = []
    order = 0
    index_pos = 0
    # Line numbers are lazy: ``line`` is exact for ``doc[:line_pos]`` and is
    # only brought forward when a start tag is dispatched.
    line = 1
    line_pos = 0
    root_closed = False
    # What the stream looks like is counted in locals.  ``text_runs``
    # emulates the event pipeline's text coalescing: one Characters event
    # per run of text flushed by a structural event, comment or processing
    # instruction.
    pending_text = False
    text_runs = 0
    misc_events = 0
    attribute_count = 0
    max_depth = 0

    def end_element(name: str, level: int, runtimes) -> None:
        for runtime in runtimes:
            solutions = process_end_element(
                runtime.machine, name, level, runtime.statistics,
                runtime.collector, eager_emission=runtime.eager,
            )
            if solutions:
                if runtime.is_family:
                    runtime.resolve(solutions)
                deliveries.append((runtime, solutions))

    while index_pos < n:
        lt = find("<", index_pos)
        if lt == -1:
            if doc[index_pos:].strip():
                return None  # trailing content / unclosed element -> replay
            break
        if lt > index_pos:
            if open_elements:
                if need_text:
                    text = doc[index_pos:lt]
                    if "&" in text:
                        text = decode_entities(text)
                    level = len(open_elements)
                    for runtime in text_runtimes:
                        _append_text(runtime.machine.text_nodes, text, level)
                # Text content is irrelevant to every runtime; validate
                # entity references without materialising the slice unless
                # one is present.
                elif has_entities and find("&", index_pos, lt) != -1:
                    decode_entities(doc[index_pos:lt])
                pending_text = True
            elif doc[index_pos:lt].strip():
                return None  # character data outside the root element
        second = doc[lt + 1] if lt + 1 < n else ""
        if second == "/":
            if not open_tags:
                return None  # stray end tag -> replay for exact error
            name, _, _, runtimes, closer = open_tags[-1]
            if startswith(closer, lt):
                end = lt + len(closer)
            else:
                # ``</b >`` spellings; a mismatch replays for the exact error.
                match = end_match(doc, lt)
                if match is None or match.group(1) != name:
                    return None
                end = match.end()
            if pending_text:
                pending_text = False
                text_runs += 1
            if runtimes:
                end_element(name, len(open_tags), runtimes)
            open_tags.pop()
            open_elements.pop()
            if not open_tags:
                root_closed = True
            index_pos = end
            continue
        elif second not in ("!", "?", ""):
            gt = find(">", lt, lt + TAG_MEMO_KEY_CAP)
            hit = memo_get(doc[lt:gt + 1])
            if hit is not None:
                end = gt + 1
            else:
                match = start_match(doc, lt)
                if match is None:
                    return None
                name, raw_attributes, empty = match.group(1, 2, 3)
                end = match.end()
                # Duplicate attributes / bad entity references raise
                # XMLSyntaxError, which the wrapper converts into an
                # event-pipeline replay — on every occurrence, because such
                # a tag is never memoised.
                hit = (
                    name,
                    parse_attribute_string(raw_attributes, name, None)
                    if raw_attributes else (),
                    empty,
                    dispatch(name),
                    f"</{name}>",
                )
                memoise_start_tag(memo, doc, lt, gt, end, hit)
            if root_closed:
                return None  # second root element -> replay for exact error
            if pending_text:
                pending_text = False
                text_runs += 1
            name, attributes, empty, runtimes, _ = hit
            open_tags.append(hit)
            open_elements.append(name)
            level = len(open_tags)
            if attributes:
                attribute_count += len(attributes)
            if level > max_depth:
                max_depth = level
            if runtimes:
                # The line the tag begins on, as expat reports it.
                line += count("\n", line_pos, lt)
                line_pos = lt
                for runtime in runtimes:
                    process_start_element(
                        runtime.machine, name, level, attributes, line,
                        order, runtime.statistics,
                    )
            order += 1
            if empty:
                end_element(name, level, runtimes)
                open_tags.pop()
                open_elements.pop()
                if level == 1:
                    root_closed = True
            index_pos = end
            continue
        # -------- uncommon constructs: comments, CDATA, PI, DOCTYPE --------
        misc = _scan_misc(doc, lt)
        if misc is None:
            return None  # anything else: replay through the event pipeline
        index_pos, is_event, cdata = misc
        if is_event:
            if pending_text:
                pending_text = False
                text_runs += 1
            misc_events += 1
        elif cdata:
            if not open_elements:
                if cdata.strip():
                    return None  # CDATA outside the root element
            else:
                level = len(open_elements)
                for runtime in text_runtimes:
                    _append_text(runtime.machine.text_nodes, cdata, level)
                pending_text = True

    if open_elements or not order:
        return None  # unclosed element / no root -> replay for exact error
    # Every text run reached the text-collecting runtimes, and only them
    # (the indexed feed path dispatches text events to those alone).
    for runtime in text_runtimes:
        statistics = runtime.statistics
        if statistics is not None:
            statistics.text_chunks += text_runs
    return order, attribute_count, max_depth, text_runs, misc_events


# ---------------------------------------------------------------------------
# The expat driver: one set of callbacks, label-dispatched runtimes
# ---------------------------------------------------------------------------


class FusedExpatDriver:
    """Drive the indexed runtimes straight from expat callbacks.

    The expat analogue of :func:`fused_pure_multi_evaluate`, over the same
    kind of index: each callback consults the label-dispatch index and calls
    the scalar transition functions only for interested machines, with no
    event objects in between.  Unlike the pure scan, solutions are delivered
    (fanned out to subscribers) immediately as they are found — expat
    either completes or raises, there is no replay, so immediate delivery
    matches the incremental semantics of the event pipeline.  The driver
    also counts the stream's :data:`StreamShape` (:attr:`shape`), from which
    the single-query engine records the event pipeline's counters.

    Two driving modes share the callbacks:

    * :meth:`run` — the one-shot pull loop used by ``evaluate()``; the
      driver owns the chunk iterable.
    * ``incremental=True`` + :meth:`feed` / :meth:`finish` — the push
      (session) mode: the *caller* owns the read loop and hands chunks to
      ``Parse(chunk, 0)`` as they arrive.  Delivered pairs are buffered on
      :attr:`emitted` (fan-out still happens immediately; the buffer is how
      the session returns pairs per chunk).  Subscriptions may be added
      between chunks, so the cached text-runtime list is refreshed at each
      chunk boundary.
    """

    def __init__(self, index, incremental: bool = False) -> None:
        parser = expat.ParserCreate()
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.StartElementHandler = self._start_element
        parser.EndElementHandler = self._end_element
        parser.CharacterDataHandler = self._characters
        parser.CommentHandler = self._misc
        parser.ProcessingInstructionHandler = self._misc
        self._parser = parser
        self._index = index
        self._dispatch = index.dispatch
        self._text_runtimes = index.text_runtimes()
        #: The index's live ancestor chain (family residual checks read it
        #: at emission time), or ``None`` when the index keeps none.  On a
        #: mid-stream restore the chain comes back with the engine state,
        #: matching the primed parser position.
        self._context = index.context
        self._level = 0
        self._order = 0
        self._pending_text = False
        self._fed_bytes = False
        self._attributes = 0
        self._max_depth = 0
        self._text_runs = 0
        self._misc_events = 0
        #: Pairs delivered since the caller last drained (incremental mode).
        self.emitted: Optional[List] = [] if incremental else None

    @property
    def element_count(self) -> int:
        """Number of start tags processed so far."""
        return self._order

    @property
    def shape(self) -> StreamShape:
        """What the driver saw of the stream, as the pure scan reports it."""
        return (
            self._order, self._attributes, self._max_depth,
            self._text_runs, self._misc_events,
        )

    def run(self, chunks) -> None:
        """Consume the whole document from an iterable of str/bytes chunks."""
        for chunk in chunks:
            self.feed(chunk)
        self.finish()

    def feed(self, chunk) -> None:
        """Push one str/bytes chunk through ``Parse(chunk, 0)``."""
        self._text_runtimes = self._index.text_runtimes()
        if isinstance(chunk, bytes):
            self._fed_bytes = True
        self._parse(chunk, False)

    def finish(self) -> None:
        """Signal end of input (``Parse(_, 1)``) and flush pending text."""
        self._text_runtimes = self._index.text_runtimes()
        self._parse(b"" if self._fed_bytes else "", True)
        self._flush_pending()

    def _parse(self, data, final: bool) -> None:
        try:
            self._parser.Parse(data, final)
        except expat.ExpatError as exc:
            raise XMLSyntaxError(
                str(exc),
                line=getattr(exc, "lineno", None),
                column=getattr(exc, "offset", None),
            ) from exc

    # ------------------------------------------------------------ checkpoint

    def snapshot_state(self) -> dict:
        """JSON-able driver scalars for the checkpoint format.

        expat's parser itself cannot be serialized; the session snapshots
        the raw chunk prefix instead and :meth:`prime` re-drives a fresh
        parser over it, after which these scalars are restored verbatim.
        """
        return {
            "level": self._level,
            "order": self._order,
            "pending_text": self._pending_text,
            "fed_bytes": self._fed_bytes,
        }

    def prime(self, segments, state: dict) -> None:
        """Re-drive this *fresh* parser over the captured chunk prefix.

        ``segments`` is the exact sequence of str/bytes chunks the original
        parser consumed before the snapshot.  Replaying the identical input
        reproduces all of expat's internal state — detected encoding,
        open-element stack, buffered partial construct, line numbers — with
        the machine-facing handlers swapped out for no-ops so no transition
        runs twice (the machines are restored from the snapshot instead).
        The handlers stay *registered* during the replay so expat's
        text-buffering behaviour matches the original run exactly.
        """
        if self._order or self._level or self._fed_bytes:
            raise XMLSyntaxError("prime() requires a freshly created driver")
        parser = self._parser
        noop = _prime_noop
        saved = (
            parser.StartElementHandler,
            parser.EndElementHandler,
            parser.CharacterDataHandler,
            parser.CommentHandler,
            parser.ProcessingInstructionHandler,
        )
        parser.StartElementHandler = noop
        parser.EndElementHandler = noop
        parser.CharacterDataHandler = noop
        parser.CommentHandler = noop
        parser.ProcessingInstructionHandler = noop
        try:
            for segment in segments:
                parser.Parse(segment, False)
        except expat.ExpatError as exc:  # pragma: no cover - snapshot corruption
            raise XMLSyntaxError(
                f"cannot replay checkpoint prefix: {exc}",
                line=getattr(exc, "lineno", None),
            ) from exc
        finally:
            (
                parser.StartElementHandler,
                parser.EndElementHandler,
                parser.CharacterDataHandler,
                parser.CommentHandler,
                parser.ProcessingInstructionHandler,
            ) = saved
        self._level = state["level"]
        self._order = state["order"]
        self._pending_text = state["pending_text"]
        self._fed_bytes = state["fed_bytes"]
        if self.emitted:
            self.emitted.clear()

    # ------------------------------------------------------ expat callbacks

    def _flush_pending(self) -> None:
        if self._pending_text:
            self._pending_text = False
            self._text_runs += 1
            for runtime in self._text_runtimes:
                statistics = runtime.statistics
                if statistics is not None:
                    statistics.text_chunks += 1

    def _start_element(self, name: str, attributes: List[str]) -> None:
        if self._pending_text:
            self._flush_pending()
        level = self._level + 1
        self._level = level
        if level > self._max_depth:
            self._max_depth = level
        context = self._context
        if context is not None:
            del context[level - 1 :]
            context.append(name)
        order = self._order
        self._order = order + 1
        if attributes:
            self._attributes += len(attributes) >> 1
        runtimes = self._dispatch(name)
        if runtimes:
            pairs = tuple(zip(attributes[0::2], attributes[1::2])) if attributes else ()
            line = self._parser.CurrentLineNumber
            for runtime in runtimes:
                process_start_element(
                    runtime.machine, name, level, pairs, line, order,
                    runtime.statistics,
                )

    def _end_element(self, name: str) -> None:
        if self._pending_text:
            self._flush_pending()
        level = self._level
        self._level = level - 1
        emitted = self.emitted
        for runtime in self._dispatch(name):
            solutions = process_end_element(
                runtime.machine, name, level, runtime.statistics,
                runtime.collector, eager_emission=runtime.eager,
            )
            if solutions:
                runtime.deliver(solutions, emitted)
        # Truncate *after* dispatch: family runtimes resolve residual paths
        # against the chain of the element being closed.
        context = self._context
        if context is not None:
            del context[level - 1 :]

    def _characters(self, data: str) -> None:
        level = self._level
        if level <= 0:
            return
        self._pending_text = True
        for runtime in self._text_runtimes:
            _append_text(runtime.machine.text_nodes, data, level)

    def _misc(self, *args) -> None:
        if self._pending_text:
            self._flush_pending()
        self._misc_events += 1


def _prime_noop(*args) -> None:
    """Handler stand-in during checkpoint replay (see ``prime``)."""


__all__ = [
    "FusedExpatDriver",
    "fused_pure_multi_evaluate",
]
