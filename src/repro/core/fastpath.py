"""Fused streaming sources: scan or expat callbacks straight into the kernel.

The event pipeline materialises one event object per markup construct.
That is the right shape for the push API, fragment capture and event
frames, but for ``evaluate(document)`` it spends much of the per-element
budget on allocating and unpacking event tuples.  The two fused sources
here hand tags straight to a :class:`~repro.core.kernel.Kernel`, the one
code that runs the transitions of :mod:`repro.core.transitions`; they keep
only tokenising, well-formedness checks, line numbers and — in locals, so
an undispatched tag costs no call — pre-order, depth and the ancestor
chain.  Both engines use them: :class:`MultiQueryEvaluator` over its
:class:`~repro.core.queryindex.QueryIndex`, :class:`TwigMEvaluator` over a
one-entry index.

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

Both also report the stream-level counts (:data:`StreamShape`), from which
the single-query engine records the event pipeline's counters exactly.
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
    normalise_line_ends,
    parse_attribute_string,
)

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


# ---------------------------------------------------------------------------
# The pure scan: one bulk scan, label-dispatched runtimes
# ---------------------------------------------------------------------------


def fused_pure_multi_evaluate(
    kernel, document: str, deliveries: MutableSequence
) -> Optional[StreamShape]:
    """Run every indexed runtime over one bulk scan of ``document``.

    ``kernel`` is the :class:`~repro.core.kernel.Kernel` over the engine's
    index.  ``deliveries`` receives ``(runtime, solutions)`` pairs in
    emission order (:meth:`Kernel.deliver` hands them out).  Deliveries are
    *buffered* rather than fanned out immediately: when the scan bails out
    (returns ``None``) the caller resets the machines and replays through
    the event pipeline, and buffering guarantees no subscriber callback
    fires twice.  A caller with no subscribers to fan out to passes a sink
    that keeps nothing.

    Returns the :data:`StreamShape` on success, or ``None`` when the
    document needs the general pipeline.
    """
    kernel.deliveries = deliveries
    try:
        return _fused_pure_multi_scan(kernel, normalise_line_ends(document))
    except XMLSyntaxError:
        # Entity/attribute errors raised mid-scan: let the event pipeline
        # re-derive the canonical error message and line number.
        return None
    finally:
        kernel.deliveries = None


def _fused_pure_multi_scan(kernel, doc: str) -> Optional[StreamShape]:
    n = len(doc)
    find = doc.find
    count = doc.count
    startswith = doc.startswith
    start_match = START_TAG_RE.match
    end_match = END_TAG_RE.match
    dispatch = kernel.dispatch
    start_element = kernel.start
    end_element = kernel.end
    add_text = kernel.text
    text_runtimes = kernel.index.text_runtimes()
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
    open_elements = kernel.context
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
                    add_text(text_runtimes, text, len(open_elements))
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
                end_element(runtimes, name, len(open_tags))
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
                start_element(runtimes, name, level, attributes, line, order)
            order += 1
            if empty:
                if runtimes:
                    end_element(runtimes, name, level)
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
                if need_text:
                    add_text(text_runtimes, cdata, len(open_elements))
                pending_text = True

    if open_elements or not order:
        return None  # unclosed element / no root -> replay for exact error
    # Every text run reached the text-collecting runtimes, and only them
    # (the indexed feed path dispatches text events to those alone).
    kernel.text_runs(text_runtimes, text_runs)
    return order, attribute_count, max_depth, text_runs, misc_events


# ---------------------------------------------------------------------------
# The expat driver: one set of callbacks, label-dispatched runtimes
# ---------------------------------------------------------------------------


class FusedExpatDriver:
    """Drive a kernel straight from expat callbacks.

    The expat analogue of :func:`fused_pure_multi_evaluate`, over the same
    kind of kernel: each callback consults the label-dispatch index and
    hands interested runtimes to the kernel, with no event objects in
    between.  Unlike the pure scan, solutions are delivered (fanned out to
    subscribers, and appended to the kernel's ``emitted`` list when it has
    one) immediately as they are found — expat either completes or raises,
    there is no replay, so immediate delivery matches the incremental
    semantics of the event pipeline.  The driver also counts the stream's
    :data:`StreamShape` (:attr:`shape`), from which the single-query engine
    records the event pipeline's counters.

    Two driving modes share the callbacks:

    * :meth:`run` — the one-shot pull loop used by ``evaluate()``; the
      driver owns the chunk iterable.
    * :meth:`feed` / :meth:`finish` — the push (session) mode: the *caller*
      owns the read loop and hands chunks to ``Parse(chunk, 0)`` as they
      arrive.  Subscriptions may be added between chunks, so the cached
      text-runtime list is refreshed at each chunk boundary.
    """

    def __init__(self, kernel) -> None:
        parser = expat.ParserCreate()
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.StartElementHandler = self._start_element
        parser.EndElementHandler = self._end_element
        parser.CharacterDataHandler = self._characters
        parser.CommentHandler = self._misc
        parser.ProcessingInstructionHandler = self._misc
        self._parser = parser
        self._kernel = kernel
        self._dispatch = kernel.dispatch
        self._start = kernel.start
        self._end = kernel.end
        self._text = kernel.text
        self._text_runtimes = kernel.index.text_runtimes()
        #: The index's live ancestor chain (family residual checks read it
        #: at emission time), or ``None`` when the index keeps none.  On a
        #: mid-stream restore the chain comes back with the engine state,
        #: matching the primed parser position.
        self._context = kernel.context
        self._level = 0
        self._order = 0
        self._pending_text = False
        self._fed_bytes = False
        self._attributes = 0
        self._max_depth = 0
        self._text_runs = 0
        self._misc_events = 0

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
        self._text_runtimes = self._kernel.index.text_runtimes()
        if isinstance(chunk, bytes):
            self._fed_bytes = True
        self._parse(chunk, False)

    def finish(self) -> None:
        """Signal end of input (``Parse(_, 1)``) and flush pending text."""
        self._text_runtimes = self._kernel.index.text_runtimes()
        self._parse(b"" if self._fed_bytes else "", True)
        if self._pending_text:
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

    # ------------------------------------------------------ expat callbacks

    def _flush_pending(self) -> None:
        self._pending_text = False
        self._text_runs += 1
        self._kernel.text_runs(self._text_runtimes, 1)

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
            self._start(
                runtimes, name, level,
                tuple(zip(attributes[0::2], attributes[1::2])) if attributes else (),
                self._parser.CurrentLineNumber, order,
            )

    def _end_element(self, name: str) -> None:
        if self._pending_text:
            self._flush_pending()
        level = self._level
        self._level = level - 1
        runtimes = self._dispatch(name)
        if runtimes:
            self._end(runtimes, name, level)
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
        if self._text_runtimes:
            self._text(self._text_runtimes, data, level)

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
