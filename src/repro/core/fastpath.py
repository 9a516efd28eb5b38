"""Fused streaming fast paths: scan + TwigM transitions with no event objects.

The general pipeline materialises one event object per markup construct and
dispatches it through :meth:`TwigMEvaluator.feed`.  That is the right shape
for the push API, for fragment capture and for incremental solution
streaming — but for the dominant ``evaluate(document)`` call it spends a
large fraction of the per-element budget on allocating, dispatching and
unpacking event tuples.

This module provides two fused drivers used by :meth:`TwigMEvaluator.evaluate`:

* :func:`fused_pure_evaluate` — a bulk scan over a complete in-memory
  document that drives the TwigM transitions *inline*.  Tags are recognised
  under the tag-memo policy of :mod:`repro.xmlstream.tokenizer` (which
  states the soundness argument and the cap): a start tag seen before costs
  one probe of a per-call table whose entries also carry the machine's
  matching-node lists, an end tag is compared literally with the open
  element's, everything else goes through the tokenizer's regexes, and no
  well-formedness check is skipped.  Line numbers are computed only when a
  :class:`NodeRef` is built.  The inlined
  start/end bodies are deliberate copies of
  :func:`~repro.core.transitions.process_start_element` /
  :func:`process_end_element` (calling them per tag costs ~15% of this
  path's budget): ANY semantic change to transitions.py must be mirrored
  here, and the conformance suite
  (``tests/xmlstream/test_backend_conformance.py`` — result sets *and*
  statistics parity against the event pipeline) is the tripwire that
  catches drift.  Used for ``str`` sources, where chunking buys no memory
  advantage.  Returns ``None`` whenever the document needs the
  general pipeline — unsupported constructs or any syntax error — and the
  caller replays through the event pipeline, which reproduces the exact
  error message of the incremental tokenizer.
* :class:`FusedExpatDriver` — expat callbacks calling the scalar transition
  functions directly, skipping event materialisation.  Works for any
  (possibly streaming) source and keeps expat's constant-memory behaviour.

Both drivers maintain :class:`~repro.core.statistics.EngineStatistics`
counters identical to the event pipeline when a statistics object is given,
and skip them entirely when it is ``None``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple
from xml.parsers import expat

from ..errors import XMLSyntaxError
from ..xpath.ast import Axis, evaluate_formula
from ..xmlstream.tokenizer import (
    _END_TAG_RE,
    _START_TAG_RE,
    _TAG_MEMO_KEY_CAP,
    StreamTokenizer,
    decode_entities,
    memoise_start_tag,
    parse_attribute_string,
)
from .machine import TwigMachine
from .results import NodeRef, ResultCollector, Solution, SolutionKind
from .stack import acquire_entry
from .statistics import EngineStatistics
from .transitions import (
    _resolve_attributes,
    process_end_element,
    process_start_element,
)

_DESCENDANT = Axis.DESCENDANT
_CHILD = Axis.CHILD


def fused_pure_evaluate(
    machine: TwigMachine,
    document: str,
    statistics: Optional[EngineStatistics],
    collector: ResultCollector,
    eager_emission: bool,
) -> Optional[int]:
    """Evaluate over a complete document string; return the element count.

    Returns ``None`` when the document cannot be handled by the fast
    patterns (malformed markup, truncated constructs, exotic declarations).
    The caller must then reset the machine/collector and replay through the
    general event pipeline, which either succeeds (constructs the fast path
    skipped) or raises the canonical :class:`XMLSyntaxError`.
    """
    try:
        return _fused_pure_scan(
            machine, document, statistics, collector, eager_emission
        )
    except XMLSyntaxError:
        # Entity/attribute errors raised mid-scan: let the event pipeline
        # re-derive the canonical error message and line number.
        return None


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
        end = StreamTokenizer._find_doctype_end(doc, lt)
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


def _fused_pure_scan(
    machine: TwigMachine,
    doc: str,
    statistics: Optional[EngineStatistics],
    collector: ResultCollector,
    eager: bool,
) -> Optional[int]:
    n = len(doc)
    find = doc.find
    count = doc.count
    startswith = doc.startswith
    start_match = _START_TAG_RE.match
    end_match = _END_TAG_RE.match
    nodes_matching = machine.nodes_matching
    nodes_matching_postorder = machine.nodes_matching_postorder
    text_nodes = machine.text_nodes
    need_text = bool(text_nodes)
    has_entities = "&" in doc
    # Per-call tag memo: raw start tag -> (name, attributes, empty, matching
    # nodes, literal end tag, matching nodes in post-order).
    memo: dict = {}
    memo_get = memo.get

    # One memo entry per open element (built on a miss even when it cannot
    # be stored), so the end tag's spelling and node list need no lookup.
    open_tags: List[tuple] = []
    order = 0
    index = 0
    # Line numbers are lazy: ``line`` is exact for ``doc[:line_pos]`` and is
    # only brought forward when a NodeRef is built.
    line = 1
    line_pos = 0
    root_closed = False
    # What the stream looks like is counted in locals and written to
    # ``statistics`` once at the end (a bailed scan's statistics are thrown
    # away by the caller).  ``text_flushes`` emulates the event pipeline's
    # text coalescing: one Characters event per run of text flushed by a
    # structural event, comment or processing instruction.
    pending_text = False
    text_flushes = 0
    misc_events = 0  # comments + processing instructions
    attribute_count = 0
    max_depth = 0

    while index < n:
        lt = find("<", index)
        if lt == -1:
            if doc[index:].strip():
                return None  # trailing content / unclosed element -> replay
            break
        if lt > index:
            if open_tags:
                if need_text:
                    text = doc[index:lt]
                    if "&" in text:
                        text = decode_entities(text)
                    _append_text(text_nodes, text, len(open_tags))
                # Text content is irrelevant to this query; validate entity
                # references without materialising the slice unless one is
                # present.
                elif has_entities and find("&", index, lt) != -1:
                    decode_entities(doc[index:lt])
                pending_text = True
            elif doc[index:lt].strip():
                return None  # character data outside the root element
        second = doc[lt + 1] if lt + 1 < n else ""
        if second == "/":
            if not open_tags:
                return None  # stray end tag -> replay for exact error
            name, _, _, _, closer, matching = open_tags.pop()
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
                text_flushes += 1
            level = len(open_tags) + 1
            if level == 1:
                root_closed = True
            # ---- inline end-element transition (mirrors transitions.py) ----
            popped = False
            for machine_node in matching:
                entries = machine_node.stack.entries
                if not entries or entries[-1].level != level:
                    continue
                entry = entries.pop()
                popped = True
                if statistics is not None:
                    statistics.pops += 1
                    statistics.live_entries -= 1
                    if entry.candidates:
                        statistics.live_candidates -= len(entry.candidates)
                if not machine_node.is_unconditional:
                    query_node = machine_node.query_node
                    parts = entry.string_parts
                    string_value = "".join(parts) if parts is not None else None
                    if query_node.value_test is not None and not query_node.value_test.evaluate(string_value):
                        continue
                    if not evaluate_formula(query_node.formula, entry.satisfied, string_value):
                        continue
                if machine_node.is_output:
                    before = len(entry.candidates)
                    solution = Solution(kind=SolutionKind.ELEMENT, node=entry.element)
                    entry.candidates.setdefault(solution.key(), solution)
                    if statistics is not None and len(entry.candidates) > before:
                        statistics.candidates_created += 1
                if machine_node.text_output is not None:
                    direct = entry.direct_text() or ""
                    if direct:
                        before = len(entry.candidates)
                        solution = Solution(
                            kind=SolutionKind.TEXT, node=entry.element, value=direct
                        )
                        entry.candidates.setdefault(solution.key(), solution)
                        if statistics is not None and len(entry.candidates) > before:
                            statistics.candidates_created += 1
                if machine_node.parent is None or (
                    eager
                    and not machine_node.is_predicate_branch
                    and machine_node.ancestors_unconditional
                ):
                    if statistics is not None:
                        statistics.solutions_emitted += len(entry.candidates)
                    for solution in entry.candidates.values():
                        if collector.add(solution) and statistics is not None:
                            statistics.solutions_distinct += 1
                    continue
                parent_entries = machine_node.parent.stack.entries
                if machine_node.axis is _DESCENDANT:
                    targets = [t for t in parent_entries if t.level < level]
                else:
                    parent_level = level - 1
                    targets = [t for t in parent_entries if t.level == parent_level]
                if machine_node.is_predicate_branch:
                    node_id = machine_node.query_node.node_id
                    for target in targets:
                        if node_id not in target.satisfied:
                            target.satisfied.add(node_id)
                            if statistics is not None:
                                statistics.flags_set += 1
                else:
                    for target in targets:
                        added = target.absorb_candidates(entry)
                        if statistics is not None:
                            statistics.candidates_propagated += added
                            statistics.live_candidates += added
            if popped and statistics is not None:
                live_candidates = statistics.live_candidates
                if live_candidates > statistics.peak_candidate_count:
                    statistics.peak_candidate_count = live_candidates
            # ---------------------------------------------------------------
            index = end
            continue
        elif second not in ("!", "?", ""):
            gt = find(">", lt, lt + _TAG_MEMO_KEY_CAP)
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
                # XMLSyntaxError, which the fused_pure_evaluate wrapper
                # converts into an event-pipeline replay — on every
                # occurrence, because such a tag is never memoised.
                hit = (
                    name,
                    parse_attribute_string(raw_attributes, name, None)
                    if raw_attributes else (),
                    empty,
                    nodes_matching(name),
                    f"</{name}>",
                    nodes_matching_postorder(name),
                )
                memoise_start_tag(memo, doc, lt, gt, end, hit)
            if root_closed:
                return None  # second root element -> replay for exact error
            if pending_text:
                pending_text = False
                text_flushes += 1
            open_tags.append(hit)
            level = len(open_tags)
            name, attributes, empty, matching, _, _ = hit
            if attributes:
                attribute_count += len(attributes)
            if level > max_depth:
                max_depth = level
            # ---- inline start-element transition (mirrors transitions.py) ----
            if matching:
                node_ref = None
                pushed = False
                for machine_node in matching:
                    parent = machine_node.parent
                    if parent is None:
                        if machine_node.axis is not _DESCENDANT and level != 1:
                            continue
                    else:
                        parent_entries = parent.stack.entries
                        if machine_node.axis is _CHILD:
                            target_level = level - 1
                            open_at = False
                            for open_entry in reversed(parent_entries):
                                entry_level = open_entry.level
                                if entry_level == target_level:
                                    open_at = True
                                    break
                                if entry_level < target_level:
                                    break
                            if not open_at:
                                continue
                        elif not parent_entries or parent_entries[0].level >= level:
                            continue
                    if node_ref is None:
                        line += count("\n", line_pos, end)
                        line_pos = end
                        node_ref = NodeRef(order, name, level, line)
                    entry = acquire_entry(
                        level,
                        node_ref,
                        [] if machine_node.needs_string_value else None,
                        [] if machine_node.needs_direct_text else None,
                    )
                    attribute_work = (
                        machine_node.attribute_predicates
                        or machine_node.attribute_output is not None
                    )
                    if attribute_work:
                        _resolve_attributes(machine_node, entry, attributes, statistics)
                    machine_node.stack.entries.append(entry)
                    pushed = True
                    if statistics is not None:
                        statistics.pushes += 1
                        by_node = statistics.pushes_by_node
                        label = machine_node.label
                        by_node[label] = by_node.get(label, 0) + 1
                        statistics.live_entries += 1
                        if attribute_work:
                            statistics.live_candidates += entry.candidate_count
                if pushed and statistics is not None:
                    live_entries = statistics.live_entries
                    if live_entries > statistics.peak_stack_entries:
                        statistics.peak_stack_entries = live_entries
                    live_candidates = statistics.live_candidates
                    if live_candidates > statistics.peak_candidate_count:
                        statistics.peak_candidate_count = live_candidates
            # -----------------------------------------------------------------
            order += 1
            if empty:
                open_tags.pop()
                if level == 1:
                    root_closed = True
                process_end_element(
                    machine, name, level, statistics, collector,
                    eager_emission=eager,
                )
            index = end
            continue
        # -------- uncommon constructs: comments, CDATA, PI, DOCTYPE --------
        misc = _scan_misc(doc, lt)
        if misc is None:
            return None  # anything else: replay through the event pipeline
        index, is_event, cdata = misc
        if is_event:
            if pending_text:
                pending_text = False
                text_flushes += 1
            misc_events += 1
        elif cdata:
            if not open_tags:
                if cdata.strip():
                    return None  # CDATA outside the root element
            else:
                if need_text:
                    _append_text(text_nodes, cdata, len(open_tags))
                pending_text = True

    if open_tags or not order:
        return None  # unclosed element / no root -> replay for exact error
    if statistics is not None:
        statistics.elements += order
        statistics.attributes += attribute_count
        statistics.text_chunks += text_flushes
        statistics.max_depth = max(statistics.max_depth, max_depth)
        # StartDocument + EndDocument + one start and one end per element
        # + coalesced text chunks + comments/PIs.
        statistics.events += 2 + 2 * order + text_flushes + misc_events
    return order


class FusedExpatDriver:
    """Drive the TwigM transitions straight from expat callbacks.

    No event objects are created: each callback calls the scalar transition
    functions with the values expat hands it.  Statistics counters (when
    enabled) are maintained with the same semantics as the event pipeline,
    including coalesced text-chunk counting.
    """

    def __init__(
        self,
        machine: TwigMachine,
        statistics: Optional[EngineStatistics],
        collector: ResultCollector,
        eager_emission: bool,
    ) -> None:
        parser = expat.ParserCreate()
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.StartElementHandler = self._start_element
        parser.EndElementHandler = self._end_element
        if machine.text_nodes or statistics is not None:
            parser.CharacterDataHandler = self._characters
        if statistics is not None:
            parser.CommentHandler = self._comment
            parser.ProcessingInstructionHandler = self._processing_instruction
        self._parser = parser
        self._machine = machine
        self._statistics = statistics
        self._collector = collector
        self._eager = eager_emission
        self._text_nodes = machine.text_nodes
        self._level = 0
        self._order = 0
        self._pending_text = False

    # ------------------------------------------------------------------ API

    @property
    def element_count(self) -> int:
        """Number of start tags processed so far."""
        return self._order

    def run(self, chunks) -> None:
        """Consume the whole document from an iterable of str/bytes chunks."""
        statistics = self._statistics
        if statistics is not None:
            statistics.events += 1  # StartDocument
        parser = self._parser
        fed_bytes = False
        try:
            for chunk in chunks:
                if isinstance(chunk, bytes):
                    fed_bytes = True
                parser.Parse(chunk, False)
            parser.Parse(b"" if fed_bytes else "", True)
        except expat.ExpatError as exc:
            raise XMLSyntaxError(
                str(exc),
                line=getattr(exc, "lineno", None),
                column=getattr(exc, "offset", None),
            ) from exc
        self._flush_pending()
        if statistics is not None:
            statistics.events += 1  # EndDocument

    # ------------------------------------------------------ expat callbacks

    def _flush_pending(self) -> None:
        if self._pending_text:
            self._pending_text = False
            statistics = self._statistics
            if statistics is not None:
                statistics.text_chunks += 1
                statistics.events += 1

    def _start_element(self, name: str, attributes: List[str]) -> None:
        if self._pending_text:
            self._flush_pending()
        statistics = self._statistics
        if statistics is not None:
            statistics.events += 1
        level = self._level + 1
        self._level = level
        pairs = tuple(zip(attributes[0::2], attributes[1::2])) if attributes else ()
        order = self._order
        self._order = order + 1
        process_start_element(
            self._machine,
            name,
            level,
            pairs,
            self._parser.CurrentLineNumber,
            order,
            statistics,
        )

    def _end_element(self, name: str) -> None:
        if self._pending_text:
            self._flush_pending()
        statistics = self._statistics
        if statistics is not None:
            statistics.events += 1
        level = self._level
        self._level = level - 1
        process_end_element(
            self._machine, name, level, statistics, self._collector,
            eager_emission=self._eager,
        )

    def _characters(self, data: str) -> None:
        level = self._level
        if level <= 0:
            return
        self._pending_text = True
        text_nodes = self._text_nodes
        if text_nodes:
            for machine_node in text_nodes:
                for entry in machine_node.stack.entries:
                    if entry.string_parts is not None:
                        entry.string_parts.append(data)
                    if entry.direct_parts is not None and level == entry.level:
                        entry.direct_parts.append(data)

    def _comment(self, data: str) -> None:
        if self._pending_text:
            self._flush_pending()
        statistics = self._statistics
        if statistics is not None:
            statistics.events += 1

    def _processing_instruction(self, target: str, data: str) -> None:
        if self._pending_text:
            self._flush_pending()
        statistics = self._statistics
        if statistics is not None:
            statistics.events += 1


# ---------------------------------------------------------------------------
# Fused multi-query drivers: one scan, label-dispatched machines
# ---------------------------------------------------------------------------


def fused_pure_multi_evaluate(index, document: str, deliveries: list) -> Optional[int]:
    """Evaluate every indexed machine over one bulk scan of ``document``.

    ``index`` is a :class:`~repro.core.queryindex.QueryIndex`; ``deliveries``
    is an output list that receives ``(runtime, solutions)`` pairs in
    emission order.  Deliveries are *buffered* rather than fanned out
    immediately: when the scan bails out (returns ``None``) the caller
    resets the machines and replays through the event pipeline, and
    buffering guarantees no subscriber callback fires twice.

    Returns the element count on success, or ``None`` when the document
    needs the general pipeline (same bail-out conditions as
    :func:`fused_pure_evaluate`).
    """
    try:
        return _fused_pure_multi_scan(index, document, deliveries)
    except XMLSyntaxError:
        return None


def _fused_pure_multi_scan(index, doc: str, deliveries: list) -> Optional[int]:
    n = len(doc)
    find = doc.find
    count = doc.count
    startswith = doc.startswith
    start_match = _START_TAG_RE.match
    end_match = _END_TAG_RE.match
    dispatch = index.dispatch
    text_runtimes = index.text_runtimes()
    need_text = bool(text_runtimes)
    has_entities = "&" in doc
    # Per-call tag memo: raw start tag -> (name, attributes, empty,
    # interested runtimes, literal end tag).  Subscriptions cannot change
    # mid-scan (deliveries are buffered), so the runtime lists stay valid.
    memo: dict = {}
    memo_get = memo.get

    # The scan's open-element stack *is* the index's live ancestor chain:
    # family runtimes resolve residual paths against it at emission time, so
    # it must reflect the chain of the element being closed — hence the pops
    # below happen after the end-element dispatch, not before.  ``open_tags``
    # shadows it with the memo entries (see _fused_pure_scan).
    open_elements = index.context
    del open_elements[:]
    open_tags: List[tuple] = []
    order = 0
    index_pos = 0
    line = 1  # lazy, exact for doc[:line_pos] (see _fused_pure_scan)
    line_pos = 0
    root_closed = False
    pending_text = False

    def flush_text() -> None:
        # One coalesced Characters run ended: count it for the machines that
        # actually receive character data (matching the indexed feed path,
        # where only text-collecting machines are dispatched text events).
        for runtime in text_runtimes:
            statistics = runtime.statistics
            if statistics is not None:
                statistics.text_chunks += 1

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
                flush_text()
            if runtimes:
                end_element(name, len(open_tags), runtimes)
            open_tags.pop()
            open_elements.pop()
            if not open_tags:
                root_closed = True
            index_pos = end
            continue
        elif second not in ("!", "?", ""):
            gt = find(">", lt, lt + _TAG_MEMO_KEY_CAP)
            hit = memo_get(doc[lt:gt + 1])
            if hit is not None:
                end = gt + 1
            else:
                match = start_match(doc, lt)
                if match is None:
                    return None
                name, raw_attributes, empty = match.group(1, 2, 3)
                end = match.end()
                # Raises XMLSyntaxError on duplicates / bad entities, which
                # the wrapper converts into an event-pipeline replay.
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
                flush_text()
            name, attributes, empty, runtimes, _ = hit
            open_tags.append(hit)
            open_elements.append(name)
            level = len(open_tags)
            if runtimes:
                line += count("\n", line_pos, end)
                line_pos = end
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
                flush_text()
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
    return order


class FusedExpatMultiDriver:
    """Drive every indexed machine straight from one set of expat callbacks.

    The expat analogue of :func:`fused_pure_multi_evaluate`: each callback
    consults the label-dispatch index and calls the scalar transition
    functions only for interested machines.  Unlike the pure scan, solutions
    are delivered (fanned out to subscribers) immediately as they are found —
    expat either completes or raises, there is no replay, so immediate
    delivery matches the incremental semantics of the event pipeline.

    Two driving modes share the callbacks:

    * :meth:`run` — the one-shot pull loop used by ``evaluate()``; the
      driver owns the chunk iterable.
    * ``incremental=True`` + :meth:`feed` / :meth:`finish` — the push
      (session) mode: the *caller* owns the read loop and hands chunks to
      ``Parse(chunk, 0)`` as they arrive.  Delivered pairs are buffered on
      :attr:`emitted` (fan-out still happens immediately; the buffer is how
      the session returns pairs per chunk), every handler is registered up
      front because subscriptions may be added mid-stream, and the cached
      text-runtime list is refreshed at each chunk boundary — registration
      changes can only happen between chunks.
    """

    def __init__(self, index, incremental: bool = False) -> None:
        parser = expat.ParserCreate()
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.StartElementHandler = self._start_element
        parser.EndElementHandler = self._end_element
        self._index = index
        self._incremental = incremental
        self._text_runtimes = index.text_runtimes()
        if incremental or self._text_runtimes:
            parser.CharacterDataHandler = self._characters
            parser.CommentHandler = self._misc
            parser.ProcessingInstructionHandler = self._misc
        self._parser = parser
        self._dispatch = index.dispatch
        #: The index's live ancestor chain (family residual checks read it
        #: at emission time).  On a mid-stream restore the chain comes back
        #: with the engine state, matching the primed parser position.
        self._context = index.context
        self._level = 0
        self._order = 0
        self._pending_text = False
        self._fed_bytes = False
        #: Pairs delivered since the caller last drained (incremental mode).
        self.emitted: List = [] if incremental else None

    @property
    def element_count(self) -> int:
        """Number of start tags processed so far."""
        return self._order

    def run(self, chunks) -> None:
        """Consume the whole document from an iterable of str/bytes chunks."""
        parser = self._parser
        fed_bytes = False
        try:
            for chunk in chunks:
                if isinstance(chunk, bytes):
                    fed_bytes = True
                parser.Parse(chunk, False)
            parser.Parse(b"" if fed_bytes else "", True)
        except expat.ExpatError as exc:
            raise XMLSyntaxError(
                str(exc),
                line=getattr(exc, "lineno", None),
                column=getattr(exc, "offset", None),
            ) from exc
        self._flush_pending()

    # ------------------------------------------------------------ push mode

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

    def feed(self, chunk) -> None:
        """Push one str/bytes chunk through ``Parse(chunk, 0)``."""
        self._text_runtimes = self._index.text_runtimes()
        if isinstance(chunk, bytes):
            self._fed_bytes = True
        try:
            self._parser.Parse(chunk, False)
        except expat.ExpatError as exc:
            raise XMLSyntaxError(
                str(exc),
                line=getattr(exc, "lineno", None),
                column=getattr(exc, "offset", None),
            ) from exc

    def finish(self) -> None:
        """Signal end of input (``Parse(_, 1)``) and flush pending text."""
        self._text_runtimes = self._index.text_runtimes()
        try:
            self._parser.Parse(b"" if self._fed_bytes else "", True)
        except expat.ExpatError as exc:
            raise XMLSyntaxError(
                str(exc),
                line=getattr(exc, "lineno", None),
                column=getattr(exc, "offset", None),
            ) from exc
        self._flush_pending()

    # ------------------------------------------------------ expat callbacks

    def _flush_pending(self) -> None:
        if self._pending_text:
            self._pending_text = False
            for runtime in self._text_runtimes:
                statistics = runtime.statistics
                if statistics is not None:
                    statistics.text_chunks += 1

    def _start_element(self, name: str, attributes: List[str]) -> None:
        if self._pending_text:
            self._flush_pending()
        level = self._level + 1
        self._level = level
        context = self._context
        del context[level - 1 :]
        context.append(name)
        order = self._order
        self._order = order + 1
        runtimes = self._dispatch(name)
        if not runtimes:
            return
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
        del self._context[level - 1 :]

    def _characters(self, data: str) -> None:
        level = self._level
        if level <= 0:
            return
        self._pending_text = True
        for runtime in self._text_runtimes:
            for machine_node in runtime.machine.text_nodes:
                for entry in machine_node.stack.entries:
                    if entry.string_parts is not None:
                        entry.string_parts.append(data)
                    if entry.direct_parts is not None and level == entry.level:
                        entry.direct_parts.append(data)

    def _misc(self, *args) -> None:
        if self._pending_text:
            self._flush_pending()


def _prime_noop(*args) -> None:
    """Handler stand-in during checkpoint replay (see ``prime``)."""


__all__ = [
    "FusedExpatDriver",
    "FusedExpatMultiDriver",
    "fused_pure_evaluate",
    "fused_pure_multi_evaluate",
]
