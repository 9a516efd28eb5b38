"""Naive streaming evaluator: explicit enumeration of pattern matches.

This is the strawman the paper argues against: it is still a single-pass
streaming algorithm and still returns correct answers, but it records **every
pattern match explicitly** — one record per partial embedding of the query
into the document — instead of ViteX's shared per-machine-node stacks.  On
recursive data with descendant axes the number of such records is
exponential in the query size (the paper's 9 matches for ``cell_8`` is the
3×3 case), so both its running time and its memory grow exponentially where
TwigM stays polynomial.  The E3 benchmark measures exactly this separation.

The evaluator intentionally mirrors the TwigM engine's API (``feed`` /
``evaluate`` / ``stream`` / ``statistics``) so benchmarks and differential
tests can swap one for the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..errors import StreamStateError
from ..xmlstream.events import (
    Characters,
    Comment,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartDocument,
    StartElement,
)
from ..xmlstream.reader import DEFAULT_CHUNK_SIZE, TextSource
from ..xmlstream.sax import iter_events
from ..xpath.ast import (
    Axis,
    NodeKind,
    QueryNode,
    QueryTree,
    evaluate_formula,
)
from ..xpath.normalize import compile_query
from ..core.results import NodeRef, ResultCollector, ResultSet, Solution, SolutionKind


@dataclass
class MatchRecord:
    """One explicitly stored pattern match (partial embedding) of the query.

    ``bindings`` is the tuple of element pre-order indexes bound to the query
    nodes on the path from the query root down to ``query_node`` — this is
    the object whose count explodes on recursive data.
    """

    query_node: QueryNode
    element: NodeRef
    level: int
    bindings: Tuple[int, ...]
    parent: Optional["MatchRecord"] = None
    satisfied: Set[int] = field(default_factory=set)
    candidates: Dict[Tuple, Solution] = field(default_factory=dict)
    string_parts: Optional[List[str]] = None
    direct_parts: Optional[List[str]] = None

    def string_value(self) -> Optional[str]:
        """Accumulated string value (None when not collected)."""
        if self.string_parts is None:
            return None
        return "".join(self.string_parts)

    def direct_text(self) -> str:
        """Accumulated direct text ('' when not collected)."""
        if self.direct_parts is None:
            return ""
        return "".join(self.direct_parts)


@dataclass
class NaiveStatistics:
    """Counters exposing the cost of explicit match enumeration."""

    events: int = 0
    elements: int = 0
    records_created: int = 0
    live_records: int = 0
    peak_live_records: int = 0
    flags_set: int = 0
    candidates_created: int = 0
    candidates_propagated: int = 0
    solutions_emitted: int = 0
    solutions_distinct: int = 0
    max_depth: int = 0

    def observe_live(self) -> None:
        """Track the peak number of simultaneously stored match records."""
        if self.live_records > self.peak_live_records:
            self.peak_live_records = self.live_records

    def work_units(self) -> int:
        """Machine-independent proxy for running time (compare with TwigM's)."""
        return (
            self.records_created
            + self.flags_set
            + self.candidates_created
            + self.candidates_propagated
        )

    def as_dict(self) -> Dict[str, int]:
        """Flat dict of the counters for report tables."""
        return {
            "events": self.events,
            "elements": self.elements,
            "records_created": self.records_created,
            "peak_live_records": self.peak_live_records,
            "flags_set": self.flags_set,
            "candidates_created": self.candidates_created,
            "candidates_propagated": self.candidates_propagated,
            "solutions_emitted": self.solutions_emitted,
            "solutions_distinct": self.solutions_distinct,
            "max_depth": self.max_depth,
        }


class NaiveStreamingEvaluator:
    """Single-pass evaluator that stores pattern matches explicitly."""

    def __init__(self, query: Union[str, QueryTree]) -> None:
        self.query: QueryTree = compile_query(query) if isinstance(query, str) else query
        if self.query.root.kind is not NodeKind.ELEMENT:
            raise StreamStateError("the query root must be an element step")
        #: Element-kind query nodes in pre-order (processing order for pushes).
        self._element_nodes: List[QueryNode] = [
            node for node in self.query.nodes() if node.kind is NodeKind.ELEMENT
        ]
        self._postorder: List[QueryNode] = list(reversed(self._element_nodes))
        #: Open match records per query node id.
        self._open: Dict[int, List[MatchRecord]] = {
            node.node_id: [] for node in self._element_nodes
        }
        self._needs_string: Dict[int, bool] = {
            node.node_id: _needs_string_value(node) for node in self._element_nodes
        }
        self._text_output: Dict[int, Optional[QueryNode]] = {
            node.node_id: _text_output_child(node) for node in self._element_nodes
        }
        self._attribute_output: Dict[int, Optional[QueryNode]] = {
            node.node_id: _attribute_output_child(node) for node in self._element_nodes
        }
        self._attribute_predicates: Dict[int, List[QueryNode]] = {
            node.node_id: [
                child
                for child in node.predicate_children
                if child.kind is NodeKind.ATTRIBUTE
            ]
            for node in self._element_nodes
        }
        self.statistics = NaiveStatistics()
        self.collector = ResultCollector()
        self._element_order = 0
        self._finished = False

    # ------------------------------------------------------------ push API

    def feed(self, event: Event) -> List[Solution]:
        """Process one event; return newly known solutions."""
        if self._finished:
            raise StreamStateError("evaluator already finished")
        self.statistics.events += 1
        if isinstance(event, StartElement):
            self._on_start(event)
            return []
        if isinstance(event, Characters):
            self._on_characters(event)
            return []
        if isinstance(event, EndElement):
            return self._on_end(event)
        if isinstance(event, EndDocument):
            self._finished = True
            return []
        if isinstance(event, (StartDocument, Comment, ProcessingInstruction)):
            return []
        raise StreamStateError(f"unknown event type {type(event).__name__}")

    def finish(self) -> ResultSet:
        """Return the accumulated result set."""
        self._finished = True
        return ResultSet.from_collector(self.query.source, self.collector)

    def evaluate(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> ResultSet:
        """Evaluate over a complete document and return all solutions."""
        for _ in self.stream(source, parser=parser, chunk_size=chunk_size):
            pass
        return self.finish()

    def stream(
        self,
        source: Union[TextSource, Iterable[Event]],
        parser: str = "native",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[Solution]:
        """Yield solutions incrementally while consuming ``source``."""
        events: Iterable[Event]
        if isinstance(source, (list, tuple)) and source and isinstance(source[0], Event):
            events = source
        else:
            events = iter_events(source, parser=parser, chunk_size=chunk_size)
        for event in events:
            for solution in self.feed(event):
                yield solution

    # ------------------------------------------------------------ internals

    def _on_start(self, event: StartElement) -> None:
        stats = self.statistics
        stats.elements += 1
        if event.level > stats.max_depth:
            stats.max_depth = event.level
        node_ref = NodeRef(
            order=self._element_order, tag=event.name, level=event.level, line=event.line
        )
        self._element_order += 1

        for query_node in self._element_nodes:
            if not query_node.matches_name(event.name):
                continue
            parents: List[Optional[MatchRecord]]
            if query_node.parent is None:
                if query_node.axis is Axis.DESCENDANT or event.level == 1:
                    parents = [None]
                else:
                    continue
            else:
                parents = [
                    record
                    for record in self._open[query_node.parent.node_id]
                    if _axis_ok(query_node.axis, record.level, event.level)
                ]
            for parent_record in parents:
                record = MatchRecord(
                    query_node=query_node,
                    element=node_ref,
                    level=event.level,
                    bindings=(
                        (parent_record.bindings if parent_record else ())
                        + (node_ref.order,)
                    ),
                    parent=parent_record,
                    string_parts=[] if self._needs_string[query_node.node_id] else None,
                    direct_parts=[]
                    if self._text_output[query_node.node_id] is not None
                    else None,
                )
                self._record_attributes(record, event)
                self._open[query_node.node_id].append(record)
                stats.records_created += 1
                stats.live_records += 1
        stats.observe_live()

    def _record_attributes(self, record: MatchRecord, event: StartElement) -> None:
        stats = self.statistics
        node_id = record.query_node.node_id
        for predicate in self._attribute_predicates[node_id]:
            for name, value in event.attributes:
                if predicate.label != "*" and predicate.label != name:
                    continue
                if predicate.value_test is None or predicate.value_test.evaluate(value):
                    record.satisfied.add(predicate.node_id)
                    stats.flags_set += 1
                    break
        output = self._attribute_output[node_id]
        if output is not None:
            for name, value in event.attributes:
                if output.label != "*" and output.label != name:
                    continue
                if output.value_test is not None and not output.value_test.evaluate(value):
                    continue
                solution = Solution(
                    kind=SolutionKind.ATTRIBUTE,
                    node=record.element,
                    attribute=name,
                    value=value,
                )
                record.candidates.setdefault(solution.key(), solution)
                stats.candidates_created += 1

    def _on_characters(self, event: Characters) -> None:
        for records in self._open.values():
            for record in records:
                if record.string_parts is not None:
                    record.string_parts.append(event.text)
                if record.direct_parts is not None and event.level == record.level:
                    record.direct_parts.append(event.text)

    def _on_end(self, event: EndElement) -> List[Solution]:
        stats = self.statistics
        new_solutions: List[Solution] = []
        for query_node in self._postorder:
            records = self._open[query_node.node_id]
            if not records:
                continue
            remaining: List[MatchRecord] = []
            for record in records:
                if record.level != event.level:
                    remaining.append(record)
                    continue
                stats.live_records -= 1
                self._close_record(record, new_solutions)
            self._open[query_node.node_id] = remaining
        return new_solutions

    def _close_record(self, record: MatchRecord, new_solutions: List[Solution]) -> None:
        stats = self.statistics
        query_node = record.query_node
        string_value = record.string_value()
        if query_node.value_test is not None and not query_node.value_test.evaluate(string_value):
            return
        if not evaluate_formula(query_node.formula, record.satisfied, string_value):
            return

        if query_node.is_output and query_node.kind is NodeKind.ELEMENT:
            solution = Solution(kind=SolutionKind.ELEMENT, node=record.element)
            if solution.key() not in record.candidates:
                record.candidates[solution.key()] = solution
                stats.candidates_created += 1
        text_output = self._text_output[query_node.node_id]
        if text_output is not None:
            text = record.direct_text()
            if text:
                solution = Solution(kind=SolutionKind.TEXT, node=record.element, value=text)
                if solution.key() not in record.candidates:
                    record.candidates[solution.key()] = solution
                    stats.candidates_created += 1

        parent_record = record.parent
        if parent_record is None:
            stats.solutions_emitted += len(record.candidates)
            for solution in record.candidates.values():
                if self.collector.add(solution):
                    stats.solutions_distinct += 1
                    new_solutions.append(solution)
            return
        if _is_predicate_child(query_node):
            if query_node.node_id not in parent_record.satisfied:
                parent_record.satisfied.add(query_node.node_id)
                stats.flags_set += 1
        else:
            for key, solution in record.candidates.items():
                if key not in parent_record.candidates:
                    parent_record.candidates[key] = solution
                    stats.candidates_propagated += 1


def _axis_ok(axis: Axis, parent_level: int, level: int) -> bool:
    if axis is Axis.CHILD:
        return parent_level == level - 1
    return parent_level < level


def _is_predicate_child(query_node: QueryNode) -> bool:
    parent = query_node.parent
    if parent is None:
        return False
    return any(child is query_node for child in parent.predicate_children)


def _needs_string_value(query_node: QueryNode) -> bool:
    from ..core.machine import node_needs_string_value

    return node_needs_string_value(query_node)


def _text_output_child(query_node: QueryNode) -> Optional[QueryNode]:
    child = query_node.main_child
    if child is not None and child.kind is NodeKind.TEXT and child.is_output:
        return child
    return None


def _attribute_output_child(query_node: QueryNode) -> Optional[QueryNode]:
    child = query_node.main_child
    if child is not None and child.kind is NodeKind.ATTRIBUTE and child.is_output:
        return child
    return None


def evaluate_naive(
    query: Union[str, QueryTree],
    source: Union[TextSource, Iterable[Event]],
    parser: str = "native",
) -> ResultSet:
    """Convenience one-shot evaluation with the naive enumerating baseline."""
    return NaiveStreamingEvaluator(query).evaluate(source, parser=parser)
