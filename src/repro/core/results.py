"""Result model: node references, solutions and result collection.

Solutions must be comparable across the three evaluators in the library
(TwigM streaming, naive streaming, DOM oracle), so every solution carries a
canonical key built from the *pre-order element index* of the document node
involved — a quantity all evaluators can compute independently of how they
represent nodes internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class NodeRef(NamedTuple):
    """A lightweight reference to a document element.

    Streaming evaluators cannot hold on to element objects (there are none),
    so they describe elements by their pre-order index (``order``, which
    identifies the element), tag, level and 1-based source line (when
    known).  A ``NamedTuple`` rather than a dataclass: one is created per
    matched element on the streaming hot path.
    """

    order: int
    tag: str = ""
    level: int = 0
    line: Optional[int] = None

    def label(self) -> str:
        """Paper-style label, e.g. ``table_5`` (tag subscripted by line)."""
        if self.line is not None:
            return f"{self.tag}_{self.line}"
        return f"{self.tag}#{self.order}"


@unique
class SolutionKind(Enum):
    """What kind of document node a solution refers to."""

    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"


@dataclass(frozen=True, slots=True)
class Solution:
    """One query solution.

    For element results ``value`` is ``None``; for attribute results it is the
    attribute value and ``attribute`` the attribute name; for text results it
    is the text content.  ``fragment`` optionally holds the serialized XML
    fragment of the solution element (only populated when fragment capture is
    enabled on the engine).
    """

    kind: SolutionKind
    node: NodeRef
    attribute: Optional[str] = None
    value: Optional[str] = None
    fragment: Optional[str] = None

    def key(self) -> Tuple:
        """Canonical identity used for cross-engine comparison and dedup."""
        if self.kind is SolutionKind.ELEMENT:
            return ("element", self.node.order)
        if self.kind is SolutionKind.ATTRIBUTE:
            return ("attribute", self.node.order, self.attribute)
        return ("text", self.node.order)

    def order_key(self) -> Tuple:
        """Sort key approximating document order."""
        return (self.node.order, self.kind.value, self.attribute or "")

    def describe(self) -> str:
        """Human-readable one-line description."""
        if self.kind is SolutionKind.ELEMENT:
            return f"element {self.node.label()} (level {self.node.level})"
        if self.kind is SolutionKind.ATTRIBUTE:
            return f"attribute @{self.attribute}={self.value!r} of {self.node.label()}"
        return f"text {self.value!r} of {self.node.label()}"


class Match(NamedTuple):
    """One named solution delivery: which subscription matched, and what.

    This is the single delivery type used by every push surface — session
    feeds, ``Engine.stream``, subscription callbacks and service pushes.  It
    is a ``NamedTuple`` so it stays *tuple-compatible* with the historical
    ``(name, solution)`` pairs: ``name, solution = match`` unpacking,
    indexing and equality against plain tuples all keep working.
    """

    name: str
    solution: Solution

    def describe(self) -> str:
        """Human-readable one-line description, ``[name] <solution>``."""
        return f"[{self.name}] {self.solution.describe()}"


class ResultCollector:
    """Accumulates solutions, deduplicating by canonical key.

    The same output node can reach the TwigM root through several pattern
    matches (that is the paper's whole point), so the collector guarantees
    each solution is reported exactly once.  Insertion order is the emission
    order of the engine; :meth:`in_document_order` re-sorts.
    """

    def __init__(self) -> None:
        self._solutions: Dict[Tuple, Solution] = {}
        self.emitted = 0

    def add(self, solution: Solution) -> bool:
        """Add a solution; return True when it was not seen before."""
        self.emitted += 1
        key = solution.key()
        if key in self._solutions:
            return False
        self._solutions[key] = solution
        return True

    def extend(self, solutions: Iterable[Solution]) -> List[Solution]:
        """Add many solutions; return the ones that were new."""
        return [solution for solution in solutions if self.add(solution)]

    def __len__(self) -> int:
        return len(self._solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self._solutions.values())

    def __contains__(self, solution: Solution) -> bool:
        return solution.key() in self._solutions

    def solutions(self) -> List[Solution]:
        """Solutions in emission order."""
        return list(self._solutions.values())

    def in_document_order(self) -> List[Solution]:
        """Solutions sorted by document order."""
        return sorted(self._solutions.values(), key=Solution.order_key)

    def keys(self) -> List[Tuple]:
        """Canonical keys of the collected solutions (sorted)."""
        return sorted(solution.key() for solution in self._solutions.values())


class MemberCollector:
    """The solutions of one containment-family member, one reference each.

    A family's anchor machine deduplicates through its own
    :class:`ResultCollector` before any member sees a solution, so a member
    only records which of those already-unique solutions passed its residual
    check: a list, not a second keyed copy of every match.
    """

    __slots__ = ("_solutions", "emitted")

    def __init__(self) -> None:
        self._solutions: List[Solution] = []
        self.emitted = 0

    def add(self, solution: Solution) -> None:
        """Record a solution the anchor has already deduplicated."""
        self.emitted += 1
        self._solutions.append(solution)

    def __len__(self) -> int:
        return len(self._solutions)

    def solutions(self) -> List[Solution]:
        """Solutions in emission order."""
        return list(self._solutions)

    def in_document_order(self) -> List[Solution]:
        """Solutions sorted by document order."""
        return sorted(self._solutions, key=Solution.order_key)


class EmissionCounter:
    """The collector of a capturing family's anchor machine: it counts what
    the anchor emits and keeps none of it.

    A single-step anchor emits each element once, with that element's kept
    attributes and captured children, so there is nothing to deduplicate,
    and the members' :class:`MemberCollector` objects hold the answers.
    Memory and snapshots therefore stay independent of how many anchors a
    long document has emitted.
    """

    __slots__ = ("emitted",)

    def __init__(self) -> None:
        self.emitted = 0

    def add(self, solution: Solution) -> bool:
        """Count a solution; it is always new."""
        self.emitted += 1
        return True

    def __len__(self) -> int:
        return 0

    def solutions(self) -> List[Solution]:
        """Nothing: the counter keeps no solution."""
        return []


def solution_to_payload(solution: Solution) -> Dict[str, object]:
    """Flatten a :class:`Solution` into a JSON-able payload dict.

    The canonical flat encoding shared by the service wire protocol and the
    checkpoint format; :func:`solution_from_payload` inverts it exactly.
    """
    node = solution.node
    payload: Dict[str, object] = {
        "kind": solution.kind.value,
        "order": node.order,
        "tag": node.tag,
        "level": node.level,
    }
    if node.line is not None:
        payload["line"] = node.line
    if solution.attribute is not None:
        payload["attribute"] = solution.attribute
    if solution.value is not None:
        payload["value"] = solution.value
    if solution.fragment is not None:
        payload["fragment"] = solution.fragment
    return payload


def solution_from_payload(payload: Dict[str, object]) -> Solution:
    """Rebuild a :class:`Solution` from its flat payload dict.

    Raises ``KeyError``/``ValueError`` on malformed payloads; transport
    layers wrap these in their own error types.
    """
    kind = SolutionKind(payload["kind"])
    node = NodeRef(
        order=payload["order"],  # type: ignore[arg-type]
        tag=payload.get("tag", ""),  # type: ignore[arg-type]
        level=payload.get("level", 0),  # type: ignore[arg-type]
        line=payload.get("line"),  # type: ignore[arg-type]
    )
    return Solution(
        kind=kind,
        node=node,
        attribute=payload.get("attribute"),  # type: ignore[arg-type]
        value=payload.get("value"),  # type: ignore[arg-type]
        fragment=payload.get("fragment"),  # type: ignore[arg-type]
    )


@dataclass
class ResultSet:
    """The final answer of a query evaluation run.

    Wraps the collected solutions together with the evaluated query text so
    examples and the CLI can print self-describing output.
    """

    query: str
    solutions: List[Solution] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __bool__(self) -> bool:
        return bool(self.solutions)

    def keys(self) -> List[Tuple]:
        """Sorted canonical keys (used by differential tests)."""
        return sorted(solution.key() for solution in self.solutions)

    def values(self) -> List[Optional[str]]:
        """The attribute/text values of the solutions, in document order."""
        ordered = sorted(self.solutions, key=Solution.order_key)
        return [solution.value for solution in ordered]

    def elements(self) -> List[NodeRef]:
        """Node references of the solutions, in document order."""
        ordered = sorted(self.solutions, key=Solution.order_key)
        return [solution.node for solution in ordered]

    def describe(self) -> str:
        """Multi-line human readable description of the result."""
        lines = [f"{len(self.solutions)} solution(s) for {self.query}"]
        for solution in sorted(self.solutions, key=Solution.order_key):
            lines.append(f"  - {solution.describe()}")
        return "\n".join(lines)

    @classmethod
    def from_collector(cls, query: str, collector: ResultCollector) -> "ResultSet":
        """Build a result set from a collector, in document order."""
        return cls(query=query, solutions=collector.in_document_order())
