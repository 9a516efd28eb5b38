"""The TwigM machine: one machine node per query node, each with a stack.

This module defines the machine *structure* (built once per query by
:mod:`repro.core.builder`); the transition functions that drive it on SAX
events live in :mod:`repro.core.transitions`, and the outer evaluation loop in
:mod:`repro.core.engine`.  The split mirrors the paper's architecture figure:
TwigM builder → TwigM machine ← SAX events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..xpath.ast import (
    Axis,
    QueryNode,
    QueryTree,
    SelfTextAtom,
    formula_atoms,
)
from .stack import MachineStack, StackEntry


@dataclass
class MachineNode:
    """One node of the TwigM machine.

    A machine node is created for every *element* query node (tags and
    wildcards, as in the paper's Figure 3).  Attribute and ``text()`` query
    nodes do not need stacks of their own: attributes are resolved the moment
    their owner element's start tag is seen, and text output is resolved when
    the owner element closes; both are therefore recorded as lightweight
    references on their owner's machine node.
    """

    query_node: QueryNode
    parent: Optional["MachineNode"] = None
    #: Machine nodes for element-kind query children (predicate branches and
    #: the main-path child when it is an element).
    children: List["MachineNode"] = field(default_factory=list)
    #: Attribute query nodes that act as predicates on this node.
    attribute_predicates: List[QueryNode] = field(default_factory=list)
    #: The attribute query node selected as query output, when the output is
    #: an attribute hanging off this node.
    attribute_output: Optional[QueryNode] = None
    #: The text() query node selected as query output, when the output is the
    #: text content of elements matching this node.
    text_output: Optional[QueryNode] = None
    #: The per-node stack (the paper's compact pattern-match encoding).
    stack: MachineStack = field(default_factory=MachineStack)

    # -- derived, filled by the builder ------------------------------------

    #: True when this machine node's query node is a predicate child of its
    #: parent query node (as opposed to the next main-path node).
    is_predicate_branch: bool = False
    #: True when this node's own element matches are the query output.
    is_output: bool = False
    #: True when entries must accumulate the element's string value.
    needs_string_value: bool = False
    #: True when this node itself imposes no predicate/value constraints
    #: (its formula is trivially true), so any pushed entry is guaranteed to
    #: be satisfied at pop time.
    is_unconditional: bool = False
    #: True when every strict ancestor machine node is unconditional.  For a
    #: main-path node with this property, candidates that are satisfied at its
    #: pop are already full query solutions and may be emitted eagerly instead
    #: of being bookkept all the way up to the machine root (an optional
    #: optimisation; see ``repro.evaluate(..., eager_emission=True)``).
    ancestors_unconditional: bool = False

    # ------------------------------------------------------------ helpers

    @property
    def label(self) -> str:
        """The tag name this node matches (``*`` for wildcards)."""
        return self.query_node.label

    @property
    def axis(self) -> Axis:
        """Axis of the edge from the parent machine node (or from the root)."""
        return self.query_node.axis

    @property
    def is_root(self) -> bool:
        """True for the machine root."""
        return self.parent is None

    @property
    def is_wildcard(self) -> bool:
        """True when this node matches any element name."""
        return self.query_node.is_wildcard

    @property
    def needs_direct_text(self) -> bool:
        """True when entries must accumulate direct text (text() output)."""
        return self.text_output is not None

    def matches(self, tag: str) -> bool:
        """True when an element with this tag can be bound to this node."""
        return self.is_wildcard or self.label == tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "root" if self.is_root else ("pred" if self.is_predicate_branch else "main")
        return f"<MachineNode {self.axis.symbol()}{self.label} [{role}] stack={len(self.stack)}>"


class TwigMachine:
    """The complete TwigM machine for one query.

    Holds the machine-node tree plus the indexes the transition functions
    need: nodes grouped by label (so a start-element event only touches the
    machine nodes that could match it) and pre-/post-order traversal lists.
    """

    def __init__(self, query: QueryTree, root: MachineNode, nodes: List[MachineNode]) -> None:
        self.query = query
        self.root = root
        #: Machine nodes in pre-order (parents before children) — the order
        #: used for start-element processing.
        self.nodes = nodes
        #: Machine nodes in post-order (children before parents) — the order
        #: used for end-element processing.
        self.nodes_postorder = list(reversed(nodes))
        self._by_label: Dict[str, List[MachineNode]] = {}
        self._wildcards: List[MachineNode] = []
        for node in nodes:
            if node.is_wildcard:
                self._wildcards.append(node)
            else:
                self._by_label.setdefault(node.label, []).append(node)
        self._match_cache: Dict[str, List[MachineNode]] = {}
        self._match_cache_postorder: Dict[str, List[MachineNode]] = {}
        #: Machine nodes whose entries accumulate text, kept separately so
        #: character events do not touch unrelated nodes.
        self.text_nodes = [
            node for node in nodes if node.needs_string_value or node.needs_direct_text
        ]

    # ------------------------------------------------------------ queries

    @property
    def size(self) -> int:
        """Number of machine nodes."""
        return len(self.nodes)

    def nodes_matching(self, tag: str) -> List[MachineNode]:
        """Machine nodes whose label matches ``tag`` (pre-order), cached per tag."""
        cached = self._match_cache.get(tag)
        if cached is None:
            cached = [
                node for node in self.nodes if node.matches(tag)
            ]
            self._match_cache[tag] = cached
        return cached

    def nodes_matching_postorder(self, tag: str) -> List[MachineNode]:
        """Machine nodes whose label matches ``tag`` (post-order), cached per tag.

        End-element processing must visit children before parents so that
        bookkeeping flows upwards within a single event; caching the filtered
        list removes the per-event ``matches`` scan over all machine nodes.
        """
        cached = self._match_cache_postorder.get(tag)
        if cached is None:
            cached = [node for node in self.nodes_postorder if node.matches(tag)]
            self._match_cache_postorder[tag] = cached
        return cached

    def total_live_entries(self) -> int:
        """Total number of stack entries currently live across all nodes."""
        return sum(len(node.stack) for node in self.nodes)

    def total_live_candidates(self) -> int:
        """Total number of candidate solutions currently held on stacks."""
        return sum(node.stack.candidate_total() for node in self.nodes)

    def stacks_empty(self) -> bool:
        """True when every machine stack is empty (end-of-document invariant)."""
        return all(len(node.stack) == 0 for node in self.nodes)

    def reset(self) -> None:
        """Clear all stacks so the machine can process another document."""
        for node in self.nodes:
            node.stack.clear()

    # ------------------------------------------------------------ snapshot

    def snapshot_stacks(self) -> List[List[Dict]]:
        """JSON-able state of every machine-node stack, in node pre-order.

        Machine *structure* is not serialized: the builder is deterministic,
        so recompiling the query source in another process yields the same
        node list (and the same query-node ids referenced by the entries'
        ``satisfied`` sets).  Only the per-run stack state travels.
        """
        return [
            [entry.to_state() for entry in node.stack.entries] for node in self.nodes
        ]

    def restore_stacks(self, state: List[List[Dict]]) -> None:
        """Rebuild every stack from :meth:`snapshot_stacks` output."""
        if len(state) != len(self.nodes):
            raise ValueError(
                f"snapshot has {len(state)} machine-node stacks, "
                f"machine has {len(self.nodes)} nodes (query shape mismatch)"
            )
        for node, entries in zip(self.nodes, state):
            node.stack.entries[:] = [StackEntry.from_state(item) for item in entries]

    def describe(self) -> str:
        """Multi-line description of the machine structure (CLI ``--explain``)."""
        lines: List[str] = [f"TwigM machine for {self.query.source!r} ({self.size} machine nodes)"]

        def visit(node: MachineNode, indent: int) -> None:
            details = []
            if node.is_output:
                details.append("output")
            if node.is_predicate_branch:
                details.append("predicate branch")
            if node.attribute_predicates:
                names = ", ".join(f"@{attr.label}" for attr in node.attribute_predicates)
                details.append(f"attribute predicates: {names}")
            if node.attribute_output is not None:
                details.append(f"attribute output: @{node.attribute_output.label}")
            if node.text_output is not None:
                details.append("text() output")
            if node.needs_string_value:
                details.append("collects string value")
            suffix = f"  [{'; '.join(details)}]" if details else ""
            lines.append(f"{'  ' * indent}{node.axis.symbol()}{node.label}{suffix}")
            for child in node.children:
                visit(child, indent + 1)

        visit(self.root, 1)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwigMachine {self.query.source!r} nodes={self.size}>"


def node_needs_string_value(query_node: QueryNode) -> bool:
    """True when evaluating ``query_node`` requires its elements' string value."""
    if query_node.value_test is not None:
        return True
    return any(
        isinstance(atom, SelfTextAtom) for atom in formula_atoms(query_node.formula)
    )
