"""TwigM builder: construct a :class:`~repro.core.machine.TwigMachine` from a query.

Construction is a single pre-order walk of the query twig, so it runs in time
linear in the query size — the property stated as Feature 2 in the paper and
reproduced by the E4 benchmark.

For multi-query deployments the module additionally provides a ref-counted
:class:`CompiledQueryCache`: structurally identical queries (as decided by
:func:`~repro.xpath.fingerprint.query_fingerprint`) share one
:class:`CompiledQuery`, so the parse → normalize → fingerprint work runs once
per *distinct* query shape no matter how many subscriptions register it.  The
:class:`~repro.core.multi.MultiQueryEvaluator` acquires from the process-wide
:data:`shared_compiled_cache` on register and releases on unregister.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import UnsupportedFeatureError
from ..xpath.ast import Axis, FormulaTrue, NodeKind, QueryNode, QueryTree
from ..xpath.containment import ResidualPlan, residual_plan
from ..xpath.fingerprint import query_fingerprint
from ..xpath.normalize import compile_query
from .machine import MachineNode, TwigMachine, node_needs_string_value


def build_machine(query: Union[str, QueryTree]) -> TwigMachine:
    """Build the TwigM machine for ``query``.

    ``query`` may be an expression string, a normalized
    :class:`~repro.xpath.ast.QueryTree`, or a compiled
    :class:`repro.api.Query` value object (recognized structurally through
    its ``tree`` attribute so the core never imports the facade package).

    A machine node is created for every element query node; attribute and
    ``text()`` query nodes are attached to their owner's machine node as
    immediate-resolution references (they never need stacks because their
    match status is known the moment the owning element's start or end tag is
    processed).
    """
    if isinstance(query, str):
        tree = compile_query(query)
    else:
        tree = getattr(query, "tree", query)
    if tree.root.kind is not NodeKind.ELEMENT:
        raise UnsupportedFeatureError(
            "the query root must be an element step (attribute-only queries are "
            "normalized to //*/@name before reaching the builder)"
        )
    nodes: List[MachineNode] = []
    root = _build_node(tree.root, parent=None, is_predicate_branch=False, nodes=nodes)
    _mark_unconditional_ancestry(root, ancestors_unconditional=True)
    return TwigMachine(query=tree, root=root, nodes=nodes)


def build_anchor_machine(
    label: str, captures: Sequence[Tuple[str, bool]] = (), attributes: bool = False
) -> TwigMachine:
    """Build a family's anchor machine: ``//label`` selecting itself.

    Each of ``captures`` (``(child label, valued)`` pairs, in the given
    order) becomes a capture child: a predicate branch whose pop leaves
    ``(element, string value)`` on the anchor entry as a text candidate —
    the value is collected only when ``valued``, and is ``None`` otherwise.
    With ``attributes`` every attribute of the start tag is kept on the
    entry too (an ``@*`` output).  Both travel with the anchor's emission;
    the anchor's formula stays true, so every anchor is emitted and the
    family decides which members it answers.
    """
    root_query = QueryNode(
        node_id=0, label=label, kind=NodeKind.ELEMENT, axis=Axis.DESCENDANT,
        is_output=True,
    )
    root = MachineNode(query_node=root_query, is_output=True)
    nodes = [root]
    for node_id, (capture, valued) in enumerate(captures, start=1):
        query_node = QueryNode(
            node_id=node_id, label=capture, kind=NodeKind.ELEMENT, axis=Axis.CHILD,
            parent=root_query,
        )
        root_query.predicate_children.append(query_node)
        child = MachineNode(
            query_node=query_node, parent=root, is_predicate_branch=True,
            is_capture=True, needs_string_value=valued,
        )
        root.children.append(child)
        nodes.append(child)
    if attributes:
        root.attribute_output = QueryNode(
            node_id=len(nodes), label="*", kind=NodeKind.ATTRIBUTE,
            axis=Axis.ATTRIBUTE, is_output=True, parent=root_query,
        )
    _mark_unconditional_ancestry(root, ancestors_unconditional=True)
    tree = QueryTree(root=root_query, output_node=root_query, source=f"//{label}")
    return TwigMachine(query=tree, root=root, nodes=nodes)


@dataclass
class CompiledQuery:
    """One compiled query shape, shareable between subscriptions.

    Holds the normalized twig plus its canonical fingerprint.  The refcount
    is managed by :class:`CompiledQueryCache`; holders must not mutate the
    tree (machines built from it carry all per-run state on their stacks).
    """

    fingerprint: str
    tree: QueryTree
    refcount: int = 0

    def build(self) -> TwigMachine:
        """Build a fresh TwigM machine for this query."""
        return build_machine(self.tree)


class CompiledQueryCache:
    """Ref-counted cache of compiled queries keyed by canonical fingerprint.

    ``acquire`` parses/normalizes at most once per distinct source string
    (a source-text memo front-ends the fingerprint computation) and at most
    once per distinct query *shape* for the returned :class:`CompiledQuery`.
    Every ``acquire`` must be paired with a ``release``; an entry is evicted
    when its refcount drops to zero, so the cache never outgrows the set of
    acquired-but-unreleased queries.  Holders are responsible for releasing
    (``MultiQueryEvaluator`` does so on ``unregister()``/``close()``; an
    evaluator dropped without closing pins its entries).
    """

    def __init__(self) -> None:
        self._by_fingerprint: Dict[str, CompiledQuery] = {}
        self._source_memo: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._by_fingerprint)

    def acquire(self, query: Union[str, QueryTree]) -> CompiledQuery:
        """Return the shared :class:`CompiledQuery` for ``query`` (+1 ref).

        Accepts an expression string, a :class:`~repro.xpath.ast.QueryTree`,
        or a compiled :class:`repro.api.Query` (whose pre-computed tree and
        fingerprint are reused, skipping the parse and the fingerprint walk).
        """
        fingerprint: Optional[str] = None
        tree: Optional[QueryTree] = None
        if isinstance(query, str):
            fingerprint = self._source_memo.get(query)
            if fingerprint is None:
                tree = compile_query(query)
                fingerprint = query_fingerprint(tree)
        elif hasattr(query, "fingerprint"):  # compiled repro.api.Query
            tree = query.tree
            fingerprint = query.fingerprint
        else:
            tree = query
            fingerprint = query_fingerprint(tree)
        compiled = self._by_fingerprint.get(fingerprint)
        if compiled is None:
            if tree is None:  # memoized fingerprint but evicted entry
                tree = compile_query(query)  # type: ignore[arg-type]
            compiled = CompiledQuery(fingerprint=fingerprint, tree=tree)
            self._by_fingerprint[fingerprint] = compiled
            self.misses += 1
        else:
            self.hits += 1
        if isinstance(query, str):
            self._source_memo[query] = fingerprint
        compiled.refcount += 1
        return compiled

    def release(self, compiled: CompiledQuery) -> None:
        """Drop one reference; evict the entry when none remain."""
        compiled.refcount -= 1
        if compiled.refcount <= 0:
            cached = self._by_fingerprint.get(compiled.fingerprint)
            if cached is compiled:
                del self._by_fingerprint[compiled.fingerprint]
                # Drop memoized source strings that point at the evicted
                # entry so the memo cannot grow without bound.
                stale = [
                    source
                    for source, fingerprint in self._source_memo.items()
                    if fingerprint == compiled.fingerprint
                ]
                for source in stale:
                    del self._source_memo[source]

    def clear(self) -> None:
        """Forget every entry and reset the hit/miss counters."""
        self._by_fingerprint.clear()
        self._source_memo.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide compiled-query cache used by the multi-query engine.
shared_compiled_cache = CompiledQueryCache()


class SharingPlanner:
    """Decides how each registration shares machines, memoized by shape.

    The planner sits between the compiled-query cache and the dispatch
    index: for every registered shape it answers "can this query ride a
    containment-shared anchor machine?" exactly once
    (:func:`~repro.xpath.containment.residual_plan` walks the twig; at a
    million registrations that walk must not repeat per subscriber).  A
    ``None`` plan means the query keeps its private or fingerprint-shared
    machine — the conservative fallback for every shape outside the
    provably-rewritable fragment.

    The memo is keyed by canonical fingerprint, so its size is bounded by
    the number of *distinct* query shapes ever planned, mirroring the
    compiled-query cache.
    """

    def __init__(self) -> None:
        self._memo: Dict[str, Optional[ResidualPlan]] = {}

    def plan(self, compiled: CompiledQuery) -> Optional[ResidualPlan]:
        """The containment-sharing plan for ``compiled``, or ``None``."""
        fingerprint = compiled.fingerprint
        try:
            return self._memo[fingerprint]
        except KeyError:
            plan = residual_plan(compiled.tree)
            self._memo[fingerprint] = plan
            return plan

    def clear(self) -> None:
        """Forget every memoized plan (tests / cache hygiene)."""
        self._memo.clear()


#: Process-wide sharing planner used by the multi-query engine.
shared_planner = SharingPlanner()


def _is_unconditional(query_node: QueryNode) -> bool:
    """True when the node imposes no predicate or value constraint of its own."""
    return isinstance(query_node.formula, FormulaTrue) and query_node.value_test is None


def _mark_unconditional_ancestry(node: MachineNode, ancestors_unconditional: bool) -> None:
    """Annotate each machine node with constraint information used by eager emission."""
    node.is_unconditional = _is_unconditional(node.query_node)
    node.ancestors_unconditional = ancestors_unconditional
    child_flag = ancestors_unconditional and node.is_unconditional
    for child in node.children:
        _mark_unconditional_ancestry(child, ancestors_unconditional=child_flag)


def _build_node(
    query_node: QueryNode,
    parent: Optional[MachineNode],
    is_predicate_branch: bool,
    nodes: List[MachineNode],
) -> MachineNode:
    machine_node = MachineNode(
        query_node=query_node,
        parent=parent,
        is_predicate_branch=is_predicate_branch,
        is_output=query_node.is_output and query_node.kind is NodeKind.ELEMENT,
        needs_string_value=node_needs_string_value(query_node),
    )
    nodes.append(machine_node)

    # Predicate children: attributes resolve at start-tags, elements become
    # machine children with their own stacks.
    for child in query_node.predicate_children:
        if child.kind is NodeKind.ATTRIBUTE:
            machine_node.attribute_predicates.append(child)
        elif child.kind is NodeKind.ELEMENT:
            machine_node.children.append(
                _build_node(child, parent=machine_node, is_predicate_branch=True, nodes=nodes)
            )
        else:
            raise UnsupportedFeatureError(
                "text() cannot appear as a predicate path step"
            )

    # Main-path child: element → machine child; attribute/text → output refs.
    main_child = query_node.main_child
    if main_child is not None:
        if main_child.kind is NodeKind.ELEMENT:
            machine_node.children.append(
                _build_node(main_child, parent=machine_node, is_predicate_branch=False, nodes=nodes)
            )
        elif main_child.kind is NodeKind.ATTRIBUTE:
            if not main_child.is_output:
                raise UnsupportedFeatureError(
                    "an attribute step can only appear as the last step of a query"
                )
            machine_node.attribute_output = main_child
        else:  # text()
            if not main_child.is_output:
                raise UnsupportedFeatureError(
                    "a text() step can only appear as the last step of a query"
                )
            machine_node.text_output = main_child

    return machine_node
