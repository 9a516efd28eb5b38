"""Dispatch core for the subscription engine: prefix trie + interest sets.

Feeding every stream event to every registered machine makes per-event cost
O(total machines) — unusable for the paper's motivating scenario of very many
standing subscriptions over one stream.  This module provides the structures
that make the multi-query path scale to the million-subscription axis:

* **Subscription-path prefix trie** — every registration's main path (label
  + axis per step, attribute/``text()`` terminals included) is interned into
  one trie, so structurally related queries share prefix nodes and the
  resident cost of a refinement family grows with the number of *distinct
  suffixes*, not the number of subscriptions.  The trie is also the
  diagnostic backbone: ``trie_node_count`` and the peak dispatch fanout feed
  ``Engine.stats()``.
* **Per-tag memoized interest sets** — registration maintains an inverted
  ``label → runtimes`` index (wildcard machines form their own class, text
  collectors another), and ``dispatch(tag)`` materialises the interest set
  for each distinct tag once, memoized until the registration set changes.
  Registration is O(path length + labels); dispatch of a warm tag is one
  dict probe regardless of how many machines are registered.
* **Containment-shared families** — a :class:`FamilyRuntime` runs one
  anchor machine (``//c``) for a whole family of queries anchored at ``c``
  (see :mod:`repro.xpath.containment`): linear paths selecting ``c``, and
  paths whose one predicated step is ``c`` (``//c[p>5]``, ``//c[@k='x']/d``,
  ``//a//c/@id``).  Each member is a pooled :class:`ResidualGroup` record
  holding the member's residual step sequence, anchor predicate and output,
  its subscribers and its result collector.  The residual path check runs
  once per (family, ancestor chain) thanks to a chain-keyed memo; a family
  whose members test or select the anchor's children or attributes has its
  anchor capture them, and evaluates each distinct predicate atom once per
  emitted anchor.

Every per-registration record (:class:`QueryRuntime`, :class:`FamilyRuntime`,
:class:`ResidualGroup`, trie nodes) uses ``__slots__`` so a million standing
registrations stay within container memory.

The index also owns the stream's **ancestor tag chain** (:attr:`QueryIndex.
context`): the kernel (for event records) and the fused scans keep it
current — append the tag on a start element, truncate after the
end-element dispatch — so family runtimes can resolve residual path checks
at emission time, while the chain of the closing element is still known.

Skipping a machine for a non-matching tag is semantically a no-op: the
transition functions would have found an empty ``nodes_matching`` list and
returned immediately.  The index turns that per-machine no-op into a single
dictionary probe shared by all machines.  (Per-machine *statistics* under the
index describe only the events actually dispatched to that machine — see
``MultiQueryEvaluator``'s docstring.)
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

from ..errors import StreamStateError
from ..xpath.ast import Axis, NodeKind, QueryTree, xpath_number
from ..xpath.containment import Predicate, PredicateAtom, ResidualPlan, path_matches
from .builder import CompiledQuery, build_anchor_machine
from .machine import TwigMachine
from .results import (
    EmissionCounter,
    MemberCollector,
    Match,
    ResultCollector,
    ResultSet,
    Solution,
    SolutionKind,
)
from .statistics import EngineStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .multi import Subscription

#: One trie edge: ``(axis symbol, label)`` for element steps, ``("@", name)``
#: for attribute outputs, ``("text()", "")`` for text outputs.
TrieEdge = Tuple[str, str]
TriePath = Tuple[TrieEdge, ...]


def machine_label_profile(machine: TwigMachine) -> Tuple[FrozenSet[str], bool]:
    """Return ``(labels, has_wildcard)`` for a machine.

    ``labels`` are the exact element tag names the machine's nodes match;
    ``has_wildcard`` is True when any machine node matches every tag, in
    which case the machine belongs to the every-element dispatch class and
    its exact labels are irrelevant.  Attribute and ``text()`` query nodes
    resolve on their *owner* element's events, so only element machine nodes
    contribute.
    """
    labels = set()
    has_wildcard = False
    for node in machine.nodes:
        if node.is_wildcard:
            has_wildcard = True
        else:
            labels.add(node.label)
    return frozenset(labels), has_wildcard


def trie_path(tree: QueryTree) -> TriePath:
    """The main path of ``tree`` as prefix-trie edges.

    Predicates do not participate (two queries differing only in predicates
    share their whole trie path and are distinguished by their terminal
    registrations); attribute and ``text()`` outputs get terminal edges of
    their own so ``//a/@id`` and ``//a`` intern to different nodes.
    """
    edges: List[TrieEdge] = []
    node = tree.root
    while node is not None:
        if node.kind is NodeKind.ELEMENT:
            symbol = "//" if node.axis is Axis.DESCENDANT else "/"
            edges.append((symbol, node.label))
        elif node.kind is NodeKind.ATTRIBUTE:
            edges.append(("@", node.label))
        else:  # text()
            edges.append(("text()", ""))
        node = node.main_child
    return tuple(edges)


class _TrieNode:
    """One prefix-trie node; ``refs`` counts registrations ending here."""

    __slots__ = ("edges", "refs", "parent", "edge")

    def __init__(
        self, parent: Optional["_TrieNode"] = None, edge: Optional[TrieEdge] = None
    ) -> None:
        self.edges: Dict[TrieEdge, "_TrieNode"] = {}
        self.refs = 0
        self.parent = parent
        self.edge = edge


def _fan_out(owners, solutions: List[Solution], emitted) -> None:
    """Deliver ``solutions`` to the subscribers of every owner, in order.

    The one subscriber loop of both runtime kinds; ``owners`` are runtimes
    or residual groups, anything with a ``subscribers`` list.  Emitted pairs
    are :class:`~repro.core.results.Match` instances (tuple-compatible with
    the historical ``(name, solution)`` pairs).  Paused subscribers are
    skipped entirely (no callback, no pair in the incremental stream, no
    ``delivered`` increment); the shared machine keeps running, so the
    pull-style result set stays complete.  A callback that raises is
    isolated: the exception is recorded on the subscription
    (``callback_errors`` / ``last_callback_error``) and delivery continues
    for the remaining solutions and subscribers.
    """
    for owner in owners:
        for subscription in owner.subscribers:
            if subscription.paused:
                continue
            name = subscription.name
            callback = subscription.callback
            for solution in solutions:
                subscription.delivered += 1
                if callback is not None:
                    try:
                        callback(solution)
                    except Exception as exc:  # isolation: one bad callback
                        subscription.callback_errors += 1
                        subscription.last_callback_error = exc
                if emitted is not None:
                    emitted.append(Match(name, solution))


class _Runtime:
    """What both runtime kinds share: one machine and the state of its run.

    A runtime owns its machine's ``statistics`` (``None`` when the engine
    collects none), ``collector`` and ``eager`` flag, and its own stream
    position, which the kernel keeps and snapshots carry: ``element_order``
    (the pre-order after the last start tag it was dispatched, or the
    document's element count once a fused scan closed it), ``started`` and
    ``finished``.
    """

    #: Containment-shared family runtimes override this; drivers use it to
    #: decide whether emission-time residual resolution is needed.
    is_family = False

    __slots__ = (
        "compiled",
        "labels",
        "wildcard",
        "needs_text",
        "machine",
        "statistics",
        "collector",
        "eager",
        "element_order",
        "started",
        "finished",
        "seq",
        "trie",
    )

    def __init__(self, compiled: CompiledQuery, collect_statistics: bool) -> None:
        self.compiled = compiled
        self.machine: TwigMachine = compiled.build()
        self.labels, self.wildcard = machine_label_profile(self.machine)
        self.needs_text = bool(self.machine.text_nodes)
        self.eager = False
        #: Registration sequence number, assigned by :meth:`QueryIndex.add`.
        self.seq = -1
        #: Prefix-trie path of the machine's own query shape.
        self.trie: TriePath = trie_path(compiled.tree)
        self.statistics: Optional[EngineStatistics] = (
            EngineStatistics() if collect_statistics else None
        )
        self.reset()

    @property
    def fingerprint(self) -> str:
        """Canonical fingerprint of the runtime's (anchor) query shape."""
        return self.compiled.fingerprint

    @property
    def evaluator(self) -> "_Runtime":
        """The runtime itself, which holds what the 1.x per-runtime
        evaluator did (``machine``, ``statistics``, ``collector``)."""
        return self

    def reset(self) -> None:
        """Reset the machine and the run state for a fresh stream."""
        self.machine.reset()
        if self.statistics is not None:
            self.statistics = EngineStatistics()
        self.collector = ResultCollector()
        self.element_order = 0
        self.started = False
        self.finished = False

    def finish(self, query: str) -> ResultSet:
        """Close the stream for this machine; its answer, labelled ``query``."""
        if not self.finished:
            if not self.machine.stacks_empty():
                raise StreamStateError("finish() called while elements are still open")
            self.finished = True
        return ResultSet.from_collector(query, self.collector)


class QueryRuntime(_Runtime):
    """One running machine inside the index, shared by its subscribers.

    Structurally identical queries (equal fingerprints) map to a single
    runtime: the machine runs once per stream and its solutions fan out to
    every subscriber.
    """

    __slots__ = ("subscribers", "_owners")

    def __init__(self, compiled: CompiledQuery, collect_statistics: bool) -> None:
        self.subscribers: List["Subscription"] = []
        # Built once: a tuple per delivery would be one more allocation per
        # match for the cycle collector to count.
        self._owners = (self,)
        super().__init__(compiled, collect_statistics)

    def deliver(self, solutions: List[Solution], emitted=None) -> None:
        """Fan ``solutions`` out to every active subscriber (:func:`_fan_out`)."""
        _fan_out(self._owners, solutions, emitted)


class ResidualGroup:
    """One query shape inside a containment-shared family.

    A pooled record: every subscriber of this shape shares the single plan,
    collector and membership list — the per-subscription cost of the
    million-subscription axis is the :class:`~repro.core.multi.Subscription`
    handle plus one list slot here.  The collector is a
    :class:`~repro.core.results.MemberCollector`: the anchor has already
    deduplicated every solution, so the group keeps one reference per match.
    ``predicate`` is the plan's anchor predicate over the *family's* atom
    table (``None`` without one) and ``output`` the plan's output.
    """

    __slots__ = (
        "compiled",
        "plan",
        "steps",
        "predicate",
        "output",
        "trie",
        "subscribers",
        "collector",
    )

    def __init__(
        self,
        compiled: CompiledQuery,
        plan: ResidualPlan,
        predicate: Optional[Predicate],
        trie: TriePath,
    ) -> None:
        self.compiled = compiled
        self.plan = plan
        self.steps = plan.steps
        self.predicate = predicate
        self.output = plan.output
        self.trie = trie
        self.subscribers: List["Subscription"] = []
        self.collector = MemberCollector()

    @property
    def fingerprint(self) -> str:
        """Canonical fingerprint of the group's query shape."""
        return self.compiled.fingerprint

    @property
    def source(self) -> str:
        """Normalized source text of the group's query shape."""
        return self.compiled.tree.source


#: A family atom ready for evaluation: ``(key, comparison)`` where ``key``
#: names the kept values (``"@name"`` for an attribute, the tag for a
#: child) and ``comparison`` is the value test's
#: :attr:`~repro.xpath.ast.ValueTest.comparison` (``None`` for an
#: existence test).
_FamilyAtom = Tuple[str, Optional[Tuple[bool, Callable[[Any, Any], bool], Any]]]


def _family_atom(atom: PredicateAtom) -> _FamilyAtom:
    """The evaluation form of one plan atom."""
    kind, label, test = atom
    return ("@" + label if kind == "@" else label), (
        None if test is None else test.comparison
    )


def _atom_holds(
    atom: _FamilyAtom, kept: Dict[str, List[Solution]], numbers: Dict[str, List[float]]
) -> bool:
    """One atom over an emission's kept values; each value's
    :func:`~repro.xpath.ast.xpath_number` is taken at most once (``numbers``)."""
    key, comparison = atom
    found = kept.get(key)
    if not found:
        return False
    if comparison is None:
        return True
    numeric, compare, right = comparison
    if numeric:
        values = numbers.get(key)
        if values is None:
            values = numbers[key] = [xpath_number(solution.value) for solution in found]
        for value in values:
            if compare(value, right):
                return True
        return False
    for solution in found:
        if compare(solution.value, right):
            return True
    return False


def _holds(predicate, truth: Dict[int, bool], atoms, kept, numbers) -> bool:
    """Evaluate a family predicate; each atom once per emission (``truth``)."""
    if predicate.__class__ is int:
        value = truth.get(predicate)
        if value is None:
            value = truth[predicate] = _atom_holds(atoms[predicate], kept, numbers)
        return value
    if predicate is True:
        return True
    op, operands = predicate
    if op == "and":
        for operand in operands:
            if not _holds(operand, truth, atoms, kept, numbers):
                return False
        return True
    if op == "or":
        for operand in operands:
            if _holds(operand, truth, atoms, kept, numbers):
                return True
        return False
    return not _holds(operands[0], truth, atoms, kept, numbers)


#: One run of a chain's matched member groups: consecutive groups with the
#: same predicate and output, which share one verdict and one solution list.
_Run = Tuple[Optional[Predicate], Optional[Tuple[str, str]], Tuple[ResidualGroup, ...]]


def _runs(groups: List[ResidualGroup]) -> List[_Run]:
    """``groups`` (in order) as runs of equal ``(predicate, output)``."""
    runs: List[_Run] = []
    start = 0
    for position in range(1, len(groups) + 1):
        if position == len(groups) or (
            groups[position].predicate != groups[start].predicate
            or groups[position].output != groups[start].output
        ):
            first = groups[start]
            runs.append((first.predicate, first.output, tuple(groups[start:position])))
            start = position
    return runs


class FamilyRuntime(_Runtime):
    """One anchor machine serving a containment-shared refinement family.

    The machine evaluates the single-step anchor (``//c`` / ``//*``); every
    member query's remaining constraint is a residual ancestor-path check
    (:func:`repro.xpath.containment.path_matches`) evaluated at emission
    time against the index's live ancestor chain.  Residual verdicts are
    memoized per distinct chain, as runs of matched groups that share a
    predicate and an output (a family of plain paths is one run).

    A *capturing* family — one with a member that carries an anchor
    predicate or selects an attribute or child of the anchor — has an
    anchor machine built by :func:`~repro.core.builder.build_anchor_machine`
    with one capture child per child label its members name
    (:attr:`captures`; a child's string value only where a member tests
    it) and, when a member needs them, the start tag's
    attributes (:attr:`attributes`).  Each emission batch then carries the
    anchor's kept attributes and captured children ahead of the anchor
    element itself; :meth:`resolve` evaluates each distinct predicate atom
    at most once per emission (and ``xpath_number`` at most once per kept
    value) and builds each run's solutions: the anchor, its attribute, or
    its captured children in document order.  Its anchor keeps nothing it
    emits (an :class:`~repro.core.results.EmissionCounter`); the members
    hold the answers.  The anchor is rebuilt only at rest: widened when a
    member joins at the start of the stream, narrowed (:meth:`narrow`) once
    the members that needed a capture have left.

    Emission-time resolution is decoupled from delivery because the fused
    pure scan buffers deliveries until after the scan, when the chain is
    gone: :meth:`resolve` stamps each emission batch (answered runs and
    their solutions, collector updates) into a FIFO while the chain is
    live, and :meth:`deliver` drains one stamped batch per call.  Drivers
    that deliver immediately never call :meth:`resolve`; :meth:`deliver`
    resolves lazily from the still-live chain.
    """

    is_family = True

    __slots__ = (
        "anchor_label",
        "groups",
        "group_list",
        "captures",
        "attributes",
        "loose",
        "_atom_index",
        "_atoms",
        "_context",
        "_pending",
        "_match_cache",
    )

    def __init__(
        self,
        compiled: CompiledQuery,
        anchor_label: str,
        context: List[str],
        collect_statistics: bool,
        captures: Optional[Dict[str, bool]] = None,
        attributes: bool = False,
    ) -> None:
        self.anchor_label = anchor_label
        self.groups: Dict[str, ResidualGroup] = {}
        self.group_list: List[ResidualGroup] = []
        #: Child label the anchor machine captures -> whether it collects
        #: the child's string value; in label order.
        self.captures: Dict[str, bool] = {}
        #: True when the anchor machine keeps its start tag's attributes.
        self.attributes = False
        #: True once a member that needed a capture has left (:meth:`narrow`).
        self.loose = False
        #: Distinct predicate atoms across the members -> their index.
        self._atom_index: Dict[PredicateAtom, int] = {}
        self._atoms: List[_FamilyAtom] = []
        self._context = context
        self._pending: deque = deque()
        self._match_cache: Dict[Tuple[str, ...], List[_Run]] = {}
        super().__init__(compiled, collect_statistics)
        self._fit(captures or {}, attributes)

    @property
    def subscribers(self) -> List["Subscription"]:
        """Every subscriber across all member groups (diagnostics)."""
        return [
            subscription
            for group in self.group_list
            for subscription in group.subscribers
        ]

    @property
    def atoms(self) -> List[PredicateAtom]:
        """Distinct predicate atoms across the members, in first-use order."""
        return list(self._atom_index)

    @property
    def capturing(self) -> bool:
        """True when emissions carry kept attributes or captured children."""
        return bool(self.captures) or self.attributes

    # ------------------------------------------------------------ membership

    def widen(self, plan: ResidualPlan) -> bool:
        """Make the anchor machine capture what ``plan`` needs besides
        what it captures already; True when the machine was rebuilt (the
        caller re-indexes its labels).  Only a machine at rest can be
        rebuilt: families are joined at the start of the stream."""
        captures = dict(self.captures)
        for label, valued in plan.captures.items():
            captures[label] = captures.get(label, False) or valued
        return self._fit(captures, self.attributes or plan.attributes)

    def narrow(self) -> bool:
        """Drop the captures no remaining member needs (the machine must
        be at rest); True when the machine was rebuilt."""
        if not self.loose:
            return False
        self.loose = False
        captures: Dict[str, bool] = {}
        attributes = False
        for group in self.group_list:
            for label, valued in group.plan.captures.items():
                captures[label] = captures.get(label, False) or valued
            attributes = attributes or group.plan.attributes
        return self._fit(captures, attributes)

    def _fit(self, captures: Dict[str, bool], attributes: bool) -> bool:
        """Rebuild the anchor machine to capture exactly ``captures`` and
        keep attributes iff ``attributes``; False when it already does."""
        wanted = dict(sorted(captures.items()))
        if wanted == self.captures and attributes == self.attributes:
            return False
        if not self.machine.stacks_empty():
            raise StreamStateError("a family anchor can only be rebuilt at rest")
        self.captures = wanted
        self.attributes = attributes
        self.machine = (
            build_anchor_machine(self.anchor_label, tuple(wanted.items()), attributes)
            if self.capturing
            else self.compiled.build()
        )
        self.labels, self.wildcard = machine_label_profile(self.machine)
        self.needs_text = bool(self.machine.text_nodes)
        self.collector = self._anchor_collector()
        return True

    def _anchor_collector(self):
        """A fresh collector for the anchor machine.  A family without
        captures keeps a :class:`ResultCollector`, which snapshots have
        always carried."""
        return EmissionCounter() if self.capturing else ResultCollector()

    def add_group(
        self, compiled: CompiledQuery, plan: ResidualPlan, trie: TriePath
    ) -> ResidualGroup:
        """Create (and register) the group for a new member query shape;
        the caller widens the anchor to the plan's captures first."""
        group = ResidualGroup(compiled, plan, self._predicate(plan), trie)
        self.groups[compiled.fingerprint] = group
        self.group_list.append(group)
        self._match_cache.clear()
        return group

    def _predicate(self, plan: ResidualPlan) -> Optional[Predicate]:
        """``plan``'s predicate over the family's atom table, which gains
        the plan's new atoms."""
        if plan.predicate is None:
            return None
        index = []
        for atom in plan.atoms:
            position = self._atom_index.get(atom)
            if position is None:
                position = self._atom_index[atom] = len(self._atoms)
                self._atoms.append(_family_atom(atom))
            index.append(position)
        return _reindex(plan.predicate, index)

    def remove_group(self, group: ResidualGroup) -> None:
        """Drop an empty member group (and the atoms only it used); the
        family turns :attr:`loose` when the group needed a capture."""
        del self.groups[group.fingerprint]
        self.group_list.remove(group)
        self._match_cache.clear()
        if group.plan.captures or group.plan.attributes:
            self.loose = True
        if group.predicate is not None:
            self._atom_index, self._atoms = {}, []
            for member in self.group_list:
                member.predicate = self._predicate(member.plan)

    # ------------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Reset the anchor machine and every member collector, and drop
        the emission batches a bailed scan left undelivered."""
        for group in self.group_list:
            group.collector = MemberCollector()
        self._pending.clear()
        super().reset()
        self.collector = self._anchor_collector()

    # ------------------------------------------------------------ emission

    def resolve(self, solutions: List[Solution]) -> None:
        """Stamp one emission batch while the ancestor chain is live.

        The batch is the anchor's kept attributes and captured children
        (a capturing family only), then the anchor.  Evaluates each member
        group's residual path against the chain of the element being
        closed (memoized per distinct chain), then each matched run's
        predicate, builds the run's solutions, records them into its
        groups' collectors — *unconditionally*, so paused subscribers keep
        complete pull-style results, matching the private-machine pause
        semantics — and queues ``(groups, solutions)`` pairs for the paired
        :meth:`deliver` call.
        """
        chain = tuple(self._context)
        runs = self._match_cache.get(chain)
        if runs is None:
            runs = self._match_cache[chain] = _runs(
                [group for group in self.group_list if path_matches(group.steps, chain)]
            )
        answered: List[Tuple[Tuple[ResidualGroup, ...], List[Solution]]] = []
        kept: Optional[Dict[str, List[Solution]]] = None
        for predicate, output, groups in runs:
            if predicate is None and output is None:
                selected = solutions if len(solutions) == 1 else solutions[-1:]
            else:
                if kept is None:
                    kept = _kept(solutions)
                    numbers: Dict[str, List[float]] = {}
                    truth: Dict[int, bool] = {}
                if predicate is not None and not _holds(
                    predicate, truth, self._atoms, kept, numbers
                ):
                    continue
                selected = _select(output, solutions, kept)
                if not selected:
                    continue
            for group in groups:
                add = group.collector.add
                for solution in selected:
                    add(solution)
            answered.append((groups, selected))
        self._pending.append(answered)

    def deliver(self, solutions: List[Solution], emitted=None) -> None:
        """Fan one emission batch out to the answered groups' subscribers.

        Each call pairs with the oldest stamped batch (drivers buffer and
        deliver in FIFO order); when no batch is pending the driver is
        delivering immediately after emission, so the chain is still live
        and the batch is resolved on the spot.
        """
        if not self._pending:
            self.resolve(solutions)
        for groups, selected in self._pending.popleft():
            _fan_out(groups, selected, emitted)


_ATTRIBUTE = SolutionKind.ATTRIBUTE


def _kept(solutions: List[Solution]) -> Dict[str, List[Solution]]:
    """A batch's kept attributes (``"@name"``) and captured children (by
    tag), each in document order."""
    kept: Dict[str, List[Solution]] = {}
    for solution in solutions[:-1]:
        key = "@" + solution.attribute if solution.kind is _ATTRIBUTE else solution.node.tag
        found = kept.get(key)
        if found is None:
            kept[key] = [solution]
        else:
            found.append(solution)
    return kept


def _select(
    output: Optional[Tuple[str, str]],
    solutions: List[Solution],
    kept: Dict[str, List[Solution]],
) -> List[Solution]:
    """A member's solutions for one emitted anchor (the batch's last)."""
    if output is None:
        return solutions[-1:]
    kind, label = output
    if kind == "@":
        if label == "*":
            return [solution for solution in solutions if solution.kind is _ATTRIBUTE]
        return kept.get("@" + label, [])
    return [
        Solution(kind=SolutionKind.ELEMENT, node=solution.node)
        for solution in kept.get(label, ())
    ]


def _reindex(predicate: Predicate, index: List[int]) -> Predicate:
    """A plan predicate over the family's atom table."""
    if predicate.__class__ is int:
        return index[predicate]
    if predicate is True:
        return True
    op, operands = predicate
    return op, tuple(_reindex(operand, index) for operand in operands)


class InterestSets(dict):
    """Tag -> interested runtimes; a missing tag is materialised on lookup.

    ``interest_sets.__getitem__`` is what an index offers as ``dispatch``:
    a warm tag costs one C-level dict lookup, with no Python frame, and
    every driver calls it once per start and end tag.
    """

    __slots__ = ("_materialise",)

    def __init__(self, materialise) -> None:
        super().__init__()
        self._materialise = materialise

    def __missing__(self, tag: str):
        interest = self[tag] = self._materialise(tag)
        return interest


class QueryIndex:
    """Prefix-trie registration index with per-tag memoized interest sets.

    Runtimes are kept in registration order and every dispatch list
    preserves that order (runtimes carry a monotone ``seq``), so the
    multi-query engine's output ordering is independent of which dispatch
    class a runtime sits in.  Interest sets are materialised per distinct
    tag from the inverted label index and memoized until the registration
    set changes; documents have few distinct tags relative to their element
    count, so after warm-up a dispatch is one dict probe.
    """

    def __init__(self) -> None:
        self._runtimes: List[QueryRuntime] = []
        self._by_label: Dict[str, List[QueryRuntime]] = {}
        self._wildcard: List[QueryRuntime] = []
        self._dispatch_cache = InterestSets(self._interest)
        #: ``dispatch(tag)`` — the runtimes interested in element events
        #: named ``tag``, in registration order (see :class:`InterestSets`).
        self.dispatch = self._dispatch_cache.__getitem__
        self._text_runtimes: Optional[List[QueryRuntime]] = None
        self._seq = 0
        self._trie_root = _TrieNode()
        self._trie_nodes = 0
        #: Largest interest set ever materialised (``Engine.stats()``).
        self.peak_fanout = 0
        #: Live ancestor tag chain (document element first).  Maintained by
        #: every driver; family runtimes read it at emission time.  The
        #: entry for an element is present from its start-element dispatch
        #: through the end of its end-element dispatch.
        self.context: List[str] = []

    # ------------------------------------------------------------ mutation

    def add(self, runtime: QueryRuntime) -> None:
        """Register a runtime (invalidates the dispatch caches)."""
        runtime.seq = self._seq
        self._seq += 1
        self._runtimes.append(runtime)
        if runtime.wildcard:
            self._wildcard.append(runtime)
        else:
            by_label = self._by_label
            for label in runtime.labels:
                bucket = by_label.get(label)
                if bucket is None:
                    by_label[label] = [runtime]
                else:
                    bucket.append(runtime)
        self.add_path(runtime.trie)
        self._dispatch_cache.clear()
        self._text_runtimes = None

    def remove(self, runtime: QueryRuntime) -> None:
        """Remove a runtime (invalidates the dispatch caches)."""
        self._runtimes.remove(runtime)
        if runtime.wildcard:
            self._wildcard.remove(runtime)
        else:
            by_label = self._by_label
            for label in runtime.labels:
                bucket = by_label.get(label)
                if bucket is not None:
                    bucket.remove(runtime)
                    if not bucket:
                        del by_label[label]
        self.remove_path(runtime.trie)
        self._dispatch_cache.clear()
        self._text_runtimes = None

    def add_path(self, path: TriePath) -> None:
        """Intern one registration path into the prefix trie."""
        node = self._trie_root
        for edge in path:
            child = node.edges.get(edge)
            if child is None:
                child = _TrieNode(node, edge)
                node.edges[edge] = child
                self._trie_nodes += 1
            node = child
        node.refs += 1

    def relabel(self, runtime: _Runtime, labels: FrozenSet[str]) -> None:
        """Re-index ``runtime`` after its machine was rebuilt from one
        matching ``labels`` to one matching ``runtime.labels`` (a family
        anchor widened or narrowed), keeping its place in registration
        order."""
        if not runtime.wildcard:
            by_label = self._by_label
            for label in labels - runtime.labels:
                bucket = by_label[label]
                bucket.remove(runtime)
                if not bucket:
                    del by_label[label]
            for label in runtime.labels - labels:
                bucket = by_label.setdefault(label, [])
                bucket.append(runtime)
                bucket.sort(key=attrgetter("seq"))
        self._dispatch_cache.clear()
        self._text_runtimes = None

    def remove_path(self, path: TriePath) -> None:
        """Release one registration path, pruning now-unused trie nodes."""
        node = self._trie_root
        for edge in path:
            node = node.edges[edge]
        node.refs -= 1
        while node.parent is not None and node.refs == 0 and not node.edges:
            parent = node.parent
            del parent.edges[node.edge]
            self._trie_nodes -= 1
            node = parent

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self._runtimes)

    @property
    def runtimes(self) -> List[QueryRuntime]:
        """All registered runtimes, in registration order."""
        return list(self._runtimes)

    @property
    def trie_node_count(self) -> int:
        """Interned prefix-trie nodes (excluding the root)."""
        return self._trie_nodes

    def _interest(self, tag: str) -> List[QueryRuntime]:
        """Materialise the interest set of ``tag`` (memoized by dispatch)."""
        labelled = self._by_label.get(tag)
        if not self._wildcard:
            interest = list(labelled) if labelled else []
        elif not labelled:
            interest = list(self._wildcard)
        else:
            interest = sorted(labelled + self._wildcard, key=attrgetter("seq"))
        if len(interest) > self.peak_fanout:
            self.peak_fanout = len(interest)
        return interest

    def text_runtimes(self) -> List[QueryRuntime]:
        """Runtimes whose machines accumulate character data."""
        cached = self._text_runtimes
        if cached is None:
            cached = [runtime for runtime in self._runtimes if runtime.needs_text]
            self._text_runtimes = cached
        return cached

    def label_classes(self) -> Dict[str, int]:
        """Label → number of interested runtimes (diagnostics / reports)."""
        counts: Dict[str, int] = {}
        for runtime in self._runtimes:
            for label in runtime.labels:
                counts[label] = counts.get(label, 0) + 1
        return counts

    def describe(self) -> str:
        """Multi-line description of the index (CLI diagnostics)."""
        wildcard = sum(1 for runtime in self._runtimes if runtime.wildcard)
        text = len(self.text_runtimes())
        families = sum(1 for runtime in self._runtimes if runtime.is_family)
        lines = [
            f"QueryIndex: {len(self._runtimes)} machine(s), "
            f"{len(self.label_classes())} distinct label(s), "
            f"{wildcard} wildcard, {text} text-collecting, "
            f"{families} containment-shared famil{'y' if families == 1 else 'ies'}, "
            f"{self._trie_nodes} trie node(s)"
        ]
        for runtime in self._runtimes:
            names = ", ".join(sub.name for sub in runtime.subscribers)
            labels = "*" if runtime.wildcard else ",".join(sorted(runtime.labels))
            if runtime.is_family:
                captures = ", ".join(
                    label + ("" if valued else " (bare)")
                    for label, valued in runtime.captures.items()
                )
                kept = (
                    f" capturing [{captures}{'; @*' if runtime.attributes else ''}]"
                    if runtime.capturing else ""
                )
                lines.append(
                    f"  family {runtime.compiled.tree.source!r} "
                    f"({len(runtime.group_list)} shape(s)){kept} -> [{labels}] "
                    f"subscribers: {names or '-'}"
                )
                for group in runtime.group_list:
                    members = ", ".join(sub.name for sub in group.subscribers)
                    lines.append(
                        f"    member {group.source!r}: {group.plan.describe()}; "
                        f"subscribers: {members or '-'}"
                    )
            else:
                lines.append(
                    f"  {runtime.compiled.tree.source!r} -> [{labels}] "
                    f"subscribers: {names or '-'}"
                )
        return "\n".join(lines)


__all__ = [
    "FamilyRuntime",
    "InterestSets",
    "QueryIndex",
    "QueryRuntime",
    "ResidualGroup",
    "machine_label_profile",
    "trie_path",
]
