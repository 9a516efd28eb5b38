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
  anchor machine (``//c``) for a whole family of linear path queries
  selecting ``c`` (see :mod:`repro.xpath.containment`); each member is a
  pooled :class:`ResidualGroup` record holding the member's residual step
  sequence, its subscribers and its result collector.  The residual check
  runs once per (family, ancestor chain) thanks to a chain-keyed memo.

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
from typing import Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

from ..errors import StreamStateError
from ..xpath.ast import Axis, NodeKind, QueryTree
from ..xpath.containment import ResidualStep, path_matches
from .builder import CompiledQuery
from .machine import TwigMachine
from .results import MemberCollector, Match, ResultCollector, ResultSet, Solution
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

    A pooled record: every subscriber of this shape shares the single steps
    tuple, collector and membership list — the per-subscription cost of the
    million-subscription axis is the :class:`~repro.core.multi.Subscription`
    handle plus one list slot here.  The collector is a
    :class:`~repro.core.results.MemberCollector`: the anchor has already
    deduplicated every solution, so the group keeps one reference per match.
    """

    __slots__ = ("compiled", "steps", "trie", "subscribers", "collector")

    def __init__(
        self, compiled: CompiledQuery, steps: Tuple[ResidualStep, ...], trie: TriePath
    ) -> None:
        self.compiled = compiled
        self.steps = steps
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


class FamilyRuntime(_Runtime):
    """One anchor machine serving a containment-shared refinement family.

    The machine evaluates the single-step anchor (``//c`` / ``//*``); every
    member query's remaining constraint is a residual ancestor-path check
    (:func:`repro.xpath.containment.path_matches`) evaluated at emission
    time against the index's live ancestor chain.  Residual verdicts are
    memoized per distinct chain.

    Emission-time resolution is decoupled from delivery because the fused
    pure scan buffers deliveries until after the scan, when the chain is
    gone: :meth:`resolve` stamps each emission batch (matched groups +
    collector updates) into a FIFO while the chain is live, and
    :meth:`deliver` drains one stamped batch per call.  Drivers that deliver
    immediately never call :meth:`resolve`; :meth:`deliver` resolves lazily
    from the still-live chain.
    """

    is_family = True

    __slots__ = (
        "anchor_label",
        "groups",
        "group_list",
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
    ) -> None:
        self.anchor_label = anchor_label
        self.groups: Dict[str, ResidualGroup] = {}
        self.group_list: List[ResidualGroup] = []
        self._context = context
        self._pending: deque = deque()
        self._match_cache: Dict[Tuple[str, ...], List[ResidualGroup]] = {}
        super().__init__(compiled, collect_statistics)

    @property
    def subscribers(self) -> List["Subscription"]:
        """Every subscriber across all member groups (diagnostics)."""
        return [
            subscription
            for group in self.group_list
            for subscription in group.subscribers
        ]

    # ------------------------------------------------------------ membership

    def add_group(
        self, compiled: CompiledQuery, steps: Tuple[ResidualStep, ...], trie: TriePath
    ) -> ResidualGroup:
        """Create (and register) the group for a new member query shape."""
        group = ResidualGroup(compiled, steps, trie)
        self.groups[compiled.fingerprint] = group
        self.group_list.append(group)
        self._match_cache.clear()
        return group

    def remove_group(self, group: ResidualGroup) -> None:
        """Drop an empty member group."""
        del self.groups[group.fingerprint]
        self.group_list.remove(group)
        self._match_cache.clear()

    # ------------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Reset the anchor machine and every member collector, and drop
        the emission batches a bailed scan left undelivered."""
        for group in self.group_list:
            group.collector = MemberCollector()
        self._pending.clear()
        super().reset()

    # ------------------------------------------------------------ emission

    def resolve(self, solutions: List[Solution]) -> None:
        """Stamp one emission batch while the ancestor chain is live.

        Evaluates each member group's residual path against the chain of
        the element being closed (memoized per distinct chain), records the
        solutions into the matched groups' collectors — *unconditionally*,
        so paused subscribers keep complete pull-style results, matching
        the private-machine pause semantics — and queues the matched set
        for the paired :meth:`deliver` call.
        """
        chain = tuple(self._context)
        matched = self._match_cache.get(chain)
        if matched is None:
            matched = [
                group
                for group in self.group_list
                if path_matches(group.steps, chain)
            ]
            self._match_cache[chain] = matched
        if matched:
            for group in matched:
                add = group.collector.add
                for solution in solutions:
                    add(solution)
        self._pending.append(matched)

    def deliver(self, solutions: List[Solution], emitted=None) -> None:
        """Fan one emission batch out to the matched groups' subscribers.

        Each call pairs with the oldest stamped batch (drivers buffer and
        deliver in FIFO order); when no batch is pending the driver is
        delivering immediately after emission, so the chain is still live
        and the batch is resolved on the spot.
        """
        if not self._pending:
            self.resolve(solutions)
        _fan_out(self._pending.popleft(), solutions, emitted)


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
                lines.append(
                    f"  family {runtime.compiled.tree.source!r} "
                    f"({len(runtime.group_list)} shape(s)) -> [{labels}] "
                    f"subscribers: {names or '-'}"
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
