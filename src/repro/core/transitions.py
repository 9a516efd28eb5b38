"""TwigM transition functions: how the machine reacts to streaming events.

This module is the direct translation of Section 3.2 of the paper:

* **startElement(tag, level)** — for every machine node whose name matches the
  tag and whose incoming axis is satisfied by the current level, push a new
  stack entry recording the XML node.
* **endElement(tag, level)** — for every machine node whose top-of-stack entry
  is at this level, pop the entry; if its predicate formula is satisfied,
  *bookkeep* its match status and candidate solutions onto the entries of the
  parent machine node (or emit the candidates when the node is the machine
  root).  Matches whose predicates failed are simply discarded, which is how
  ViteX prunes the exponential match space without ever enumerating it.
* **characters(text, level)** — appended to the accumulators of entries that
  need text (value tests and ``text()`` output), and ignored everywhere else.

All functions mutate the machine's stacks in place.  Two hot-path choices
shape the signatures:

* The functions take *scalars* (``name``, ``level``, ...) instead of event
  objects: their one caller, :class:`~repro.core.kernel.Kernel`, is driven
  by event records and frames as well as straight from regex groups or
  expat callbacks (:mod:`repro.core.fastpath`), with no event object per
  tag.
* ``statistics`` may be ``None``: transition dispatch runs millions of times
  per document, so the counters the benchmarks rely on are optional behind a
  cheap no-op mode (``Engine(collect_statistics=False)``); when a
  statistics object is supplied the counters are maintained exactly as
  before.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import StreamStateError
from ..xpath.ast import Axis, QueryNode, evaluate_formula
from .machine import MachineNode, TwigMachine
from .results import NodeRef, ResultCollector, Solution, SolutionKind
from .stack import StackEntry, acquire_entry, release_entry
from .statistics import EngineStatistics

_DESCENDANT = Axis.DESCENDANT
_CHILD = Axis.CHILD


def process_start_element(
    machine: TwigMachine,
    name: str,
    level: int,
    attributes: tuple,
    line: Optional[int],
    order: int,
    statistics: Optional[EngineStatistics],
) -> None:
    """Handle a start-element event: push entries onto matching machine nodes."""
    if statistics is not None:
        statistics.elements += 1
        statistics.attributes += len(attributes)
        if level > statistics.max_depth:
            statistics.max_depth = level
    # Inlined machine.nodes_matching: one dict probe on the hot path.
    matching = machine._match_cache.get(name)
    if matching is None:
        matching = machine.nodes_matching(name)
    if not matching:
        return
    node_ref: Optional[NodeRef] = None
    pushed = False
    for machine_node in matching:
        # Incoming-axis check; the MachineStack.has_open_* tests, inlined.
        parent = machine_node.parent
        if parent is None:
            if machine_node.axis is not _DESCENDANT and level != 1:
                continue
        else:
            parent_entries = parent.stack.entries
            if machine_node.axis is _CHILD:
                # Inlined has_open_at_level(level - 1): levels increase
                # towards the top, so a short reverse scan decides.
                target = level - 1
                open_at = False
                for open_entry in reversed(parent_entries):
                    entry_level = open_entry.level
                    if entry_level == target:
                        open_at = True
                        break
                    if entry_level < target:
                        break
                if not open_at:
                    continue
            # Inlined has_open_below(level): the bottom entry is the
            # shallowest, so it alone decides the descendant-axis check.
            elif not parent_entries or parent_entries[0].level >= level:
                continue
        if node_ref is None:
            node_ref = NodeRef(order=order, tag=name, level=level, line=line)
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
        # Inlined MachineStack.push, keeping its level-monotonicity invariant.
        stack_entries = machine_node.stack.entries
        if stack_entries and level <= stack_entries[-1].level:
            raise StreamStateError(
                f"stack push at level {level} would not increase the "
                f"current top level {stack_entries[-1].level}"
            )
        stack_entries.append(entry)
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


def _resolve_attributes(
    machine_node: MachineNode,
    entry: StackEntry,
    attributes: tuple,
    statistics: Optional[EngineStatistics],
) -> None:
    """Resolve attribute predicates and attribute output at push time.

    Attributes arrive with the start tag, so — unlike element predicates —
    their satisfaction is known immediately and can be recorded on the fresh
    entry without any deferred bookkeeping.
    """
    for predicate in machine_node.attribute_predicates:
        if _attribute_satisfies(predicate, attributes):
            entry.satisfied.add(predicate.node_id)
            if statistics is not None:
                statistics.flags_set += 1
    output = machine_node.attribute_output
    if output is not None:
        for name, value in attributes:
            if output.label != "*" and output.label != name:
                continue
            if output.value_test is not None and not output.value_test.evaluate(value):
                continue
            entry.add_candidate(
                Solution(
                    kind=SolutionKind.ATTRIBUTE,
                    node=entry.element,
                    attribute=name,
                    value=value,
                )
            )
            if statistics is not None:
                statistics.candidates_created += 1


def _attribute_satisfies(predicate: QueryNode, attributes) -> bool:
    """True when an attribute predicate node is satisfied by the attribute list."""
    for name, value in attributes:
        if predicate.label != "*" and predicate.label != name:
            continue
        if predicate.value_test is None or predicate.value_test.evaluate(value):
            return True
    return False


def process_characters(
    machine: TwigMachine,
    text: str,
    level: int,
    statistics: Optional[EngineStatistics],
) -> None:
    """Handle character data: feed the accumulators of text-collecting entries."""
    if statistics is not None:
        statistics.text_chunks += 1
    text_nodes = machine.text_nodes
    if not text_nodes:
        return
    for machine_node in text_nodes:
        for entry in machine_node.stack.entries:
            if entry.string_parts is not None:
                entry.string_parts.append(text)
            if entry.direct_parts is not None and level == entry.level:
                entry.direct_parts.append(text)


def process_end_element(
    machine: TwigMachine,
    name: str,
    level: int,
    statistics: Optional[EngineStatistics],
    collector: ResultCollector,
    fragments: Optional[Dict[int, str]] = None,
    eager_emission: bool = False,
) -> List[Solution]:
    """Handle an end-element event: pop, check predicates, bookkeep, emit.

    Returns the solutions that became *newly* known with this event (already
    deduplicated against everything emitted earlier), which is what the
    incremental streaming API yields to callers.

    With ``eager_emission`` enabled, candidates that are satisfied at a
    main-path node all of whose ancestors are unconditional (no predicates,
    no value tests) are emitted immediately instead of being bookkept up to
    the machine root — an optimisation that lowers result latency and peak
    candidate counts without changing the answer set.
    """
    new_solutions: List[Solution] = []
    # Inlined machine.nodes_matching_postorder: one dict probe on the hot path.
    matching = machine._match_cache_postorder.get(name)
    if matching is None:
        matching = machine.nodes_matching_postorder(name)
    if not matching:
        return new_solutions
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

        # is_unconditional is precomputed by the builder: a trivially-true
        # formula plus no value test means every pushed entry satisfies, so
        # the formula evaluation can be skipped entirely.
        if not machine_node.is_unconditional and not _entry_satisfied(
            machine_node, entry
        ):
            # The match fails its predicates: the entire set of pattern
            # matches that flow through it is pruned here, without ever
            # having been enumerated.
            release_entry(entry)
            continue

        if machine_node.is_output or machine_node.text_output is not None:
            _add_own_candidates(machine_node, entry, statistics, fragments)

        emit_here = machine_node.parent is None or (
            eager_emission
            and not machine_node.is_predicate_branch
            and machine_node.ancestors_unconditional
        )
        if emit_here:
            if statistics is not None:
                statistics.solutions_emitted += len(entry.candidates)
            for solution in entry.candidates.values():
                if collector.add(solution):
                    if statistics is not None:
                        statistics.solutions_distinct += 1
                    new_solutions.append(solution)
            release_entry(entry)
            continue

        # Inlined MachineStack.entries_for_axis.
        parent_entries = machine_node.parent.stack.entries
        if machine_node.axis is _DESCENDANT:
            targets = [t for t in parent_entries if t.level < level]
        else:
            parent_level = level - 1
            targets = [t for t in parent_entries if t.level == parent_level]
        if machine_node.is_predicate_branch:
            if machine_node.is_capture:
                # A family anchor's capture child: the parent entries keep
                # the element and its string value (when collected), as a
                # text candidate, for the family's check at emission.
                parts = entry.string_parts
                capture = Solution(
                    kind=SolutionKind.TEXT,
                    node=entry.element,
                    value=None if parts is None else "".join(parts),
                )
                key = capture.key()
                for target in targets:
                    target.candidates[key] = capture
                if statistics is not None:
                    statistics.candidates_created += 1
                    statistics.live_candidates += len(targets)
            else:
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
        # The popped entry's candidates were shared by reference above;
        # the entry itself is now unreachable and can be recycled.
        release_entry(entry)
    if popped and statistics is not None:
        # Inlined observe_state: pops can only shrink the live counters, but
        # candidate propagation above can grow live_candidates.
        live_candidates = statistics.live_candidates
        if live_candidates > statistics.peak_candidate_count:
            statistics.peak_candidate_count = live_candidates
    return new_solutions


def _entry_satisfied(machine_node: MachineNode, entry: StackEntry) -> bool:
    """Evaluate the query node's predicate formula and value test for an entry."""
    query_node = machine_node.query_node
    parts = entry.string_parts
    string_value = "".join(parts) if parts is not None else None
    if query_node.value_test is not None and not query_node.value_test.evaluate(string_value):
        return False
    return evaluate_formula(query_node.formula, entry.satisfied, string_value)


def _add_own_candidates(
    machine_node: MachineNode,
    entry: StackEntry,
    statistics: Optional[EngineStatistics],
    fragments: Optional[Dict[int, str]],
) -> None:
    """Attach the candidates contributed by this entry itself (element / text output)."""
    # Note: candidates added here live on an entry that has already been
    # popped, so they are never counted in ``live_candidates`` (which tracks
    # candidates held on live stack entries only).
    if machine_node.is_output:
        fragment = fragments.get(entry.element.order) if fragments else None
        before = entry.candidate_count
        entry.add_candidate(
            Solution(kind=SolutionKind.ELEMENT, node=entry.element, fragment=fragment)
        )
        if entry.candidate_count > before and statistics is not None:
            statistics.candidates_created += 1
    text_output = machine_node.text_output
    if text_output is not None:
        text = entry.direct_text() or ""
        if text:
            before = entry.candidate_count
            entry.add_candidate(
                Solution(kind=SolutionKind.TEXT, node=entry.element, value=text)
            )
            if entry.candidate_count > before and statistics is not None:
                statistics.candidates_created += 1
