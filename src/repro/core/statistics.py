"""Run-time counters of a TwigM evaluation.

The paper's two headline quantitative claims — flat ~1 MB memory over a 75 MB
document and polynomial running time — are reproduced by instrumenting the
engine with these counters.  ``peak_stack_entries`` and
``peak_candidate_count`` together bound the engine state, and the push/pop
and propagation counters make the time complexity measurable independently of
wall-clock noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(slots=True)
class EngineStatistics:
    """The counters of the work the kernel dispatched to one machine (a
    subscription runtime's); the stream counters see dispatched tags only."""

    #: Number of event records dispatched (fused sources count none).
    events: int = 0
    #: Number of start-element events consumed.
    elements: int = 0
    #: Number of attribute occurrences inspected.
    attributes: int = 0
    #: Number of text chunks consumed.
    text_chunks: int = 0
    #: Stack pushes performed across all machine nodes.
    pushes: int = 0
    #: Stack pops performed across all machine nodes.
    pops: int = 0
    #: Predicate-satisfaction flags set on parent entries.
    flags_set: int = 0
    #: Candidate solutions created (at output-node matches).
    candidates_created: int = 0
    #: Candidate solutions copied upwards during bookkeeping.
    candidates_propagated: int = 0
    #: Solutions emitted (before deduplication).
    solutions_emitted: int = 0
    #: Distinct solutions after deduplication.
    solutions_distinct: int = 0
    #: Largest total number of live stack entries observed at any point.
    peak_stack_entries: int = 0
    #: Largest total number of live candidates observed at any point.
    peak_candidate_count: int = 0
    #: Maximum document depth observed.
    max_depth: int = 0
    #: Pushes per machine node label (diagnostic).
    pushes_by_node: Dict[str, int] = field(default_factory=dict)
    #: Currently live stack entries (maintained incrementally by transitions).
    live_entries: int = 0
    #: Currently live candidate solutions (maintained incrementally).
    live_candidates: int = 0

    def record_push(self, label: str) -> None:
        """Count a stack push for the machine node with the given label."""
        self.pushes += 1
        self.pushes_by_node[label] = self.pushes_by_node.get(label, 0) + 1

    def observe_state(self, live_entries: int, live_candidates: int) -> None:
        """Track peak engine state after a transition."""
        if live_entries > self.peak_stack_entries:
            self.peak_stack_entries = live_entries
        if live_candidates > self.peak_candidate_count:
            self.peak_candidate_count = live_candidates

    def as_dict(self) -> Dict[str, int]:
        """Flat dict of the scalar counters (for report tables)."""
        return {
            "events": self.events,
            "elements": self.elements,
            "attributes": self.attributes,
            "text_chunks": self.text_chunks,
            "pushes": self.pushes,
            "pops": self.pops,
            "flags_set": self.flags_set,
            "candidates_created": self.candidates_created,
            "candidates_propagated": self.candidates_propagated,
            "solutions_emitted": self.solutions_emitted,
            "solutions_distinct": self.solutions_distinct,
            "peak_stack_entries": self.peak_stack_entries,
            "peak_candidate_count": self.peak_candidate_count,
            "max_depth": self.max_depth,
        }

    def work_units(self) -> int:
        """A machine-independent proxy for running time.

        The sum of pushes, pops, flag updates and candidate copies tracks the
        paper's ``O(|D|·|Q|·(|Q|+B))`` bound: each term counts one unit of
        work the complexity analysis charges for.
        """
        return (
            self.pushes
            + self.pops
            + self.flags_set
            + self.candidates_created
            + self.candidates_propagated
        )
