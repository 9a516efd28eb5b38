"""Conservative containment analysis over normalized query twigs.

The multi-query engine's fingerprint dedup (PR 2) only collapses
*structurally identical* queries.  This module provides the analysis behind
the next sharing level, **containment sharing**: a family of queries whose
main paths end at (or just below) the same *anchor* label — ``//a//c``,
``/r/a//c``, ``//c[p>5]/@id`` — can be served by one shared anchor machine
for ``//<anchor label>`` plus a cheap per-member *residual* check at each
emitted anchor: its ancestor tag chain against the path, and the anchor's
predicate against what the anchor kept of its start tag and children.

Everything here is deliberately conservative.  :func:`residual_plan` returns
a plan only for queries where the rewrite is *provably* answer-preserving:

* every main-path step is an element test on the ``child`` or
  ``descendant`` axis (wildcards allowed), with no value test;
* at most one step carries a predicate, and that step is the *anchor*
  (with none, the anchor is the last element step);
* a predicated anchor is a named step, and its predicate is ``and`` /
  ``or`` / ``not`` over ``[c]``, ``[c op literal]``, ``[@a]`` and
  ``[@a op literal]``, where ``c`` is one named child step with no
  predicate of its own and ``a`` a named attribute;
* the output is the anchor element, its attribute (``@a`` or ``@*``), or
  one named, predicate-free child step below a predicated anchor;
* a single predicate-free step selecting itself is its own anchor, which
  fingerprint dedup already shares, so it gets no plan.

Any query outside this fragment — predicates on other steps or with longer
paths, ``.`` tests, ``text()`` output, deeper outputs — falls back to a
private machine (:func:`sharing_refusal` names the reason), so unknown cases
can never produce wrong answers.  The residual path check
(:func:`path_matches`) is an exact anchored path-automaton match, not an
approximation: an anchor matches the query's path iff its ancestor tag
chain (root → anchor, inclusive) satisfies the step sequence.

:func:`query_contains` exposes the same machinery as a conservative
pairwise containment test (``True`` means provably contained; ``False``
means "not provably contained", not "disjoint").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ast import (
    Axis,
    ChildAtom,
    Formula,
    FormulaAnd,
    FormulaNot,
    FormulaOr,
    FormulaTrue,
    NodeKind,
    QueryNode,
    QueryTree,
    ValueTest,
)
from .normalize import compile_query

#: One residual step: ``(label, is_descendant)``.  ``label`` may be ``"*"``.
ResidualStep = Tuple[str, bool]

#: One atom of an anchor predicate: ``("/", label, test)`` for a ``label``
#: child of the anchor, ``("@", name, test)`` for its attribute; ``test`` is
#: the :class:`~repro.xpath.ast.ValueTest` of ``[c op literal]`` /
#: ``[@a op literal]``, or ``None`` for an existence test.
PredicateAtom = Tuple[str, str, Optional[ValueTest]]

#: An anchor predicate over a plan's atoms: an atom's index, ``True``
#: (``[.]``), or ``("and" | "or", operands)`` / ``("not", (operand,))``.
Predicate = Union[int, bool, Tuple[str, tuple]]

#: Anchor label used for wildcard-output families (``//*`` anchor machine).
WILDCARD_LABEL = "*"

__all__ = [
    "Predicate",
    "PredicateAtom",
    "ResidualPlan",
    "main_path_steps",
    "path_matches",
    "query_contains",
    "residual_plan",
    "sharing_refusal",
]


class ResidualPlan:
    """The containment-sharing rewrite of one eligible query.

    ``anchor_source`` is the single-step anchor query (``//c`` or ``//*``)
    whose machine the family shares; ``steps`` is the main path down to and
    including the anchor, checked against each emitted anchor's ancestor
    tag chain.  ``atoms`` and ``predicate`` are the anchor's predicate (see
    :data:`PredicateAtom` / :data:`Predicate`; ``None`` without one), and
    ``output`` what the query selects of a matching anchor: ``None`` for the
    anchor element itself, ``("@", name)`` for its attribute (``name`` may be
    ``*``) or ``("/", label)`` for its ``label`` children.
    """

    __slots__ = (
        "steps",
        "anchor_label",
        "anchor_source",
        "atoms",
        "predicate",
        "output",
    )

    def __init__(
        self,
        steps: Tuple[ResidualStep, ...],
        anchor_label: str,
        atoms: Tuple[PredicateAtom, ...] = (),
        predicate: Optional[Predicate] = None,
        output: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.steps = steps
        self.anchor_label = anchor_label
        self.anchor_source = f"//{anchor_label}"
        self.atoms = atoms
        self.predicate = predicate
        self.output = output

    @property
    def captures(self) -> Dict[str, bool]:
        """Child labels the family's anchor must capture, each mapped to
        whether a value test needs its string value."""
        labels: Dict[str, bool] = {}
        if self.output is not None and self.output[0] == "/":
            labels[self.output[1]] = False
        for kind, label, test in self.atoms:
            if kind == "/":
                labels[label] = labels.get(label, False) or test is not None
        return labels

    @property
    def attributes(self) -> bool:
        """True when the anchor's attributes decide or make the answer."""
        return any(kind == "@" for kind, _, _ in self.atoms) or (
            self.output is not None and self.output[0] == "@"
        )

    def describe(self) -> str:
        """One line: anchor, residual path, anchor predicate and output."""
        residual = "".join(
            ("//" if descendant else "/") + label for label, descendant in self.steps
        )
        parts = [f"anchor {self.anchor_source}", f"residual {residual}"]
        if self.predicate is not None:
            parts.append(f"predicate [{_render(self.predicate, self.atoms)}]")
        if self.output is None:
            parts.append("output the anchor")
        elif self.output[0] == "@":
            parts.append(f"output @{self.output[1]}")
        else:
            parts.append(f"output child {self.output[1]}")
        return ", ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResidualPlan {self.describe()}>"


def main_path_steps(tree: QueryTree) -> Optional[Tuple[ResidualStep, ...]]:
    """The main path of ``tree`` as ``(label, is_descendant)`` steps.

    Returns ``None`` when the query is outside the shareable fragment: any
    predicate subtree, value test, non-element step, or an axis other than
    ``child``/``descendant`` anywhere on the main path.  The first step's
    flag is relative to the virtual document root (``/a`` means "``a`` is
    the document element"; ``//a`` means "``a`` at any depth").
    """
    steps: List[ResidualStep] = []
    node = tree.root
    while node is not None:
        if node.kind is not NodeKind.ELEMENT:
            return None
        if node.axis not in (Axis.CHILD, Axis.DESCENDANT):
            return None
        if node.predicate_children:
            return None
        if not isinstance(node.formula, FormulaTrue):
            return None
        if node.value_test is not None:
            return None
        steps.append((node.label, node.axis is Axis.DESCENDANT))
        node = node.main_child
    if not steps:
        return None
    return tuple(steps)


def residual_plan(query: Union[str, QueryTree]) -> Optional[ResidualPlan]:
    """Return the containment-sharing plan for ``query``, or ``None``.

    ``None`` means the query must keep a private (or fingerprint-shared)
    machine; :func:`sharing_refusal` says why.  A single predicate-free step
    selecting itself also returns ``None``: its anchor would be the query
    itself, and fingerprint dedup already shares those exactly.
    """
    plan = _plan(compile_query(query) if isinstance(query, str) else query)
    return plan if isinstance(plan, ResidualPlan) else None


def sharing_refusal(query: Union[str, QueryTree]) -> Optional[str]:
    """Why :func:`residual_plan` refuses ``query`` (``None`` if it plans it)."""
    plan = _plan(compile_query(query) if isinstance(query, str) else query)
    return None if isinstance(plan, ResidualPlan) else plan


def _plan(tree: QueryTree) -> Union[ResidualPlan, str]:
    """The plan of ``tree``, or the reason it has none."""
    steps: List[ResidualStep] = []
    anchor: Optional[int] = None
    atoms: Tuple[PredicateAtom, ...] = ()
    predicate: Optional[Predicate] = None
    output: Optional[Tuple[str, str]] = None
    node: Optional[QueryNode] = tree.root
    while node is not None:
        if node.kind is NodeKind.ATTRIBUTE:
            if node.value_test is not None:
                return "the attribute output carries a value test"
            output = ("@", node.label)
            break
        if node.kind is not NodeKind.ELEMENT:
            return "text() output"
        if node.axis not in (Axis.CHILD, Axis.DESCENDANT):
            return f"{node.axis.value} axis"
        if node.value_test is not None:
            return "a value test on a main-path step"
        if node.predicate_children or not isinstance(node.formula, FormulaTrue):
            if anchor is not None:
                return "more than one step carries a predicate"
            if node.is_wildcard:
                return "a predicate on a wildcard step"
            compiled = _anchor_predicate(node)
            if isinstance(compiled, str):
                return compiled
            anchor = len(steps)
            atoms, predicate = compiled
        steps.append((node.label, node.axis is Axis.DESCENDANT))
        node = node.main_child
    if anchor is None:
        if output is None and len(steps) < 2:
            return "a single step is its own anchor; fingerprint dedup shares it"
        anchor = len(steps) - 1
    below = steps[anchor + 1:]
    if below:
        label, descendant = below[0]
        if len(below) > 1 or output is not None:
            return "the output is more than one step below the predicated step"
        if descendant:
            return "the output is a descendant, not a child, of the predicated step"
        if label == WILDCARD_LABEL:
            return "the output below the predicated step is a wildcard"
        output = ("/", label)
    return ResidualPlan(
        tuple(steps[:anchor + 1]), steps[anchor][0], atoms, predicate, output
    )


def _anchor_predicate(
    node: QueryNode,
) -> Union[Tuple[Tuple[PredicateAtom, ...], Predicate], str]:
    """The anchor's predicate as ``(atoms, predicate)``, or why it is out
    of the fragment: every atom must test one named child element (with no
    predicate of its own) or one named attribute."""
    atoms: List[PredicateAtom] = []
    index: Dict[int, int] = {}
    for child in node.predicate_children:
        if child.kind is NodeKind.ELEMENT:
            if child.axis is not Axis.CHILD:
                return "a predicate path that is not one child step"
            if child.predicate_children or not isinstance(child.formula, FormulaTrue):
                return "a predicate path longer than one step"
            kind = "/"
        else:
            kind = "@"
        if child.is_wildcard:
            return "a wildcard in a predicate"
        atom = (kind, child.label, child.value_test)
        if atom not in atoms:
            atoms.append(atom)
        index[child.node_id] = atoms.index(atom)

    def convert(formula: Formula) -> Optional[Predicate]:
        if isinstance(formula, ChildAtom):
            return index[formula.node_id]
        if isinstance(formula, FormulaTrue):
            return True
        if isinstance(formula, FormulaNot):
            operand = convert(formula.operand)
            return None if operand is None else ("not", (operand,))
        if isinstance(formula, (FormulaAnd, FormulaOr)):
            operands = tuple(convert(operand) for operand in formula.operands)
            if any(operand is None for operand in operands):
                return None
            return ("and" if isinstance(formula, FormulaAnd) else "or", operands)
        return None  # a test on the anchor's own string value

    predicate = convert(node.formula)
    if predicate is None:
        return "a predicate on the step's own string value"
    return tuple(atoms), predicate


def _render(predicate: Predicate, atoms: Sequence[PredicateAtom]) -> str:
    """XPath-like text of a plan predicate."""
    if predicate is True:
        return "."
    if isinstance(predicate, int):
        kind, label, test = atoms[predicate]
        text = ("@" if kind == "@" else "") + label
        return text if test is None else f"{text} {test}"
    op, operands = predicate
    if op == "not":
        return f"not({_render(operands[0], atoms)})"
    return f" {op} ".join(
        f"({_render(operand, atoms)})"
        if isinstance(operand, tuple) and operand[0] != "not"
        else _render(operand, atoms)
        for operand in operands
    )


def path_matches(steps: Sequence[ResidualStep], chain: Sequence[str]) -> bool:
    """Exact anchored match of a step sequence against an ancestor chain.

    ``chain`` is the tag sequence from the document element down to (and
    including) the candidate output element; the last step must land exactly
    on the last chain entry.  The match is the standard reachable-positions
    scan of a linear path automaton: O(steps x chain) worst case, with the
    usual descendant-axis shortcut (a descendant step only needs the
    *earliest* reachable start position).
    """
    length = len(chain)
    if length == 0:
        return False
    reachable = [True] + [False] * length
    for label, descendant in steps:
        wildcard = label == WILDCARD_LABEL
        if descendant:
            # Earliest reachable position dominates: from it, the step can
            # land on any deeper matching tag.
            earliest = -1
            for position in range(length + 1):
                if reachable[position]:
                    earliest = position
                    break
            reachable = [False] * (length + 1)
            if earliest < 0:
                return False
            for target in range(earliest + 1, length + 1):
                if wildcard or chain[target - 1] == label:
                    reachable[target] = True
        else:
            advanced = [False] * (length + 1)
            for position in range(length):
                if reachable[position] and (
                    wildcard or chain[position] == label
                ):
                    advanced[position + 1] = True
            reachable = advanced
    return reachable[length]


def query_contains(
    general: Union[str, QueryTree], specific: Union[str, QueryTree]
) -> bool:
    """Conservative test: does ``general`` contain every ``specific`` answer?

    ``True`` is a proof (on every document, every element selected by
    ``specific`` is also selected by ``general``); ``False`` only means the
    proof did not go through.  The test covers the fragment the sharing
    planner uses: ``general`` must be a predicate-free linear path; the
    *main path* of ``specific`` is compared after stripping its predicates
    (predicates only ever narrow the answer, so stripping is sound on the
    specific side), and both must select their final main-path element.
    """
    general_tree = compile_query(general) if isinstance(general, str) else general
    specific_tree = compile_query(specific) if isinstance(specific, str) else specific
    general_steps = main_path_steps(general_tree)
    if general_steps is None:
        return False
    for tree in (general_tree, specific_tree):
        output = tree.output_node
        if not output.is_output or output.kind is not NodeKind.ELEMENT:
            return False
        if output.main_child is not None:
            return False
    specific_steps = _stripped_main_path(specific_tree)
    if specific_steps is None:
        return False
    return _steps_subsume(general_steps, specific_steps)


def _stripped_main_path(tree: QueryTree) -> Optional[Tuple[ResidualStep, ...]]:
    """Main-path steps of ``tree`` ignoring predicates and value tests."""
    steps: List[ResidualStep] = []
    node = tree.root
    while node is not None:
        if node.kind is not NodeKind.ELEMENT:
            return None
        if node.axis not in (Axis.CHILD, Axis.DESCENDANT):
            return None
        steps.append((node.label, node.axis is Axis.DESCENDANT))
        node = node.main_child
    return tuple(steps) if steps else None


def _steps_subsume(
    general: Tuple[ResidualStep, ...], specific: Tuple[ResidualStep, ...]
) -> bool:
    """Homomorphism check: can ``general`` be embedded into ``specific``?

    Maps general steps onto specific steps in order, wildcards matching any
    label, a child-axis general step requiring adjacency, the first general
    step anchored the same way at the root, and the last steps aligned (both
    select the output).  A homomorphism proves containment for linear paths;
    its absence proves nothing — which is exactly the conservative contract.
    """
    placements = _initial_placements(general[0], specific)
    for label, descendant in general[1:]:
        wildcard = label == WILDCARD_LABEL
        next_placements = set()
        for position in placements:
            if descendant:
                # A ``//`` edge needs the target strictly below the source,
                # which any forward mapping guarantees (every specific edge
                # descends at least one level).
                for target in range(position + 1, len(specific)):
                    if wildcard or specific[target][0] == label:
                        next_placements.add(target)
            else:
                # A ``/`` edge needs a guaranteed parent-child link: only
                # the adjacent specific step, and only when that specific
                # edge is itself the child axis.
                target = position + 1
                if (
                    target < len(specific)
                    and not specific[target][1]
                    and (wildcard or specific[target][0] == label)
                ):
                    next_placements.add(target)
        placements = next_placements
        if not placements:
            return False
    return (len(specific) - 1) in placements


def _initial_placements(
    first: ResidualStep, specific: Tuple[ResidualStep, ...]
) -> set:
    """Positions in ``specific`` the first general step can map onto."""
    label, descendant = first
    wildcard = label == WILDCARD_LABEL
    placements = set()
    if descendant:
        # ``//label`` matches at any depth, but only along an all-descendant
        # reachable frontier is every specific answer guaranteed below it:
        # the specific path must reach position p from the root regardless
        # of document shape, which holds for any position (the specific
        # path's own steps pin the chain).  Mapping onto any position is
        # sound because the mapped specific step's element *is* on every
        # specific answer's chain.
        for target in range(len(specific)):
            if wildcard or specific[target][0] == label:
                placements.add(target)
    else:
        # ``/label``: the general root step must be the document element,
        # which only the specific root step is guaranteed to be — and only
        # when the specific path also starts with a child step.
        if not specific[0][1] and (wildcard or specific[0][0] == label):
            placements.add(0)
    return placements
