"""Abstract syntax tree for the supported XPath fragment.

The parser produces this surface AST; the normalizer
(:mod:`repro.xpath.normalize`) then turns it into the query twig
(:class:`QueryTree`) that the TwigM builder consumes.  Keeping both layers
separate mirrors the paper's architecture (XPath parser → TwigM builder) and
keeps parsing concerns (operator precedence, abbreviations) away from the
evaluation model.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import List, Optional, Sequence, Tuple, Union


@unique
class Axis(Enum):
    """Navigation axes in the supported fragment."""

    CHILD = "child"
    DESCENDANT = "descendant"
    ATTRIBUTE = "attribute"
    SELF = "self"

    def symbol(self) -> str:
        """Return the abbreviated XPath syntax for this axis."""
        if self is Axis.CHILD:
            return "/"
        if self is Axis.DESCENDANT:
            return "//"
        if self is Axis.ATTRIBUTE:
            return "/@"
        return "."


# --------------------------------------------------------------------------
# Node tests
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NameTest:
    """Match elements (or attributes) with a specific name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class WildcardTest:
    """Match any element (``*``) or any attribute (``@*``)."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class TextTest:
    """Match text content (``text()``)."""

    def __str__(self) -> str:
        return "text()"


NodeTest = Union[NameTest, WildcardTest, TextTest]


# --------------------------------------------------------------------------
# Predicate expressions
# --------------------------------------------------------------------------


@unique
class ComparisonOp(Enum):
    """Comparison operators usable in value tests."""

    EQ = "="
    NEQ = "!="
    LT = "<"
    LTE = "<="
    GT = ">"
    GTE = ">="


@dataclass(frozen=True)
class Literal:
    """A string or numeric literal appearing on the right of a comparison."""

    value: Union[str, float]

    @property
    def is_numeric(self) -> bool:
        """True when the literal was written as a number."""
        return isinstance(self.value, float)

    def __str__(self) -> str:
        if self.is_numeric:
            number = self.value
            if float(number).is_integer():
                return str(int(number))
            return str(number)
        return f"'{self.value}'"


@dataclass(frozen=True)
class PathExpr:
    """A relative path used inside a predicate, e.g. ``author`` or ``.//table/@id``.

    ``steps`` uses the same :class:`Step` type as the main location path.  An
    empty ``steps`` list denotes the context node itself (``.``).
    """

    steps: Tuple["Step", ...] = ()

    def __str__(self) -> str:
        if not self.steps:
            return "."
        return format_steps(self.steps, leading=False)


@dataclass(frozen=True)
class Comparison:
    """A value test: ``path op literal``."""

    path: PathExpr
    op: ComparisonOp
    literal: Literal

    def __str__(self) -> str:
        return f"{self.path} {self.op.value} {self.literal}"


@dataclass(frozen=True)
class Exists:
    """An existence test: the predicate is true when the path has a match."""

    path: PathExpr

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True)
class AndExpr:
    """Conjunction of predicate expressions."""

    operands: Tuple["PredicateExpr", ...]

    def __str__(self) -> str:
        return " and ".join(_wrap(op) for op in self.operands)


@dataclass(frozen=True)
class OrExpr:
    """Disjunction of predicate expressions."""

    operands: Tuple["PredicateExpr", ...]

    def __str__(self) -> str:
        return " or ".join(_wrap(op) for op in self.operands)


@dataclass(frozen=True)
class NotExpr:
    """Negation: ``not(expr)``."""

    operand: "PredicateExpr"

    def __str__(self) -> str:
        return f"not({self.operand})"


PredicateExpr = Union[Exists, Comparison, AndExpr, OrExpr, NotExpr]


def _wrap(expr: "PredicateExpr") -> str:
    text = str(expr)
    if isinstance(expr, (AndExpr, OrExpr)):
        return f"({text})"
    return text


# --------------------------------------------------------------------------
# Steps and location paths
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One location step: axis, node test and zero or more predicates."""

    axis: Axis
    test: NodeTest
    predicates: Tuple[PredicateExpr, ...] = ()

    def __str__(self) -> str:
        preds = "".join(f"[{pred}]" for pred in self.predicates)
        prefix = "@" if self.axis is Axis.ATTRIBUTE else ""
        return f"{prefix}{self.test}{preds}"


@dataclass(frozen=True)
class LocationPath:
    """A parsed XPath location path.

    ``absolute`` is True for paths starting with ``/`` or ``//``; the
    ``initial_descendant`` flag records whether the path starts with ``//``
    (descendant from the document root) rather than ``/``.
    """

    steps: Tuple[Step, ...]
    absolute: bool = True
    initial_descendant: bool = False

    def __str__(self) -> str:
        return format_path(self)


def format_steps(steps: Sequence[Step], leading: bool, initial_descendant: bool = False) -> str:
    """Render a sequence of steps back to XPath syntax."""
    parts: List[str] = []
    for index, step in enumerate(steps):
        if index == 0:
            if leading:
                parts.append("//" if initial_descendant else "/")
            elif step.axis is Axis.DESCENDANT:
                parts.append(".//")
        else:
            if step.axis is Axis.DESCENDANT:
                parts.append("//")
            else:
                parts.append("/")
        parts.append(str(step))
    return "".join(parts)


def format_path(path: LocationPath) -> str:
    """Render a :class:`LocationPath` back to XPath syntax."""
    return format_steps(
        path.steps, leading=path.absolute, initial_descendant=path.initial_descendant
    )


# --------------------------------------------------------------------------
# Normalized query twig (consumed by the TwigM builder and the baselines)
# --------------------------------------------------------------------------


@unique
class NodeKind(Enum):
    """Kind of document node a query node matches."""

    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"


#: XPath 1.0 ``Number`` with optional sign and XML whitespace (§3.7, §4.4).
_XPATH_NUMBER = re.compile(r"[ \t\r\n]*-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[ \t\r\n]*")


def xpath_number(text: str) -> float:
    """XPath 1.0 ``number()`` of a string (§4.4): a decimal number with
    optional sign and surrounding whitespace, anything else (``1e3``,
    ``1_000``, ``inf``, ``""``) NaN."""
    if _XPATH_NUMBER.fullmatch(text):
        return float(text)
    return math.nan


@dataclass(frozen=True)
class ValueTest:
    """A comparison applied to a query node's string value."""

    op: ComparisonOp
    value: Union[str, float]

    @property
    def is_numeric(self) -> bool:
        """True when the comparison should use numeric semantics."""
        return isinstance(self.value, float)

    def evaluate(self, text: Optional[str]) -> bool:
        """Evaluate the test against a node's string value (None = node absent).

        XPath 1.0 §3.4: ``=`` and ``!=`` against a number, and every
        relational operator, compare the :func:`xpath_number` of both
        sides, so NaN makes all but ``!=`` false; ``=`` and ``!=`` against
        a string compare strings.
        """
        if text is None:
            return False
        op = self.op
        if self.is_numeric:
            left: Union[str, float] = xpath_number(text)
            right: Union[str, float] = self.value
        elif op is ComparisonOp.EQ or op is ComparisonOp.NEQ:
            left = text
            right = self.value
        else:
            left = xpath_number(text)
            right = xpath_number(self.value)
        if op is ComparisonOp.EQ:
            return left == right
        if op is ComparisonOp.NEQ:
            return left != right
        if op is ComparisonOp.LT:
            return left < right
        if op is ComparisonOp.LTE:
            return left <= right
        if op is ComparisonOp.GT:
            return left > right
        return left >= right

    def __str__(self) -> str:
        rendered = Literal(self.value)
        return f"{self.op.value} {rendered}"


# -- Boolean formulas over predicate atoms ---------------------------------


@dataclass(frozen=True)
class ChildAtom:
    """Atom satisfied when the referenced predicate child node has a match."""

    node_id: int


@dataclass(frozen=True)
class SelfTextAtom:
    """Atom satisfied when the node's own string value passes ``test``."""

    test: ValueTest


@dataclass(frozen=True)
class FormulaAnd:
    """Conjunction of formulas."""

    operands: Tuple["Formula", ...]


@dataclass(frozen=True)
class FormulaOr:
    """Disjunction of formulas."""

    operands: Tuple["Formula", ...]


@dataclass(frozen=True)
class FormulaNot:
    """Negation of a formula."""

    operand: "Formula"


@dataclass(frozen=True)
class FormulaTrue:
    """The always-true formula (nodes without predicates)."""


Formula = Union[ChildAtom, SelfTextAtom, FormulaAnd, FormulaOr, FormulaNot, FormulaTrue]


def evaluate_formula(formula: Formula, satisfied_children, self_text: Optional[str]) -> bool:
    """Evaluate a predicate formula.

    Parameters
    ----------
    formula:
        The formula to evaluate.
    satisfied_children:
        A container supporting ``in`` with the node ids of predicate children
        that found at least one match.
    self_text:
        The node's accumulated string value (``None`` when not collected).
    """
    if isinstance(formula, FormulaTrue):
        return True
    if isinstance(formula, ChildAtom):
        return formula.node_id in satisfied_children
    if isinstance(formula, SelfTextAtom):
        return formula.test.evaluate(self_text)
    if isinstance(formula, FormulaAnd):
        return all(
            evaluate_formula(op, satisfied_children, self_text) for op in formula.operands
        )
    if isinstance(formula, FormulaOr):
        return any(
            evaluate_formula(op, satisfied_children, self_text) for op in formula.operands
        )
    if isinstance(formula, FormulaNot):
        return not evaluate_formula(formula.operand, satisfied_children, self_text)
    raise TypeError(f"unknown formula node {formula!r}")


def formula_atoms(formula: Formula) -> List[Union[ChildAtom, SelfTextAtom]]:
    """Return every atom appearing in ``formula`` (in syntactic order)."""
    if isinstance(formula, (ChildAtom, SelfTextAtom)):
        return [formula]
    if isinstance(formula, (FormulaAnd, FormulaOr)):
        atoms: List[Union[ChildAtom, SelfTextAtom]] = []
        for operand in formula.operands:
            atoms.extend(formula_atoms(operand))
        return atoms
    if isinstance(formula, FormulaNot):
        return formula_atoms(formula.operand)
    return []


# -- Query twig nodes -------------------------------------------------------


@dataclass
class QueryNode:
    """A node of the normalized query twig.

    Attributes
    ----------
    node_id:
        Unique integer id within the query tree (pre-order).
    label:
        Tag name, attribute name, ``*`` for wildcards, or ``text()``.
    kind:
        :class:`NodeKind` of document node this query node matches.
    axis:
        Axis relating this node to its parent (:attr:`Axis.CHILD`,
        :attr:`Axis.DESCENDANT`, or :attr:`Axis.ATTRIBUTE`).  For the twig
        root this is the axis from the (virtual) document root.
    main_child:
        The next node on the main path (towards the output node), or ``None``.
    predicate_children:
        Query nodes introduced by predicates on this node.
    formula:
        Boolean formula over this node's predicate atoms that must hold for a
        document node bound to this query node to count as matched.
    value_test:
        Optional comparison applied to this node's string value.  This is how
        predicates of the form ``[price > 30]`` land on the ``price`` node.
    is_output:
        True on exactly one node: the query's result node.
    """

    node_id: int
    label: str
    kind: NodeKind
    axis: Axis
    main_child: Optional["QueryNode"] = None
    predicate_children: List["QueryNode"] = field(default_factory=list)
    formula: Formula = field(default_factory=FormulaTrue)
    value_test: Optional[ValueTest] = None
    is_output: bool = False
    parent: Optional["QueryNode"] = None

    @property
    def children(self) -> List["QueryNode"]:
        """All query children: the main-path child (if any) plus predicate children."""
        result = list(self.predicate_children)
        if self.main_child is not None:
            result.append(self.main_child)
        return result

    @property
    def is_wildcard(self) -> bool:
        """True when this node matches any name."""
        return self.label == "*"

    @property
    def needs_text(self) -> bool:
        """True when evaluating this node requires collecting its string value."""
        if self.value_test is not None:
            return True
        if self.kind is NodeKind.TEXT:
            return True
        return any(isinstance(atom, SelfTextAtom) for atom in formula_atoms(self.formula))

    def matches_name(self, name: str) -> bool:
        """True when a document node named ``name`` matches this node's label."""
        return self.label == "*" or self.label == name

    def iter(self) -> "List[QueryNode]":
        """Return this node and all descendants in pre-order."""
        nodes = [self]
        for child in self.predicate_children:
            nodes.extend(child.iter())
        if self.main_child is not None:
            nodes.extend(self.main_child.iter())
        return nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marker = "*output*" if self.is_output else ""
        return f"<QueryNode #{self.node_id} {self.axis.symbol()}{self.label} {marker}>"


@dataclass
class QueryTree:
    """The normalized query twig.

    The main path runs from :attr:`root` through ``main_child`` links to
    :attr:`output_node`; predicate subtrees hang off main-path (and predicate)
    nodes via ``predicate_children``.
    """

    root: QueryNode
    output_node: QueryNode
    source: str = ""

    def nodes(self) -> List[QueryNode]:
        """All query nodes in pre-order."""
        return self.root.iter()

    @property
    def size(self) -> int:
        """Number of query nodes (the paper's |Q|)."""
        return len(self.nodes())

    def main_path(self) -> List[QueryNode]:
        """The nodes on the main path from root to output node."""
        path = []
        node: Optional[QueryNode] = self.root
        while node is not None:
            path.append(node)
            node = node.main_child
        return path

    def node_by_id(self, node_id: int) -> QueryNode:
        """Return the query node with the given id."""
        for node in self.nodes():
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryTree {self.source!r} size={self.size}>"
