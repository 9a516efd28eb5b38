"""Normalization: surface AST → query twig (:class:`~repro.xpath.ast.QueryTree`).

The TwigM builder, the naive baseline and the DOM oracle all consume the same
normalized twig, which guarantees the three evaluators answer the same query.

Normalization rules:

* The main location path becomes the twig's main path; the last step is the
  output node.
* ``//@id`` (a leading attribute step with descendant axis, or an attribute
  step directly after ``//``) is expanded to ``//*/@id``: attributes always
  hang off an element query node via the attribute axis.
* Each predicate ``[expr]`` on a step is compiled into a boolean formula over
  atoms.  Existence tests and comparisons introduce *predicate children*
  (element or attribute query nodes); a comparison's value test is attached
  to the final node of its relative path.  ``.`` comparisons attach a
  :class:`~repro.xpath.ast.SelfTextAtom` to the step's own node, and so does
  ``[.//text()]``, compiled as its exact meaning ``[. != '']``.  ``[text()]``
  and comparisons against ``text()`` / ``.//text()`` raise
  :class:`~repro.errors.UnsupportedFeatureError`: they need each direct text
  child on its own, which no stack entry keeps.
* Multiple predicates on the same step are conjoined.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import UnsupportedFeatureError
from .ast import (
    AndExpr,
    Axis,
    ChildAtom,
    Comparison,
    ComparisonOp,
    Exists,
    Formula,
    FormulaAnd,
    FormulaNot,
    FormulaOr,
    FormulaTrue,
    LocationPath,
    NodeKind,
    NotExpr,
    OrExpr,
    PathExpr,
    PredicateExpr,
    QueryNode,
    QueryTree,
    SelfTextAtom,
    Step,
    TextTest,
    ValueTest,
    WildcardTest,
)
from .parser import parse_xpath


class _IdAllocator:
    """Allocates consecutive query-node ids."""

    def __init__(self) -> None:
        self.next_id = 0

    def allocate(self) -> int:
        node_id = self.next_id
        self.next_id += 1
        return node_id


def normalize(path: LocationPath, source: str = "") -> QueryTree:
    """Normalize a parsed location path into a query twig."""
    normalizer = _Normalizer(source=source or str(path))
    return normalizer.build(path)


def compile_query(expression: str) -> QueryTree:
    """Parse and normalize an XPath expression in one call."""
    path = parse_xpath(expression)
    return normalize(path, source=expression)


class _Normalizer:
    """Stateful helper carrying the id allocator through the recursion."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.ids = _IdAllocator()

    # ------------------------------------------------------------ main path

    def build(self, path: LocationPath) -> QueryTree:
        steps = list(path.steps)
        if not steps:
            raise UnsupportedFeatureError("a query must have at least one step")
        steps = self._expand_leading_attribute(steps, path)
        root: Optional[QueryNode] = None
        previous: Optional[QueryNode] = None
        for index, step in enumerate(steps):
            is_last = index == len(steps) - 1
            node = self._node_for_step(step, is_output=is_last)
            if previous is None:
                root = node
            else:
                if previous.kind is not NodeKind.ELEMENT:
                    raise UnsupportedFeatureError(
                        "only element steps can have further steps below them"
                    )
                previous.main_child = node
                node.parent = previous
            previous = node
        assert root is not None and previous is not None
        return QueryTree(root=root, output_node=previous, source=self.source)

    @staticmethod
    def _expand_leading_attribute(steps: List[Step], path: LocationPath) -> List[Step]:
        first = steps[0]
        if first.axis is Axis.ATTRIBUTE:
            implicit_axis = (
                Axis.DESCENDANT if path.initial_descendant or not path.absolute else Axis.CHILD
            )
            wildcard = Step(axis=implicit_axis, test=WildcardTest(), predicates=())
            return [wildcard] + steps
        return steps

    def _node_for_step(self, step: Step, is_output: bool) -> QueryNode:
        if isinstance(step.test, TextTest):
            if step.axis is Axis.ATTRIBUTE:
                raise UnsupportedFeatureError("text() cannot be an attribute")
            node = QueryNode(
                node_id=self.ids.allocate(),
                label="text()",
                kind=NodeKind.TEXT,
                axis=step.axis,
                is_output=is_output,
            )
            if step.predicates:
                raise UnsupportedFeatureError("predicates on text() steps are not supported")
            return node
        label = "*" if isinstance(step.test, WildcardTest) else step.test.name
        kind = NodeKind.ATTRIBUTE if step.axis is Axis.ATTRIBUTE else NodeKind.ELEMENT
        node = QueryNode(
            node_id=self.ids.allocate(),
            label=label,
            kind=kind,
            axis=step.axis,
            is_output=is_output,
        )
        if step.predicates:
            if kind is NodeKind.ATTRIBUTE:
                raise UnsupportedFeatureError("predicates on attribute steps are not supported")
            formulas = [self._compile_predicate(node, predicate) for predicate in step.predicates]
            node.formula = formulas[0] if len(formulas) == 1 else FormulaAnd(tuple(formulas))
        return node

    # ------------------------------------------------------------ predicates

    def _compile_predicate(self, owner: QueryNode, expr: PredicateExpr) -> Formula:
        if isinstance(expr, AndExpr):
            return FormulaAnd(tuple(self._compile_predicate(owner, op) for op in expr.operands))
        if isinstance(expr, OrExpr):
            return FormulaOr(tuple(self._compile_predicate(owner, op) for op in expr.operands))
        if isinstance(expr, NotExpr):
            return FormulaNot(self._compile_predicate(owner, expr.operand))
        if isinstance(expr, Exists):
            return self._compile_path_atom(owner, expr.path, value_test=None)
        if isinstance(expr, Comparison):
            value_test = ValueTest(op=expr.op, value=expr.literal.value)
            return self._compile_path_atom(owner, expr.path, value_test=value_test)
        raise UnsupportedFeatureError(f"unsupported predicate expression {expr!r}")

    def _compile_path_atom(
        self,
        owner: QueryNode,
        path: PathExpr,
        value_test: Optional[ValueTest],
    ) -> Formula:
        steps = list(path.steps)
        if not steps:
            # '.' — a test on the context node's own string value.
            if value_test is None:
                # [.] is always true for an existing node.
                return FormulaTrue()
            return SelfTextAtom(test=value_test)
        if len(steps) == 1 and isinstance(steps[0].test, TextTest):
            # [.//text()] is exactly [. != '']: text nodes are never empty,
            # so one exists below the node iff its string value is not.
            # [text()] and comparisons against text nodes need the direct
            # text children one by one, which no entry keeps.
            if value_test is None and steps[0].axis is Axis.DESCENDANT:
                return SelfTextAtom(test=ValueTest(op=ComparisonOp.NEQ, value=""))
            raise UnsupportedFeatureError(
                f"{PathExpr(tuple(steps))} inside a predicate is not supported "
                "(use [.//text()] or a test on the string value '.')"
            )
        # Build a chain of predicate nodes under the owner.
        first_child = self._build_predicate_chain(owner, steps, value_test)
        owner.predicate_children.append(first_child)
        first_child.parent = owner
        return ChildAtom(node_id=first_child.node_id)

    def _build_predicate_chain(
        self,
        owner: QueryNode,
        steps: List[Step],
        value_test: Optional[ValueTest],
    ) -> QueryNode:
        """Build the query nodes for a relative path used inside a predicate.

        Each step becomes a *predicate child* of the previous one, and the
        previous node's formula gains a :class:`ChildAtom` requirement, so
        ``[a/b]`` reads "exists a child ``a`` that itself has a child ``b``".
        This keeps a single notion of node satisfaction across the main path
        and predicate subtrees: a node is satisfied iff its formula (and value
        test) hold; only true main-path nodes have a ``main_child``.
        """
        head: Optional[QueryNode] = None
        previous: Optional[QueryNode] = None
        for index, step in enumerate(steps):
            is_last = index == len(steps) - 1
            node = self._node_for_step(step, is_output=False)
            if is_last and value_test is not None:
                if node.kind is NodeKind.TEXT:
                    raise UnsupportedFeatureError(
                        "comparisons against nested text() paths are not supported"
                    )
                node.value_test = value_test
            if previous is None:
                head = node
            else:
                if previous.kind is not NodeKind.ELEMENT:
                    raise UnsupportedFeatureError(
                        "only element steps can have further steps below them"
                    )
                previous.predicate_children.append(node)
                node.parent = previous
                requirement = ChildAtom(node_id=node.node_id)
                if isinstance(previous.formula, FormulaTrue):
                    previous.formula = requirement
                else:
                    previous.formula = FormulaAnd((previous.formula, requirement))
            previous = node
        assert head is not None
        return head


def query_to_string(tree: QueryTree) -> str:
    """Render a query twig back to a readable multi-line description.

    This is not guaranteed to round-trip to the exact original expression;
    it is a debugging/documentation aid (used by the CLI's ``--explain``).
    """
    lines: List[str] = []

    def visit(node: QueryNode, indent: int, role: str) -> None:
        marker = []
        if node.is_output:
            marker.append("output")
        if node.value_test is not None:
            marker.append(f"value {node.value_test}")
        suffix = f"  ({', '.join(marker)})" if marker else ""
        axis = node.axis.symbol()
        lines.append(f"{'  ' * indent}{role}{axis}{node.label}{suffix}")
        for child in node.predicate_children:
            visit(child, indent + 1, role="[pred] ")
        if node.main_child is not None:
            visit(node.main_child, indent + 1, role="")

    visit(tree.root, 0, role="")
    return "\n".join(lines)
