"""Unit tests for query normalization (surface AST → query twig)."""

from __future__ import annotations

import pytest

from repro.xpath.ast import (
    Axis,
    ChildAtom,
    FormulaAnd,
    FormulaNot,
    FormulaOr,
    FormulaTrue,
    NodeKind,
    SelfTextAtom,
    evaluate_formula,
    formula_atoms,
)
from repro.errors import UnsupportedFeatureError
from repro.xpath.normalize import compile_query, query_to_string


class TestMainPath:
    def test_single_step(self):
        tree = compile_query("//a")
        assert tree.size == 1
        assert tree.root is tree.output_node
        assert tree.root.axis is Axis.DESCENDANT
        assert tree.root.is_output

    def test_main_path_chain(self):
        tree = compile_query("/a/b//c")
        path = tree.main_path()
        assert [node.label for node in path] == ["a", "b", "c"]
        assert [node.axis for node in path] == [Axis.CHILD, Axis.CHILD, Axis.DESCENDANT]
        assert path[-1].is_output
        assert not path[0].is_output

    def test_node_ids_unique(self):
        tree = compile_query("//a[b][c]//d[e]")
        ids = [node.node_id for node in tree.nodes()]
        assert len(ids) == len(set(ids))

    def test_parent_pointers(self):
        tree = compile_query("//a/b")
        assert tree.output_node.parent is tree.root
        assert tree.root.parent is None

    def test_source_recorded(self):
        tree = compile_query("//a/b")
        assert tree.source == "//a/b"

    def test_node_by_id(self):
        tree = compile_query("//a/b")
        assert tree.node_by_id(tree.output_node.node_id) is tree.output_node
        with pytest.raises(KeyError):
            tree.node_by_id(999)


class TestOutputKinds:
    def test_element_output(self):
        tree = compile_query("//a/b")
        assert tree.output_node.kind is NodeKind.ELEMENT

    def test_attribute_output(self):
        tree = compile_query("//a/@id")
        assert tree.output_node.kind is NodeKind.ATTRIBUTE
        assert tree.output_node.axis is Axis.ATTRIBUTE
        assert tree.output_node.label == "id"

    def test_text_output(self):
        tree = compile_query("//a/text()")
        assert tree.output_node.kind is NodeKind.TEXT

    def test_leading_attribute_expanded_to_wildcard(self):
        tree = compile_query("//@id")
        assert tree.root.kind is NodeKind.ELEMENT
        assert tree.root.is_wildcard
        assert tree.root.axis is Axis.DESCENDANT
        assert tree.output_node.kind is NodeKind.ATTRIBUTE

    def test_wildcard_output(self):
        tree = compile_query("//a/*")
        assert tree.output_node.is_wildcard
        assert tree.output_node.kind is NodeKind.ELEMENT


class TestPredicateCompilation:
    def test_existence_predicate_becomes_child_atom(self):
        tree = compile_query("//a[b]")
        root = tree.root
        assert len(root.predicate_children) == 1
        assert isinstance(root.formula, ChildAtom)
        assert root.formula.node_id == root.predicate_children[0].node_id

    def test_predicate_child_axis_default_is_child(self):
        tree = compile_query("//a[b]")
        assert tree.root.predicate_children[0].axis is Axis.CHILD

    def test_descendant_predicate(self):
        tree = compile_query("//a[.//b]")
        assert tree.root.predicate_children[0].axis is Axis.DESCENDANT

    def test_attribute_predicate(self):
        tree = compile_query("//a[@id]")
        child = tree.root.predicate_children[0]
        assert child.kind is NodeKind.ATTRIBUTE
        assert child.label == "id"

    def test_comparison_sets_value_test_on_last_node(self):
        tree = compile_query("//a[b/c='x']")
        b = tree.root.predicate_children[0]
        assert b.label == "b"
        assert b.value_test is None
        c = b.predicate_children[0]
        assert c.label == "c"
        assert c.value_test is not None
        assert c.value_test.evaluate("x")
        assert not c.value_test.evaluate("y")

    def test_chained_predicate_path_requires_inner_node(self):
        tree = compile_query("//a[b/c]")
        b = tree.root.predicate_children[0]
        assert isinstance(b.formula, ChildAtom)
        assert b.formula.node_id == b.predicate_children[0].node_id
        # b itself has no main_child: chains inside predicates are predicate links.
        assert b.main_child is None

    def test_multiple_predicates_conjoined(self):
        tree = compile_query("//a[b][c]")
        assert isinstance(tree.root.formula, FormulaAnd)
        assert len(tree.root.predicate_children) == 2

    def test_and_or_not_structure(self):
        tree = compile_query("//a[b and (c or not(d))]")
        formula = tree.root.formula
        assert isinstance(formula, FormulaAnd)
        assert isinstance(formula.operands[1], FormulaOr)
        assert isinstance(formula.operands[1].operands[1], FormulaNot)
        assert len(tree.root.predicate_children) == 3

    def test_self_text_comparison(self):
        tree = compile_query("//a[.='x']")
        assert isinstance(tree.root.formula, SelfTextAtom)
        assert not tree.root.predicate_children

    def test_text_function_comparison_is_self_atom(self):
        # [.//text()] is exactly [. != ''] (text nodes are never empty);
        # [text()] and comparisons against text nodes are refused rather
        # than read as string-value tests.
        tree = compile_query("//a[.//text()]")
        assert isinstance(tree.root.formula, SelfTextAtom)
        assert tree.root.formula.test.evaluate("x")
        assert not tree.root.formula.test.evaluate("")
        for refused in ("//a[text()]", "//a[text()='x']", "//a[.//text()='x']"):
            with pytest.raises(UnsupportedFeatureError):
                compile_query(refused)

    def test_no_predicates_yields_true_formula(self):
        tree = compile_query("//a/b")
        assert isinstance(tree.root.formula, FormulaTrue)
        assert isinstance(tree.output_node.formula, FormulaTrue)

    def test_numeric_value_test(self):
        tree = compile_query("//a[price>=10.5]")
        price = tree.root.predicate_children[0]
        assert price.value_test is not None
        assert price.value_test.evaluate("11")
        assert not price.value_test.evaluate("10")
        assert not price.value_test.evaluate("not a number")

    def test_paper_query_structure(self):
        tree = compile_query("//section[author]//table[position]//cell")
        assert tree.size == 5
        main = [node.label for node in tree.main_path()]
        assert main == ["section", "table", "cell"]
        assert [node.predicate_children[0].label for node in tree.main_path()[:2]] == [
            "author",
            "position",
        ]


class TestFormulaEvaluation:
    def test_child_atom(self):
        tree = compile_query("//a[b]")
        child_id = tree.root.predicate_children[0].node_id
        assert evaluate_formula(tree.root.formula, {child_id}, None)
        assert not evaluate_formula(tree.root.formula, set(), None)

    def test_and_or_not_semantics(self):
        tree = compile_query("//a[b and not(c)]")
        b_id = tree.root.predicate_children[0].node_id
        c_id = tree.root.predicate_children[1].node_id
        assert evaluate_formula(tree.root.formula, {b_id}, None)
        assert not evaluate_formula(tree.root.formula, {b_id, c_id}, None)
        assert not evaluate_formula(tree.root.formula, set(), None)

    def test_self_text_atom_uses_string_value(self):
        tree = compile_query("//a[.='42']")
        assert evaluate_formula(tree.root.formula, set(), "42")
        assert not evaluate_formula(tree.root.formula, set(), "41")
        assert not evaluate_formula(tree.root.formula, set(), None)

    def test_formula_atoms_enumeration(self):
        tree = compile_query("//a[b and (c or not(d)) and .='x']")
        atoms = formula_atoms(tree.root.formula)
        child_atoms = [atom for atom in atoms if isinstance(atom, ChildAtom)]
        text_atoms = [atom for atom in atoms if isinstance(atom, SelfTextAtom)]
        assert len(child_atoms) == 3
        assert len(text_atoms) == 1


class TestQueryToString:
    def test_contains_all_labels(self):
        tree = compile_query("//section[author]//table[position]//cell")
        rendered = query_to_string(tree)
        for label in ("section", "author", "table", "position", "cell"):
            assert label in rendered
        assert "output" in rendered

    def test_marks_value_tests(self):
        rendered = query_to_string(compile_query("//a[b>3]"))
        assert "value" in rendered
