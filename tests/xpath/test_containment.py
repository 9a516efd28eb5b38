"""Unit tests for the conservative containment analysis."""

from __future__ import annotations

import pytest

from repro.xpath.containment import (
    main_path_steps,
    path_matches,
    query_contains,
    residual_plan,
    sharing_refusal,
)
from repro.xpath.normalize import compile_query


class TestMainPathSteps:
    def test_linear_descendant_and_child_steps(self):
        steps = main_path_steps(compile_query("//a/b//c"))
        assert steps == (("a", True), ("b", False), ("c", True))

    def test_rooted_first_step_is_child_axis(self):
        steps = main_path_steps(compile_query("/r//c"))
        assert steps == (("r", False), ("c", True))

    def test_wildcard_steps_are_kept(self):
        steps = main_path_steps(compile_query("//a/*/c"))
        assert steps == (("a", True), ("*", False), ("c", False))

    @pytest.mark.parametrize(
        "query",
        [
            "//a[b]/c",  # predicate subtree
            "//a[.='x']",  # value test
            "//a/@id",  # attribute terminal
            "//a/text()",  # text terminal
        ],
    )
    def test_outside_fragment_returns_none(self, query):
        assert main_path_steps(compile_query(query)) is None


class TestResidualPlan:
    def test_eligible_query_gets_anchor_on_output_label(self):
        plan = residual_plan("//a/b//c")
        assert plan is not None
        assert plan.anchor_label == "c"
        assert plan.anchor_source == "//c"
        assert plan.steps == (("a", True), ("b", False), ("c", True))

    def test_wildcard_output_anchors_on_star(self):
        plan = residual_plan("//a/*")
        assert plan is not None
        assert plan.anchor_source == "//*"

    def test_single_step_query_is_not_planned(self):
        # ``//c`` is its own anchor; fingerprint dedup already shares it.
        assert residual_plan("//c") is None

    @pytest.mark.parametrize(
        "query",
        [
            "//a[b]//c",  # output is a descendant of the predicated step
            "//a[b]/c/d",  # output two steps below the predicated step
            "//a[b]/c[d]",  # two predicated steps
            "//*[b]",  # predicate on a wildcard
            "//a[b/c]",  # predicate path longer than one step
            "//a[.//b]",  # predicate path on the descendant axis
            "//a[.='x']",  # test on the step's own string value
            "//a//c/text()",  # text output
            "//a[x='1']//c",  # value test in a predicate, descendant output
        ],
    )
    def test_ineligible_queries_fall_back(self, query):
        assert residual_plan(query) is None
        assert sharing_refusal(query)

    def test_attribute_output_anchors_on_its_element(self):
        plan = residual_plan("//a//c/@id")
        assert plan is not None
        assert plan.anchor_source == "//c"
        assert plan.steps == (("a", True), ("c", True))
        assert plan.output == ("@", "id")
        assert plan.attributes and not plan.captures

    def test_predicated_step_is_the_anchor(self):
        plan = residual_plan("/t/q[p>490 and not(@s='x')]/v")
        assert plan is not None
        assert plan.anchor_source == "//q"
        assert plan.steps == (("t", False), ("q", False))
        assert plan.output == ("/", "v")
        assert plan.captures == {"p": True, "v": False}
        assert plan.attributes
        assert plan.describe() == (
            "anchor //q, residual /t/q, predicate [p > 490 and not(@s = 'x')], "
            "output child v"
        )

    def test_repeated_atoms_are_one(self):
        plan = residual_plan("//q[p > 1 or p > 1][p]")
        assert plan is not None
        assert len(plan.atoms) == 2

    def test_accepts_precompiled_trees(self):
        plan = residual_plan(compile_query("//r//s/v"))
        assert plan is not None
        assert plan.anchor_label == "v"


class TestPathMatches:
    def test_exact_child_chain(self):
        steps = (("r", False), ("a", False), ("c", False))
        assert path_matches(steps, ("r", "a", "c"))
        assert not path_matches(steps, ("r", "a", "b", "c"))

    def test_descendant_step_skips_levels(self):
        steps = (("r", False), ("c", True))
        assert path_matches(steps, ("r", "c"))
        assert path_matches(steps, ("r", "x", "y", "c"))
        assert not path_matches(steps, ("q", "x", "c"))

    def test_last_step_must_land_on_chain_end(self):
        steps = (("a", True), ("c", True))
        assert path_matches(steps, ("a", "c"))
        # ``c`` present but not the closing element: no match.
        assert not path_matches(steps, ("a", "c", "d"))

    def test_anchored_at_document_element(self):
        steps = (("r", False), ("c", True))
        # First child step must be the document element itself.
        assert not path_matches(steps, ("top", "r", "c"))

    def test_wildcard_step_matches_any_tag(self):
        steps = (("*", False), ("c", True))
        assert path_matches(steps, ("anything", "x", "c"))

    def test_recursive_same_tag_chain(self):
        steps = (("s", True), ("s", True), ("c", False))
        assert path_matches(steps, ("r", "s", "s", "c"))
        assert path_matches(steps, ("s", "x", "s", "c"))
        assert not path_matches(steps, ("r", "s", "c"))

    def test_empty_chain_never_matches(self):
        assert not path_matches((("a", True),), ())


class TestQueryContains:
    @pytest.mark.parametrize(
        "general, specific",
        [
            ("//c", "//a/b//c"),
            ("//a//c", "//a/b/c"),
            ("//a//c", "/a/b//c"),
            ("//*//c", "//a/b/c"),
            ("//a//c", "//a[x]//c"),  # predicate stripped on the specific side
        ],
    )
    def test_provable_containment(self, general, specific):
        assert query_contains(general, specific)

    @pytest.mark.parametrize(
        "general, specific",
        [
            ("//a/c", "//a//c"),  # child edge vs descendant edge
            ("//a//c", "//b//c"),  # disjoint labels
            ("/a//c", "//a//c"),  # rooted general, unrooted specific
            ("//a//c", "//c"),  # general longer than specific
            ("//a[b]//c", "//a/b//c"),  # predicates on the general side
            ("//a//c/@id", "//a/b//c/@id"),  # attribute output unsupported here
        ],
    )
    def test_unprovable_cases_return_false(self, general, specific):
        assert not query_contains(general, specific)

    def test_containment_is_reflexive_on_linear_paths(self):
        assert query_contains("//a/b//c", "//a/b//c")
