"""Unit tests for the TwigM builder."""

from __future__ import annotations

import pytest

from repro.core.builder import CompiledQueryCache, build_machine
from repro.xpath.ast import Axis
from repro.xpath.generator import linear_descendant_query
from repro.xpath.normalize import compile_query


class TestMachineStructure:
    def test_paper_query_machine(self):
        machine = build_machine("//section[author]//table[position]//cell")
        # One machine node per element query node: section, author, table,
        # position, cell (the paper's Figure 3).
        assert machine.size == 5
        labels = [node.label for node in machine.nodes]
        assert labels == ["section", "author", "table", "position", "cell"]

    def test_root_and_output_flags(self):
        machine = build_machine("//a/b")
        assert machine.root.label == "a"
        assert machine.root.is_root
        output_nodes = [node for node in machine.nodes if node.is_output]
        assert [node.label for node in output_nodes] == ["b"]

    def test_predicate_branches_marked(self):
        machine = build_machine("//a[b]//c")
        by_label = {node.label: node for node in machine.nodes}
        assert by_label["b"].is_predicate_branch
        assert not by_label["c"].is_predicate_branch

    def test_axes_preserved(self):
        machine = build_machine("/a/b//c")
        by_label = {node.label: node for node in machine.nodes}
        assert by_label["a"].axis is Axis.CHILD
        assert by_label["b"].axis is Axis.CHILD
        assert by_label["c"].axis is Axis.DESCENDANT

    def test_attribute_output_attached_to_owner(self):
        machine = build_machine("//ProteinEntry[reference]/@id")
        assert machine.size == 2  # ProteinEntry + reference
        owner = machine.root
        assert owner.attribute_output is not None
        assert owner.attribute_output.label == "id"
        assert not owner.is_output  # the attribute is the output, not the element

    def test_attribute_predicate_attached_to_owner(self):
        machine = build_machine("//a[@id]")
        assert machine.size == 1
        assert [attr.label for attr in machine.root.attribute_predicates] == ["id"]

    def test_text_output_attached_to_owner(self):
        machine = build_machine("//a/text()")
        assert machine.size == 1
        assert machine.root.text_output is not None
        assert machine.root.needs_direct_text

    def test_needs_string_value_for_value_tests(self):
        machine = build_machine("//a[b='x']")
        by_label = {node.label: node for node in machine.nodes}
        assert by_label["b"].needs_string_value
        assert not by_label["a"].needs_string_value

    def test_needs_string_value_for_self_comparison(self):
        machine = build_machine("//a[.='x']")
        assert machine.root.needs_string_value

    def test_wildcard_machine_node(self):
        machine = build_machine("//*[a]")
        assert machine.root.is_wildcard
        assert machine.root.matches("anything")

    def test_accepts_precompiled_tree(self):
        tree = compile_query("//a/b")
        machine = build_machine(tree)
        assert machine.query is tree


class TestTraversalOrders:
    def test_preorder_parents_before_children(self):
        machine = build_machine("//a[b][c]//d[e]")
        order = [node.label for node in machine.nodes]
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("d")
        assert order.index("d") < order.index("e")

    def test_postorder_children_before_parents(self):
        machine = build_machine("//a[b][c]//d[e]")
        order = [node.label for node in machine.nodes_postorder]
        assert order.index("b") < order.index("a")
        assert order.index("e") < order.index("d")
        assert order.index("d") < order.index("a")

    def test_nodes_matching_uses_wildcards(self):
        machine = build_machine("//*[a]/b")
        matching_b = [node.label for node in machine.nodes_matching("b")]
        assert "*" in matching_b and "b" in matching_b
        matching_z = [node.label for node in machine.nodes_matching("z")]
        assert matching_z == ["*"]

    def test_nodes_matching_cache_returns_same_result(self):
        machine = build_machine("//a/b")
        assert machine.nodes_matching("a") == machine.nodes_matching("a")


class TestBuilderLinearity:
    def test_machine_size_tracks_query_size(self):
        for steps in (1, 2, 5, 10, 40):
            query = "".join("//a[p]" for _ in range(steps))
            machine = build_machine(query)
            assert machine.size == 2 * steps

    @pytest.mark.parametrize("steps", [1, 5, 10, 25, 50, 100, 200])
    def test_one_node_per_step_and_per_predicate(self, steps):
        # E4 (construction linear in |Q|): //a[b] repeated k times compiles
        # to exactly k step nodes plus k predicate nodes, up to 200 steps.
        machine = build_machine(compile_query(linear_descendant_query("a", steps, predicate_tag="b")))
        assert machine.size == 2 * steps

    def test_describe_mentions_all_labels(self):
        machine = build_machine("//section[author]//table[position]//cell")
        text = machine.describe()
        for label in ("section", "author", "table", "position", "cell"):
            assert label in text


class TestCompiledQueryCache:
    def test_same_source_shares_one_entry(self):
        cache = CompiledQueryCache()
        first = cache.acquire("//a[b]//c")
        second = cache.acquire("//a[b]//c")
        assert first is second
        assert first.refcount == 2
        assert len(cache) == 1
        assert cache.misses == 1 and cache.hits == 1

    def test_structurally_identical_sources_share_one_entry(self):
        cache = CompiledQueryCache()
        first = cache.acquire("//a[b]//c")
        second = cache.acquire("//a[ b ]//c")
        assert first is second
        assert first.refcount == 2

    def test_different_shapes_get_distinct_entries(self):
        cache = CompiledQueryCache()
        first = cache.acquire("//a/b")
        second = cache.acquire("//a//b")
        assert first is not second
        assert len(cache) == 2

    def test_release_evicts_at_zero_references(self):
        cache = CompiledQueryCache()
        compiled = cache.acquire("//a")
        cache.acquire("//a")
        cache.release(compiled)
        assert len(cache) == 1
        cache.release(compiled)
        assert len(cache) == 0
        # Re-acquiring after eviction compiles a fresh entry.
        again = cache.acquire("//a")
        assert again is not compiled
        assert again.refcount == 1

    def test_compiled_query_builds_fresh_machines(self):
        cache = CompiledQueryCache()
        compiled = cache.acquire("//a[b]")
        first = compiled.build()
        second = compiled.build()
        assert first is not second
        assert first.query is second.query  # shared normalized twig

    def test_tree_inputs_are_cacheable(self):
        cache = CompiledQueryCache()
        tree = compile_query("//a[b]")
        first = cache.acquire(tree)
        second = cache.acquire("//a[b]")
        assert first is second
        assert first.refcount == 2

    def test_clear_resets_counters(self):
        cache = CompiledQueryCache()
        cache.acquire("//a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
