"""Tests for the embedded paper-figure documents."""

from __future__ import annotations

from repro.datasets.figures import (
    FIGURE_1_CELL8_MATCH_COUNT,
    FIGURE_1_LINES,
    FIGURE_1_QUERY,
    FIGURE_1_XML,
    PROTEIN_EXAMPLE_QUERY,
    figure_1_dataset,
    figure_1_expected_solution_lines,
)
from repro.xmlstream.dom import parse_document
from repro.xpath.normalize import compile_query


class TestFigure1:
    def test_well_formed(self):
        parse_document(FIGURE_1_XML)  # raises XMLSyntaxError when malformed

    def test_element_inventory(self):
        document = parse_document(FIGURE_1_XML)
        tags = sorted(element.tag for element in document.iter())
        assert tags == sorted(
            ["book", "section", "section", "section", "table", "table", "table", "cell", "position", "author"]
        )

    def test_start_tag_lines(self):
        document = parse_document(FIGURE_1_XML)
        cell = document.find_all("cell")[0]
        author = document.find_all("author")[0]
        assert cell.line == FIGURE_1_LINES["cell_8"]
        assert author.line == FIGURE_1_LINES["author_15"]

    def test_match_count_constant(self):
        # 3 sections × 3 tables around cell_8.
        assert FIGURE_1_CELL8_MATCH_COUNT == 9

    def test_expected_solution_lines(self):
        assert figure_1_expected_solution_lines() == [8]

    def test_dataset_wrapper_round_trips(self):
        dataset = figure_1_dataset()
        assert dataset.text() == FIGURE_1_XML


class TestPaperQueries:
    def test_walkthrough_query_compiles(self):
        tree = compile_query(FIGURE_1_QUERY)
        assert tree.size == 5

    def test_protein_example_query_compiles(self):
        tree = compile_query(PROTEIN_EXAMPLE_QUERY)
        assert tree.size == 3
        assert tree.output_node.label == "id"
