"""E6: the paper's Section 1 worked example, reproduced exactly.

The paper walks through query ``//section[author]//table[position]//cell``
over the Figure 1 document and concludes:

* ``cell_8`` has 9 pattern matches of the subquery ``//section//table//cell``
  (3 sections × 3 tables);
* the matches through ``table_6`` and ``table_7`` are discarded because those
  tables have no ``position`` child;
* the single surviving match ``(section_2, table_5, cell_8)``-shaped match
  qualifies ``cell_8`` as the only query solution.
"""

from __future__ import annotations

from repro.baselines.dom_eval import evaluate_with_dom
from repro.baselines.naive import NaiveStreamingEvaluator
from repro.core.engine import TwigMEvaluator, evaluate
from repro.datasets.figures import (
    FIGURE_1_CELL8_MATCH_COUNT,
    FIGURE_1_LINES,
    FIGURE_1_QUERY,
    FIGURE_1_XML,
)
from repro.datasets.recursive import RecursiveBookGenerator, RecursiveConfig
from repro.xmlstream.dom import parse_document


class TestFigure1Document:
    def test_line_numbers_match_the_figure(self):
        document = parse_document(FIGURE_1_XML)
        lines = {}
        for element in document.iter():
            lines.setdefault(element.tag, []).append(element.line)
        assert lines["book"] == [FIGURE_1_LINES["book"]]
        assert lines["section"] == [2, 3, 4]
        assert lines["table"] == [5, 6, 7]
        assert lines["cell"] == [FIGURE_1_LINES["cell_8"]]
        assert lines["position"] == [FIGURE_1_LINES["position_11"]]
        assert lines["author"] == [FIGURE_1_LINES["author_15"]]

    def test_document_depth(self):
        document = parse_document(FIGURE_1_XML)
        assert document.max_depth == 8


class TestPaperWalkthrough:
    def test_twigm_returns_exactly_cell_8(self):
        result = evaluate(FIGURE_1_QUERY, FIGURE_1_XML)
        assert len(result) == 1
        solution = result.solutions[0]
        assert solution.node.tag == "cell"
        assert solution.node.line == FIGURE_1_LINES["cell_8"]

    def test_all_engines_agree_on_the_walkthrough(self):
        twigm = evaluate(FIGURE_1_QUERY, FIGURE_1_XML).keys()
        dom = evaluate_with_dom(FIGURE_1_QUERY, FIGURE_1_XML).keys()
        naive = NaiveStreamingEvaluator(FIGURE_1_QUERY).evaluate(FIGURE_1_XML).keys()
        assert twigm == dom == naive

    def test_without_predicates_cell_is_still_the_only_match(self):
        result = evaluate("//section//table//cell", FIGURE_1_XML)
        assert len(result) == 1

    def test_predicate_on_table_prunes_nothing_for_table5(self):
        # table_5 has the position child, so //table[position] matches exactly it.
        result = evaluate("//table[position]", FIGURE_1_XML)
        assert [s.node.line for s in result.solutions] == [FIGURE_1_LINES["table_5"]]

    def test_tables_6_and_7_fail_the_position_predicate(self):
        result = evaluate("//table[not(position)]", FIGURE_1_XML)
        assert sorted(s.node.line for s in result.solutions) == [
            FIGURE_1_LINES["table_6"],
            FIGURE_1_LINES["table_7"],
        ]

    def test_author_predicate_is_satisfied_only_by_outer_section(self):
        result = evaluate("//section[author]", FIGURE_1_XML)
        assert [s.node.line for s in result.solutions] == [FIGURE_1_LINES["section_outer"]]


class TestPatternMatchAccounting:
    def test_naive_enumeration_counts_nine_matches_for_cell8(self):
        """The naive evaluator stores 9 explicit (section, table, cell) embeddings.

        Total records = 3 section bindings + 3x3 section/table pairs + 9 full
        triples for ``cell_8`` — the 9 is exactly the pattern-match count the
        paper derives in Section 1.
        """
        naive = NaiveStreamingEvaluator("//section//table//cell")
        naive.evaluate(FIGURE_1_XML)
        assert naive.statistics.records_created == 3 + 9 + FIGURE_1_CELL8_MATCH_COUNT

    def test_twigm_stores_linearly_many_entries_instead(self):
        twigm = TwigMEvaluator("//section//table//cell")
        twigm.evaluate(FIGURE_1_XML)
        # One push per matching element per machine node: 3 sections + 3
        # tables + 1 cell = 7, versus the naive evaluator's 21 records.
        assert twigm.statistics.pushes == 7
        assert twigm.statistics.peak_stack_entries <= 7

    def test_paper_query_naive_vs_twigm_work_gap(self):
        naive = NaiveStreamingEvaluator(FIGURE_1_QUERY)
        naive.evaluate(FIGURE_1_XML)
        twigm = TwigMEvaluator(FIGURE_1_QUERY)
        twigm.evaluate(FIGURE_1_XML)
        assert naive.statistics.records_created > twigm.statistics.pushes

    def test_work_gap_widens_on_deeper_nesting(self):
        """On a Figure-1-shaped document nested 12 deep, naive enumeration
        stores many more records per TwigM push than on Figure 1 itself."""
        deep = RecursiveBookGenerator(
            RecursiveConfig(
                section_depth=12,
                table_depth=6,
                section_groups=3,
                cells_per_table=2,
                author_probability=0.5,
                position_probability=0.5,
                noise_per_section=0,
            ),
            seed=31,
        ).text()
        ratios = []
        for document in (FIGURE_1_XML, deep):
            naive = NaiveStreamingEvaluator(FIGURE_1_QUERY)
            naive_keys = naive.evaluate(document).keys()
            twigm = TwigMEvaluator(FIGURE_1_QUERY)
            assert twigm.evaluate(document).keys() == naive_keys
            ratios.append(naive.statistics.records_created / twigm.statistics.pushes)
        assert ratios[1] > ratios[0]

    def test_incremental_emission_happens_at_outer_section_close(self):
        """The solution is only confirmed once the author element has been seen."""
        evaluator = TwigMEvaluator(FIGURE_1_QUERY)
        emission_lines = []
        from repro.xmlstream.tokenizer import tokenize

        for event in tokenize(FIGURE_1_XML):
            solutions = evaluator.feed(event)
            if solutions:
                emission_lines.append(getattr(event, "line", None))
        # Exactly one emission, and it happens when the outer section (which
        # owns the author predicate) closes — after line 15.
        assert len(emission_lines) == 1
        assert emission_lines[0] >= FIGURE_1_LINES["author_15"]
