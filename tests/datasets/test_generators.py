"""Tests for the synthetic dataset generators (protein, recursive, auction, news)."""

from __future__ import annotations

import pytest

from repro.core.engine import evaluate
from repro.datasets.auction import AuctionConfig, AuctionGenerator
from repro.datasets.newsfeed import NewsFeedConfig, NewsFeedGenerator, ticker_stream
from repro.datasets.protein import ProteinConfig, ProteinDatabaseGenerator, protein_dataset_of_size
from repro.datasets.randomtree import RandomTreeConfig, RandomTreeGenerator, random_documents
from repro.datasets.recursive import (
    RecursiveBookGenerator,
    RecursiveConfig,
    small_recursive_document,
)
from repro.errors import DatasetError
from repro.xmlstream.dom import parse_document
from repro.xmlstream.sax import iter_events


def nests_in_itself(document, tag):
    """True when some ``tag`` element has an ancestor with the same tag."""
    return any(up.tag == tag for element in document.find_all(tag) for up in element.ancestors())


ALL_GENERATORS = [
    ProteinDatabaseGenerator(ProteinConfig(entries=30), seed=1),
    RecursiveBookGenerator(RecursiveConfig(section_depth=3, table_depth=3), seed=2),
    AuctionGenerator(AuctionConfig(items=15, people=8, open_auctions=8), seed=3),
    NewsFeedGenerator(NewsFeedConfig(updates=60), seed=4),
    RandomTreeGenerator(seed=5),
]


class TestCommonGeneratorProperties:
    @pytest.mark.parametrize("generator", ALL_GENERATORS, ids=lambda g: g.name)
    def test_output_is_well_formed(self, generator):
        parse_document(generator.text())  # raises XMLSyntaxError when malformed

    @pytest.mark.parametrize("generator", ALL_GENERATORS, ids=lambda g: g.name)
    def test_output_is_accepted_by_expat(self, generator):
        # expat is a conforming XML 1.0 parser: a second, independent check.
        events = list(iter_events(generator.text(), parser="expat"))
        assert events == list(iter_events(generator.text(), parser="pure"))

    @pytest.mark.parametrize("generator", ALL_GENERATORS, ids=lambda g: g.name)
    def test_generation_is_deterministic(self, generator):
        assert generator.text() == generator.text()

    @pytest.mark.parametrize("generator", ALL_GENERATORS, ids=lambda g: g.name)
    def test_chunks_match_text(self, generator):
        assert "".join(generator.chunks()) == generator.text()

    def test_different_seeds_give_different_documents(self):
        a = ProteinDatabaseGenerator(ProteinConfig(entries=5), seed=1).text()
        b = ProteinDatabaseGenerator(ProteinConfig(entries=5), seed=2).text()
        assert a != b


class TestProteinDataset:
    def test_entry_count(self):
        generator = ProteinDatabaseGenerator(ProteinConfig(entries=25), seed=1)
        document = parse_document(generator.text())
        assert len(document.find_all("ProteinEntry")) == 25

    def test_every_entry_has_id_attribute(self):
        generator = ProteinDatabaseGenerator(ProteinConfig(entries=10), seed=1)
        document = parse_document(generator.text())
        assert all(entry.get("id") for entry in document.find_all("ProteinEntry"))

    def test_reference_probability_zero_and_one(self):
        none = ProteinDatabaseGenerator(
            ProteinConfig(entries=10, reference_probability=0.0), seed=1
        ).text()
        all_refs = ProteinDatabaseGenerator(
            ProteinConfig(entries=10, reference_probability=1.0), seed=1
        ).text()
        assert len(evaluate("//ProteinEntry[reference]", none)) == 0
        assert len(evaluate("//ProteinEntry[reference]", all_refs)) == 10

    def test_paper_query_answers_match_reference_probability(self):
        generator = ProteinDatabaseGenerator(
            ProteinConfig(entries=40, reference_probability=0.5), seed=7
        )
        text = generator.text()
        with_refs = len(evaluate("//ProteinEntry[reference]/@id", text))
        total = len(evaluate("//ProteinEntry/@id", text))
        assert total == 40
        assert 0 < with_refs < 40

    def test_target_bytes_scaling(self):
        small = protein_dataset_of_size(50 * 1024, seed=1).size_bytes()
        large = protein_dataset_of_size(200 * 1024, seed=1).size_bytes()
        assert small >= 50 * 1024
        assert large >= 200 * 1024
        assert large > 2 * small

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            ProteinDatabaseGenerator(ProteinConfig(entries=0))
        with pytest.raises(DatasetError):
            ProteinDatabaseGenerator(ProteinConfig(target_bytes=10))
        with pytest.raises(DatasetError):
            ProteinDatabaseGenerator(ProteinConfig(reference_probability=1.5))


class TestRecursiveDataset:
    def test_sections_nest_recursively(self):
        text = RecursiveBookGenerator(
            RecursiveConfig(section_depth=4, table_depth=3), seed=1
        ).text()
        document = parse_document(text)
        assert nests_in_itself(document, "section")
        assert nests_in_itself(document, "table")

    def test_depth_controls_nesting(self):
        shallow = parse_document(small_recursive_document(section_depth=2, table_depth=2))
        deep = parse_document(small_recursive_document(section_depth=6, table_depth=6))
        assert deep.max_depth > shallow.max_depth

    def test_certain_probabilities_produce_expected_predicates(self):
        text = small_recursive_document(
            section_depth=3, table_depth=3, author_probability=1.0, position_probability=1.0
        )
        assert len(evaluate("//section[author]", text)) == 3
        assert len(evaluate("//table[position]", text)) == 3
        no_preds = small_recursive_document(
            section_depth=3, table_depth=3, author_probability=0.0, position_probability=0.0
        )
        assert len(evaluate("//section[author]", no_preds)) == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            RecursiveBookGenerator(RecursiveConfig(section_depth=0))
        with pytest.raises(DatasetError):
            RecursiveBookGenerator(RecursiveConfig(author_probability=2.0))


class TestAuctionDataset:
    def test_counts(self):
        generator = AuctionGenerator(AuctionConfig(items=12, people=7, open_auctions=9), seed=2)
        document = parse_document(generator.text())
        assert len(document.find_all("item")) == 12
        assert len(document.find_all("person")) == 7
        assert len(document.find_all("open_auction")) == 9

    def test_items_have_prices_and_names(self):
        generator = AuctionGenerator(AuctionConfig(items=10, people=5, open_auctions=5), seed=2)
        text = generator.text()
        assert len(evaluate("//item[price and name]", text)) == 10

    def test_description_recursion_present(self):
        generator = AuctionGenerator(
            AuctionConfig(items=30, people=5, open_auctions=5, description_depth=3), seed=3
        )
        document = parse_document(generator.text())
        assert nests_in_itself(document, "parlist") or nests_in_itself(document, "listitem")

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            AuctionGenerator(AuctionConfig(items=0))


class TestNewsFeedDataset:
    def test_update_count(self):
        generator = NewsFeedGenerator(NewsFeedConfig(updates=50), seed=3)
        assert len(evaluate("//update", generator.text())) == 50

    def test_plan_predicts_engine_answer(self):
        generator = NewsFeedGenerator(NewsFeedConfig(updates=120), seed=5)
        expected = generator.expected_symbol_updates("ACME")
        got = len(evaluate(generator.CANONICAL_QUERY, generator.text()))
        assert got == expected
        assert expected >= 1

    def test_first_match_position_honoured(self):
        config = NewsFeedConfig(updates=50, first_match_at=7)
        generator = NewsFeedGenerator(config, seed=3)
        index = generator.first_symbol_update_index("ACME")
        assert index is not None
        assert index <= 7

    def test_ticker_stream_helper(self):
        generator = ticker_stream(updates=20, seed=1)
        assert len(evaluate("//update", generator.text())) == 20

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            NewsFeedGenerator(NewsFeedConfig(updates=0))
        with pytest.raises(DatasetError):
            NewsFeedGenerator(NewsFeedConfig(updates=10, first_match_at=20))


class TestRandomTreeDataset:
    def test_documents_are_distinct(self):
        documents = random_documents(10, seed=3)
        assert len(set(documents)) > 1

    def test_max_depth_respected(self):
        config = RandomTreeConfig(max_depth=3)
        for seed in range(10):
            text = RandomTreeGenerator(config=config, seed=seed).text()
            assert parse_document(text).max_depth <= 3

    def test_vocabulary_respected(self):
        config = RandomTreeConfig(vocabulary=("only",))
        document = parse_document(RandomTreeGenerator(config=config, seed=1).text())
        assert {element.tag for element in document.iter()} == {"only"}

    def test_invalid_config_rejected(self):
        with pytest.raises(DatasetError):
            RandomTreeGenerator(RandomTreeConfig(vocabulary=()))
        with pytest.raises(DatasetError):
            RandomTreeGenerator(RandomTreeConfig(branch_probability=3.0))
