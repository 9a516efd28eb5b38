"""Synthetic datasets used by tests, examples and ``vitex generate``.

The Georgetown PIR Protein Sequence Database used by the paper is not
redistributable, so :mod:`repro.datasets.protein` generates a structurally
equivalent substitute; the other generators cover the recursive documents the
motivation section describes, XMark-style auction data, stock/news streams
and random trees for differential testing.  Every generator is seeded and can
stream its output in chunks.
"""

from .auction import AuctionConfig, AuctionGenerator
from .base import DatasetGenerator, StringDataset, XMLWriter, chunked
from .figures import (
    FIGURE_1_CELL8_MATCH_COUNT,
    FIGURE_1_LINES,
    FIGURE_1_QUERY,
    FIGURE_1_XML,
    PROTEIN_EXAMPLE_QUERY,
    figure_1_dataset,
    figure_1_expected_solution_lines,
)
from .newsfeed import NewsFeedConfig, NewsFeedGenerator, ticker_stream
from .protein import ProteinConfig, ProteinDatabaseGenerator, protein_dataset_of_size
from .randomtree import RandomTreeConfig, RandomTreeGenerator, random_documents
from .recursive import RecursiveBookGenerator, RecursiveConfig, small_recursive_document
from .treebank import TreebankConfig, TreebankGenerator, treebank_of

__all__ = [
    "AuctionConfig",
    "AuctionGenerator",
    "DatasetGenerator",
    "FIGURE_1_CELL8_MATCH_COUNT",
    "FIGURE_1_LINES",
    "FIGURE_1_QUERY",
    "FIGURE_1_XML",
    "NewsFeedConfig",
    "NewsFeedGenerator",
    "PROTEIN_EXAMPLE_QUERY",
    "ProteinConfig",
    "ProteinDatabaseGenerator",
    "RandomTreeConfig",
    "RandomTreeGenerator",
    "RecursiveBookGenerator",
    "RecursiveConfig",
    "StringDataset",
    "TreebankConfig",
    "TreebankGenerator",
    "XMLWriter",
    "chunked",
    "figure_1_dataset",
    "figure_1_expected_solution_lines",
    "protein_dataset_of_size",
    "random_documents",
    "small_recursive_document",
    "ticker_stream",
    "treebank_of",
]
