"""Memoised tag recognition: same answers, same errors, bounded table.

The two pure scan loops (``StreamTokenizer._scan`` and the fused scan
``_fused_pure_multi_scan``, which serves both engines) recognise a start tag
they have already validated by one dict probe on its raw text and an end tag
by literal comparison with the open element.  These tests pin what that must not change — solutions
including ``NodeRef.line``, statistics, event lists at every chunk split,
error messages and line numbers — and what it must deliver: a repeated tag
costs no regex match, and the table is bounded.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import evaluate_with_dom
from repro.core import fastpath
from repro.core import multi as multi_module
from repro.core.engine import TwigMEvaluator
from repro.core.multi import MultiQueryEvaluator
from repro.errors import XMLSyntaxError
from repro.xmlstream import tokenizer as tokenizer_module
from repro.xmlstream.tokenizer import (
    _TAG_MEMO,
    _TAG_MEMO_ENTRY_CAP,
    TAG_MEMO_KEY_CAP,
    StreamTokenizer,
    tokenize,
)

#: Well-formed documents whose tags repeat (the second occurrence is a warm
#: probe) with newlines wherever a line count could drift.
DOCS = [
    "<a>\n<b x='1'>t</b>\n<b x='1'>t</b>\n<b\nx='1'\n>t</b\n>\n<b\nx='1'\n>u</b>\n</a>\n",
    '<a><b x="1\n2">t</b>\n<b x="1\n2">t</b><c/>\n<c/></a>',
    "<a>\nline\n<b>one\ntwo</b>\n\n<b>three</b>\n</a>",
    "<?xml version='1.0'?>\n<!DOCTYPE a [\n<!ELEMENT a ANY>\n]>\n<a>\n<!-- c\nc -->\n"
    "<b>x</b><![CDATA[\nraw <b>\n]]><b>y</b>\n<?pi\ndata?>\n<b>z</b></a>\n<!-- tail\n -->\n",
    "<a>\r\n<b k='v'>x</b>\r\n<b k='v'>y</b>\r\n</a>\r\n",
    "<a><b >x</b ><b >y</b >\n<b>z</b\t></a >",
    '<a><b x="1>2">p</b>\n<b x="1>2">q</b>\n<b x="1>2"/></a>',
    "<a><bb>x</bb><b>y</b><bb/><b/>\n<b>&amp;&#65;</b><b y='&lt;'>z</b><b y='&lt;'>z</b></a>",
    # Attribute-value whitespace (XML 1.0 §3.3.3): a literal tab or line
    # break is a space, a character reference keeps its character.
    '<a><b x="1&#10;2&#9;3\t4">t</b>\n<b x="1&#10;2&#9;3\t4">t</b><b x="5\r\n6\r7"/></a>',
]

#: Malformed documents: the expected end tag is a prefix of the one found
#: (or the reverse), a second root, trailing text, attributes the regex
#: accepts but ``parse_attribute_string`` rejects.  Repeated tags first, so
#: the offending tag is met with a warm table.
MALFORMED = [
    "<a><b></b>\n<bb></b></a>",
    "<a><bb></bb>\n<b></bb></a>",
    "<a><b/><b/></a>\n<a><b/></a>",
    "<a><b/></a>\n<b/>",
    "<a><b/><b/></a>\ntrailing",
    "<a><b x='1'/>\n<b x='1' x='2'/></a>",
    "<a><b x='1'/>\n<b x='&nope;'/></a>",
    "<a><b>x</b>\n<b>&nope;</b></a>",
    "<a>\n<b></a>",
    "</a>",
]

QUERIES = ["//b", "//a/b/@x", "//*", "//b/text()", "//a[b]//bb", "//a[c]/b[@x]"]


def _fused_single(query, doc):
    evaluator = TwigMEvaluator(query)
    return evaluator.evaluate(doc, parser="pure").solutions, evaluator.statistics


def _fused_multi(query, doc):
    engine = MultiQueryEvaluator()
    engine.subscribe(query, name="q")
    return engine.evaluate(doc, parser="pure")["q"].solutions


def _expat(query, doc):
    evaluator = TwigMEvaluator(query)
    return evaluator.evaluate(doc, parser="expat").solutions, evaluator.statistics


def _staged(query, doc):
    evaluator = TwigMEvaluator(query)
    return evaluator.evaluate(list(tokenize(doc))).solutions, evaluator.statistics


def _counters(statistics):
    """Every counter but ``events``, which only event records count."""
    counters = statistics.as_dict()
    del counters["events"]
    return counters


def _error_of(call):
    with pytest.raises(XMLSyntaxError) as caught:
        call()
    return str(caught.value), caught.value.line


def _tokenize_chunks(chunks):
    tokenizer = StreamTokenizer()
    events = []
    for chunk in chunks:
        events.extend(tokenizer.feed(chunk))
    events.extend(tokenizer.close())
    return events


def _footprint(memo):
    """Bytes held by a tag table: the dict, its keys and its entries."""
    return sys.getsizeof(memo) + sum(
        sys.getsizeof(key) + sys.getsizeof(entry) + sys.getsizeof(entry[1])
        for key, entry in memo.items()
    )


def _cold_events(doc):
    _TAG_MEMO.clear()
    return list(tokenize(doc))


class _CountingPattern:
    """Stands in for a compiled pattern and counts ``match`` calls."""

    def __init__(self, pattern):
        self._pattern = pattern
        self.calls = 0

    def match(self, *args):
        self.calls += 1
        return self._pattern.match(*args)


class TestSameAnswers:
    @pytest.mark.parametrize("doc", DOCS)
    def test_the_fused_scan_takes_these_documents(self, doc, monkeypatch):
        counts = []
        scan = multi_module.fused_pure_multi_evaluate

        def spy(*args):
            counts.append(scan(*args))
            return counts[-1]

        monkeypatch.setattr(multi_module, "fused_pure_multi_evaluate", spy)
        TwigMEvaluator("//b").evaluate(doc, parser="pure")
        assert counts == [sum(1 for e in tokenize(doc) if hasattr(e, "attributes"))]

    @pytest.mark.parametrize("doc", DOCS)
    @pytest.mark.parametrize("query", QUERIES)
    def test_solutions_lines_and_statistics_agree(self, doc, query):
        oracle = evaluate_with_dom(query, doc).solutions
        staged, staged_statistics = _staged(query, doc)
        single, single_statistics = _fused_single(query, doc)
        expat, expat_statistics = _expat(query, doc)
        # Solution equality covers NodeRef.line: the line a start tag
        # begins on, whichever backend read it.
        assert staged == oracle
        assert single == oracle
        assert expat == oracle
        assert _fused_multi(query, doc) == oracle
        assert _counters(single_statistics) == _counters(staged_statistics)
        assert _counters(expat_statistics) == _counters(staged_statistics)

    @pytest.mark.parametrize("doc", MALFORMED)
    def test_errors_keep_message_and_line_on_every_occurrence(self, doc):
        expected = _error_of(lambda: _cold_events(doc))
        for _ in range(2):  # the second round meets a warm process-wide table
            assert _error_of(lambda: list(tokenize(doc))) == expected
            assert _error_of(lambda: _fused_single("//b", doc)) == expected
            assert _error_of(lambda: _fused_multi("//b", doc)) == expected


class TestChunkSplits:
    @pytest.mark.parametrize("doc", DOCS + MALFORMED)
    def test_every_two_chunk_split_with_a_warm_table(self, doc):
        try:
            expected = _cold_events(doc)
        except XMLSyntaxError as error:
            # Message only: the line reported for text after the root has
            # always depended on whether the cut fell after its newline.
            expected = error.message
        for offset in range(len(doc) + 1):
            chunks = [doc[:offset], doc[offset:]]
            if isinstance(expected, str):
                with pytest.raises(XMLSyntaxError) as caught:
                    _tokenize_chunks(chunks)
                assert caught.value.message == expected
            else:
                assert _tokenize_chunks(chunks) == expected, f"split at {offset}"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_chunking_with_a_warm_table_equals_the_cold_one_shot(self, data):
        doc = data.draw(st.sampled_from(DOCS))
        cuts = sorted(data.draw(st.sets(st.integers(0, len(doc)), max_size=12)))
        expected = _cold_events(doc)
        list(tokenize(doc))  # warm
        chunks = [doc[a:b] for a, b in zip([0] + cuts, cuts + [len(doc)])]
        assert _tokenize_chunks(chunks) == expected


class TestHitPath:
    """A memo hit must not fall through to the regex or the slow path."""

    DOC = "<a>" + "<b x='1'>t</b><c/><b>u</b>\n" * 200 + "</a>"
    SPELLINGS = 4  # <a>, <b x='1'>, <c/>, <b>

    @pytest.fixture
    def patterns(self, monkeypatch):
        start = _CountingPattern(tokenizer_module.START_TAG_RE)
        end = _CountingPattern(tokenizer_module.END_TAG_RE)
        for module in (tokenizer_module, fastpath):
            monkeypatch.setattr(module, "START_TAG_RE", start)
            monkeypatch.setattr(module, "END_TAG_RE", end)
        return start, end

    @pytest.mark.parametrize("run", [_fused_single, _fused_multi])
    def test_fused_scans_match_each_spelling_once(self, patterns, run):
        start, end = patterns
        run("//b", self.DOC)
        assert 0 < start.calls <= self.SPELLINGS
        assert end.calls == 0

    def test_tokenizer_matches_each_spelling_once_per_process(self, patterns, monkeypatch):
        start, end = patterns
        slow_path_calls = []
        original = StreamTokenizer._scan_markup
        monkeypatch.setattr(
            StreamTokenizer,
            "_scan_markup",
            lambda self, *args: slow_path_calls.append(args) or original(self, *args),
        )
        _TAG_MEMO.clear()
        first = list(tokenize(self.DOC))
        assert 0 < start.calls <= self.SPELLINGS
        assert list(tokenize(self.DOC)) == first  # a second tokenizer, same table
        assert start.calls <= self.SPELLINGS
        assert end.calls == 0
        assert not slow_path_calls


class TestBound:
    """100 k distinct attribute-bearing tags and one 1 MB attribute value."""

    @staticmethod
    def _document(tags=100_000):
        body = "".join(f'<r id="{i}"><v>x</v></r>' for i in range(tags))
        return f'<feed><big v="{"y" * 1_000_000}"/>{body}</feed>'

    def test_process_wide_table_stops_growing_and_memory_stays_flat(self):
        doc = self._document()
        head = doc.index("<r ")  # the 1 MB tag arrives whole, then 16 slices
        step = (len(doc) - head) // 16 + 1
        chunks = [doc[:head]] + [doc[i:i + step] for i in range(head, len(doc), step)]
        _TAG_MEMO.clear()
        tokenizer = StreamTokenizer()
        sizes = []
        footprints = []
        for chunk in chunks:
            tokenizer.feed(chunk)
            sizes.append(len(_TAG_MEMO))
            footprints.append(_footprint(_TAG_MEMO))
        tokenizer.close()
        assert max(sizes) <= _TAG_MEMO_ENTRY_CAP
        assert max(map(len, _TAG_MEMO)) <= TAG_MEMO_KEY_CAP
        # 6 250 distinct tags per slice against a cap of 4 096: the table
        # fills and starts over within every slice, under a fixed ceiling.
        assert max(footprints) < 1_000_000

    def test_results_equal_the_cold_table_run(self):
        doc = self._document(20_000)
        cold = _cold_events(doc)
        assert len(_TAG_MEMO) <= _TAG_MEMO_ENTRY_CAP
        assert list(tokenize(doc)) == cold  # table now holds the document's tail
        oracle = evaluate_with_dom("//r/@id", cold).solutions
        assert len(oracle) == 20_000
        assert _fused_single("//r/@id", doc)[0] == oracle
        assert _fused_multi("//r/@id", doc) == oracle

    def test_fused_tables_are_bounded_too(self, monkeypatch):
        tables = []
        original = fastpath.memoise_start_tag

        def spy(memo, *args):
            if not any(memo is seen for seen in tables):
                tables.append(memo)
            original(memo, *args)
            assert len(memo) <= _TAG_MEMO_ENTRY_CAP

        monkeypatch.setattr(fastpath, "memoise_start_tag", spy)
        doc = self._document(10_000)
        assert len(_fused_single("//big", doc)[0]) == 1
        assert len(_fused_multi("//big", doc)) == 1
        assert len(tables) == 2  # one private table per call
        assert all(max(map(len, table)) <= TAG_MEMO_KEY_CAP for table in tables)

    def test_rejected_tags_are_never_stored(self):
        _TAG_MEMO.clear()
        for doc in ("<a><b x='1' x='2'/></a>", "<a><b x='&nope;'/></a>"):
            for _ in range(3):
                with pytest.raises(XMLSyntaxError):
                    list(tokenize(doc))
        assert set(_TAG_MEMO) == {"<a>"}
