"""XPath 1.0 comparisons (§3.4) with ``number()`` conversion (§4.4).

The DOM oracle evaluates value tests with the engine's own
:class:`~repro.xpath.ast.ValueTest`, so these expectations are written by
hand: each case lists the pre-order numbers of the selected elements.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.xpath.ast import xpath_number

# Pre-order: r=0, then each <c> and its <b> child in turn.
VALUES = ["x", "2", "1e3", "1_000", "1000", " 1000.0 ", "inf", "-.5", "3.", ""]
DOCUMENT = "<r>" + "".join(f"<c><b>{value}</b></c>" for value in VALUES) + "</r>"
SELF = "<r>" + "".join(f"<c>{value}</c>" for value in ["y", "3", "x", " 12 "]) + "</r>"


def _c(*positions):
    """Pre-order of the ``<c>`` elements at ``positions`` in ``VALUES``."""
    return [1 + 2 * position for position in positions]


CASES = [
    # != against a number: NaN != 2 is true.
    ("//c[b != 2]", DOCUMENT, _c(0, 2, 3, 4, 5, 6, 7, 8, 9)),
    # Python's float() spellings are not XPath numbers.
    ("//c[b = 1000]", DOCUMENT, _c(4, 5)),
    ("//c[b > 2]", DOCUMENT, _c(4, 5, 8)),
    ("//c[b <= 2]", DOCUMENT, _c(1, 7)),
    ("//c[b < 0]", DOCUMENT, _c(7)),
    # = and != against a string compare strings.
    ("//c[b = '1000']", DOCUMENT, _c(4)),
    ("//c[b != 'x']", DOCUMENT, _c(1, 2, 3, 4, 5, 6, 7, 8, 9)),
    # Relational operators convert both sides, a string literal too.
    ("//c[b >= '2']", DOCUMENT, _c(1, 4, 5, 8)),
    ("//c[. > 'x']", SELF, []),
    ("//c[. > '2']", SELF, [2, 4]),
    ("//c[. < 'z']", SELF, []),
    ("//c[2 < .]", SELF, [2, 4]),
]


@pytest.mark.parametrize("parser", ["pure", "expat"])
@pytest.mark.parametrize("query, document, expected", CASES)
def test_comparison_follows_xpath(query, document, expected, parser):
    orders = [solution.node.order for solution in repro.evaluate(query, document, parser=parser)]
    assert orders == expected


@pytest.mark.parametrize("parser", ["pure", "expat"])
@pytest.mark.parametrize("query, document, expected", CASES)
def test_comparison_in_a_push_session(query, document, expected, parser):
    with repro.Engine() as engine:
        engine.subscribe(query, name="q")
        session = engine.open(parser=parser)
        for start in range(0, len(document), 5):
            session.feed_text(document[start:start + 5])
        session.finish()
        assert [solution.node.order for solution in engine.results()["q"]] == expected


@pytest.mark.parametrize(
    "text, number",
    [("2", 2.0), (" -3.5\n", -3.5), (".5", 0.5), ("7.", 7.0), ("-0", 0.0)],
)
def test_number_reads_xpath_numbers(text, number):
    assert xpath_number(text) == number


@pytest.mark.parametrize(
    "text", ["", " ", "x", "1e3", "1_000", "inf", "nan", "+1", "--1", "1.2.3", "١٢"]
)
def test_number_is_nan_for_everything_else(text):
    assert math.isnan(xpath_number(text))
