"""Exception hierarchy shared across the ViteX reproduction packages.

Every error raised by the library derives from :class:`ViteXError`, so callers
can catch a single base class.  Sub-hierarchies exist for the XML substrate,
the XPath front-end and the query engine so that precise handling remains
possible.
"""

from __future__ import annotations


class ViteXError(Exception):
    """Base class for every error raised by the ViteX reproduction."""


class XMLError(ViteXError):
    """Base class for errors raised by the streaming XML substrate."""


class XMLSyntaxError(XMLError):
    """Raised when the input text is not well-formed XML.

    Attributes
    ----------
    message:
        A human-readable description of the problem.
    line:
        1-based line number where the problem was detected, or ``None``.
    column:
        1-based column number where the problem was detected, or ``None``.
    """

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}"
            if column is not None:
                location += f", column {column}"
            location += ")"
        super().__init__(f"{message}{location}")


class EncodingError(XMLError):
    """Raised when the byte stream cannot be decoded with the declared encoding."""


class XPathError(ViteXError):
    """Base class for errors raised by the XPath front-end."""


class XPathSyntaxError(XPathError):
    """Raised when an XPath expression cannot be parsed.

    Attributes
    ----------
    message:
        Description of the syntax problem.
    position:
        0-based character offset in the expression, or ``None``.
    expression:
        The offending expression text, or ``None``.
    """

    def __init__(self, message, position=None, expression=None):
        self.message = message
        self.position = position
        self.expression = expression
        detail = message
        if expression is not None and position is not None:
            pointer = " " * position + "^"
            detail = f"{message}\n  {expression}\n  {pointer}"
        super().__init__(detail)


class UnsupportedFeatureError(XPathError):
    """Raised when a query uses an XPath feature outside XP{/,//,*,[]}.

    The paper's fragment covers child axes, descendant axes, wildcards and
    predicates (plus attributes and simple value tests which the paper's own
    example query uses).  Anything else is rejected explicitly rather than
    silently mis-evaluated.
    """


class EngineError(ViteXError):
    """Base class for errors raised by query evaluation engines."""


class StreamStateError(EngineError):
    """Raised when an evaluator is driven with an inconsistent event sequence.

    For example an ``EndElement`` without a matching ``StartElement``, or
    feeding further events after ``EndDocument``.
    """


class CheckpointError(EngineError):
    """Raised when a snapshot cannot be produced, parsed or restored.

    Covers malformed/incompatible snapshot payloads (bad format marker,
    unsupported version, shape mismatches against the recompiled query) and
    restore attempts against an engine that is not fresh.
    """


class DatasetError(ViteXError):
    """Raised when a synthetic dataset generator receives invalid parameters."""
