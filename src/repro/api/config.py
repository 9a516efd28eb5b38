"""Engine configuration: one typed object instead of scattered string kwargs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from ..core.multi import warn_containment_sharing
from ..xmlstream.reader import DEFAULT_CHUNK_SIZE
from ..xmlstream.sax import PARSER_BACKENDS


@dataclass(frozen=True)
class EngineConfig:
    """Configuration for :class:`repro.api.Engine` (immutable).

    Parameters
    ----------
    parser:
        Parser backend driving every evaluation and session opened by the
        engine: ``"pure"`` (alias ``"native"``, the from-scratch tokenizer)
        or ``"expat"`` (the C accelerated backend).  The same backend
        selection rules as the legacy per-call ``parser=`` kwarg, applied
        engine-wide; individual calls may still override.
    collect_statistics:
        When False, the per-machine :class:`~repro.core.statistics.\
EngineStatistics` counters are not maintained (a measurable saving on the
        per-event hot path; the subscription service runs with them off).
    chunk_size:
        Read-chunk size used when the engine pulls from files/streams.
    resumable:
        Whether sessions opened by the engine support ``snapshot()``.  Only
        meaningful for the expat backend, which must spool the raw chunk
        prefix to be able to rebuild its parser on restore; pass False to
        opt out of that memory cost.
    containment_sharing:
        Deprecated no-op, kept until 2.0.  Containment sharing is how the
        engine always runs since 1.5: queries anchored at the same label
        (linear paths selecting it, and paths predicated only at it) share
        one anchor machine plus per-shape residual checks
        (:mod:`repro.xpath.containment`).  Passing
        any value raises a :class:`DeprecationWarning`; nothing reads it.
    """

    parser: str = "native"
    collect_statistics: bool = True
    chunk_size: int = DEFAULT_CHUNK_SIZE
    resumable: bool = True
    containment_sharing: Optional[bool] = None

    #: The valid ``parser`` spellings, shared with the CLI ``--parser`` flag.
    PARSERS: ClassVar[Tuple[str, ...]] = PARSER_BACKENDS

    def __post_init__(self) -> None:
        if self.parser not in PARSER_BACKENDS:
            raise ValueError(
                f"unknown parser backend {self.parser!r}; "
                f"expected one of {PARSER_BACKENDS}"
            )
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.containment_sharing is not None:
            warn_containment_sharing(stacklevel=3)


__all__ = ["EngineConfig"]
