"""Streaming subscription service: standing XPath queries over live XML.

The paper's motivating scenario — many clients holding standing queries
against one XML stream that is still arriving — needs more than a library:
it needs a long-lived process that owns the shared
:class:`~repro.core.multi.MultiQueryEvaluator`, accepts the stream from the
wire, and fans solutions out to subscribers as each chunk is parsed.  This
package is that process:

* :mod:`repro.service.protocol` — the line-delimited JSON wire protocol
  (``subscribe`` / ``unsubscribe`` / ``feed`` / ``finish`` / ``stats`` and
  the ``solution`` push frames);
* :mod:`repro.service.server` — the asyncio server: per-connection
  subscription ownership, chunk-level push parsing via
  :class:`~repro.core.session.StreamSession`, bounded per-client outboxes
  with drop-oldest backpressure, graceful teardown;
* :mod:`repro.service.client` — the asyncio client used by ``vitex
  publish`` / ``vitex subscribe``.
"""

from .client import ServiceClient, ServiceConnection, ServiceError
from .protocol import (
    decode_frame,
    encode_frame,
    solution_from_payload,
    solution_to_payload,
)
from .server import ServiceServer

__all__ = [
    "ServiceClient",
    "ServiceConnection",
    "ServiceError",
    "ServiceServer",
    "decode_frame",
    "encode_frame",
    "solution_from_payload",
    "solution_to_payload",
]
