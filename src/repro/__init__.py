"""ViteX reproduction: a streaming XPath processing system (ICDE 2005).

This package re-implements the ViteX system of Chen, Davidson and Zheng:
single-pass XPath evaluation over XML streams with polynomial time and space,
built on the TwigM machine.  The unified public API is re-exported here —
one engine, one query type, one match type, across local, streaming and
remote modes::

    from repro import Engine, Query, connect, evaluate

    # one-shot helper
    for solution in evaluate("//ProteinEntry[reference]/@id", "protein.xml"):
        print(solution.describe())

    # standing subscriptions over one engine
    with Engine() as engine:
        acme = engine.subscribe(Query("//update[quote/@symbol='ACME']"))
        results = engine.evaluate("feed.xml")[acme.name]

    # the same verbs over the wire (asyncio)
    engine = await connect("127.0.0.1", 8005)

Sub-packages:

* :mod:`repro.api`       — the unified facade (Query/Engine/Match/connect)
* :mod:`repro.xmlstream` — streaming XML substrate (tokenizer, SAX bridge, DOM)
* :mod:`repro.xpath`     — XPath lexer/parser/normalizer for XP{/,//,*,[]}
* :mod:`repro.core`      — the TwigM machine, builder and evaluation engine
* :mod:`repro.service`   — the asyncio subscription service (server + client)
* :mod:`repro.baselines` — DOM oracle and naive enumerating streamer
* :mod:`repro.datasets`  — synthetic datasets (protein, recursive, auction, news)
* :mod:`repro.bench`     — benchmark harness reproducing the paper's experiments

Legacy entry points (``TwigMEvaluator``, ``MultiQueryEvaluator.register``,
``ServiceClient``) keep working behind thin :class:`DeprecationWarning`
shims; see the README migration table.
"""

from .api import (
    Engine,
    EngineConfig,
    Match,
    Query,
    RemoteEngine,
    RemoteSession,
    RemoteSubscription,
    Session,
    connect,
)
from .api.compat import TwigMEvaluator
from .core.checkpoint import dumps_snapshot, loads_snapshot
from .core.docstream import DocumentStreamSession, WindowStats
from .core.engine import evaluate, stream_evaluate
from .core.multi import MultiQueryEvaluator, Subscription, evaluate_many
from .core.results import NodeRef, ResultSet, Solution, SolutionKind
from .core.session import StreamSession
from .errors import (
    CheckpointError,
    DatasetError,
    EngineError,
    UnsupportedFeatureError,
    ViteXError,
    XMLSyntaxError,
    XPathError,
    XPathSyntaxError,
)
from .service.client import ServiceClient, ServiceError
from .xpath.normalize import compile_query
from .xpath.parser import parse_xpath

__version__ = "1.5.0"

__all__ = [
    "CheckpointError",
    "DatasetError",
    "DocumentStreamSession",
    "Engine",
    "EngineConfig",
    "EngineError",
    "Match",
    "MultiQueryEvaluator",
    "NodeRef",
    "Query",
    "RemoteEngine",
    "RemoteSession",
    "RemoteSubscription",
    "ResultSet",
    "ServiceClient",
    "ServiceError",
    "Session",
    "Solution",
    "SolutionKind",
    "StreamSession",
    "Subscription",
    "TwigMEvaluator",
    "UnsupportedFeatureError",
    "ViteXError",
    "WindowStats",
    "XMLSyntaxError",
    "XPathError",
    "XPathSyntaxError",
    "__version__",
    "compile_query",
    "connect",
    "dumps_snapshot",
    "evaluate",
    "evaluate_many",
    "loads_snapshot",
    "parse_xpath",
    "stream_evaluate",
]
