"""Async serving layer: admission control, one bound on concurrent
engine calls (``ServerConfig.workers``, FIFO), hot-view pre-warming and
request-level stats over the search engine.

Public surface::

    from repro.serving import (
        SearchServer, ServerConfig, ServeResult,     # the front end
        Overloaded, AdmissionController,             # admission
        WarmupReport, WarmupTarget, plan_warmup, execute_warmup,
        ServingStats, LatencyRecorder,
        SearchAPI, HTTPServingEndpoint, BackgroundHTTPServing,  # wire
        OVERLOAD_STATUS, ENGINE_ERROR_STATUS,
    )
"""

from repro.serving.admission import (
    REASON_QUEUE_FULL,
    REASON_SERVER_STOPPED,
    REASON_VIEW_SATURATED,
    AdmissionController,
    Overloaded,
)
from repro.serving.http import (
    BackgroundHTTPServing,
    ENGINE_ERROR_STATUS,
    HTTPServingEndpoint,
    OVERLOAD_STATUS,
    SearchAPI,
)
from repro.serving.server import SearchServer, ServeResult, ServerConfig
from repro.serving.stats import LatencyRecorder, ServingStats
from repro.serving.warmup import (
    WarmupReport,
    WarmupTarget,
    execute_warmup,
    plan_warmup,
)

__all__ = [
    "AdmissionController",
    "BackgroundHTTPServing",
    "ENGINE_ERROR_STATUS",
    "HTTPServingEndpoint",
    "LatencyRecorder",
    "OVERLOAD_STATUS",
    "Overloaded",
    "SearchAPI",
    "REASON_QUEUE_FULL",
    "REASON_SERVER_STOPPED",
    "REASON_VIEW_SATURATED",
    "SearchServer",
    "ServeResult",
    "ServerConfig",
    "ServingStats",
    "WarmupReport",
    "WarmupTarget",
    "execute_warmup",
    "plan_warmup",
]
