"""The asyncio serving front end over :class:`KeywordSearchEngine`.

The engine itself is synchronous and CPU-bound; what a multi-tenant
deployment needs in front of it is *admission control and latency
shaping*, not more query machinery:

* a **bounded request queue** — beyond it, requests are shed with a
  typed :class:`Overloaded` instead of queueing into a latency cliff;
* **per-view inflight limits** — one hot view cannot occupy the whole
  queue (see :mod:`repro.serving.admission`);
* **one bound on execution** — at most ``workers`` engine calls run at
  once, started in arrival order.  Requests beyond it wait in the
  backlog, where they cost a list slot, instead of inside the engine,
  where they cost a blocked thread;
* **startup pre-warming** — configured hot views get one
  ``build_skeleton`` per ``(view, doc)`` before traffic arrives, so
  first-contact keyword queries run the warm array-sweep path
  (:mod:`repro.serving.warmup`);
* **per-request observability** — every :class:`ServeResult` carries
  the engine's ``SearchOutcome`` (cache hits, phase timings) plus
  queue/service/end-to-end latencies; the engine's cumulative cache
  counters are ``engine.stats()`` (``/stats``).

A request is **one thread hop**: ``search`` admits, queues and calls a
synchronous dispatcher, which hands the head of the backlog to the pool
(``executor.submit``) while fewer than ``workers`` calls execute; the pool
thread wakes the loop once (``call_soon_threadsafe``), and that
callback releases, records, resolves the caller's future and dispatches
again — no server-owned Task, and uncontended is just the general path
with nothing to wait for.  The hop stays: an engine call may fetch from
a peer, read a store file or sit in an injected hang, which must stall
one request, never the loop.  The engine's entry points are thread-safe
(one lock per cache tier, thread-local timings; the cache stress tests
and the concurrent difftest lock that down).  All server methods must be
called from the event loop that ``start()`` ran on.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence, Union

from repro.core.engine import KeywordSearchEngine
from repro.core.outcome import SearchOutcome, SearchResult, View
from repro.core.sharding import CorpusCoordinator
from repro.serving.admission import (
    AdmissionController,
    Overloaded,
    REASON_SERVER_STOPPED,
)
from repro.serving.stats import ServingStats
from repro.serving.warmup import WarmupReport, execute_warmup, plan_warmup


@dataclass(frozen=True)
class ServerConfig:
    """The serving knobs (see README "Serving")."""

    #: Requests queued but not yet executing; beyond it: ``queue_full``.
    max_queue_depth: int = 64
    #: Queued + executing requests per view; beyond it: ``view_saturated``.
    max_inflight_per_view: int = 16
    #: Executor threads == engine calls executing at once (the one
    #: bound on execution; the rest wait in the backlog, FIFO).
    workers: int = 2
    #: Views pre-warmed during ``start()``, before traffic is accepted.
    warm_views: tuple[str, ...] = ()


@dataclass
class ServeResult:
    """One admitted-and-served request: results plus serving telemetry."""

    outcome: SearchOutcome
    view: str
    keywords: tuple[str, ...]
    #: Seconds spent queued, before execution.
    queue_wait: float
    #: Seconds inside the engine (thread-pool execution).
    service_time: float
    #: End-to-end seconds from admission to completion.
    latency: float

    @property
    def results(self) -> list[SearchResult]:
        return self.outcome.results

    @property
    def cache_hits(self) -> dict[str, str]:
        """Per-document deepest cache tier hit (``SearchOutcome.cache_hits``)."""
        return self.outcome.cache_hits


@dataclass(eq=False)
class _Request:
    """An admitted unit of work (internal): queued, then executing."""

    view_name: str
    keywords: tuple[str, ...]
    call: Callable[[], SearchOutcome]  # the bound engine call
    future: "asyncio.Future[Union[ServeResult, Overloaded]]"
    admitted_at: float = field(default_factory=time.perf_counter)
    started_at: float = 0.0  # handed to the executor (loop clock)


class SearchServer:
    """Bounded async serving over one engine (``async with`` friendly).

    Usage::

        engine = KeywordSearchEngine(database)
        engine.define_view("bookrevs", VIEW_TEXT)
        config = ServerConfig(warm_views=("bookrevs",))
        async with SearchServer(engine, config) as server:
            response = await server.search("bookrevs", ("xml", "search"))
            if isinstance(response, Overloaded):
                ...  # shed: back off or fail over
            else:
                response.results  # ranked SearchResults
    """

    def __init__(
        self,
        engine: Union[KeywordSearchEngine, CorpusCoordinator],
        config: Optional[ServerConfig] = None,
    ):
        self.engine = engine
        self.config = config or ServerConfig()
        self.stats = ServingStats()
        self.admission = AdmissionController(
            self.config.max_queue_depth, self.config.max_inflight_per_view
        )
        self.startup_warmup: Optional[WarmupReport] = None
        self._running = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        # Admitted requests wait in `_backlog` (FIFO, max_queue_depth
        # long) until the dispatcher moves them to `_executing` (at most
        # `workers`).
        self._backlog: deque[_Request] = deque()
        self._executing: set[_Request] = set()
        self._idle: Optional[asyncio.Event] = None  # set: both are empty

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the server is accepting traffic (the health signal
        the HTTP front end reports)."""
        return self._running

    async def __aenter__(self) -> "SearchServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def start(self) -> None:
        """Bind to the running loop, pre-warm hot views, accept traffic."""
        if self._running:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serving",
        )
        self._idle = asyncio.Event()
        self._idle.set()
        try:
            if self.config.warm_views:
                self.startup_warmup = await self.warm_up(
                    *self.config.warm_views
                )
        except BaseException:
            # A failed warm-up (typo'd hot view, view gone stale before
            # startup) must not leak the executor's non-daemon threads
            # or leave a half-initialized server behind a passing
            # `_running` guard on retry.
            self._executor.shutdown(wait=True)
            self._executor = None
            raise
        self._running = True

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting; with ``drain``, finish everything admitted first."""
        if self._executor is None:
            return
        self._running = False
        if drain:
            await self._idle.wait()
        # drain=False leaves requests behind: shed them, queued or
        # executing alike, so no caller awaits forever (an engine call
        # runs on; `_complete` finds it gone and drops the result).
        for request in (*self._backlog, *self._executing):
            self.admission.release(request.view_name)
            stopped = self._stopped_response(request.view_name)
            if not request.future.done():
                request.future.set_result(stopped)
        self._backlog.clear()
        self._executing = set()
        self._idle.set()
        executor, self._executor = self._executor, None
        # Waiting synchronously would freeze the event loop until every
        # in-flight engine call returns (with drain=False those are
        # exactly the calls nobody is waiting for); park the blocking
        # join on the loop's default executor instead.
        await asyncio.get_running_loop().run_in_executor(
            None, partial(executor.shutdown, wait=True)
        )

    # -- serving -------------------------------------------------------------

    async def search(
        self,
        view: Union[View, str],
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
        materialize: bool = False,
    ) -> Union[ServeResult, Overloaded]:
        """Admit, queue, execute; or shed with a typed ``Overloaded``.

        Engine-level errors (unknown view, stale view, a document
        dropped mid-flight) raise exactly as they do on the synchronous
        API; ``Overloaded`` is reserved for load decisions.  With
        ``materialize=True`` winners are expanded inside the thread
        pool, so reading ``to_xml()`` afterwards never blocks the loop.
        """
        view_name = view if isinstance(view, str) else view.name
        self.engine.get_view(view_name)  # raises on unknown
        self.stats.record_submitted()
        if not self._running:
            return self._stopped_response(view_name)
        decision = self.admission.try_admit(view_name, len(self._backlog))
        if decision is not None:
            self.stats.record_rejected(decision.reason)
            return decision
        keywords = tuple(keywords)
        request = _Request(
            view_name,
            keywords,
            partial(
                self.engine.search_detailed,
                view_name,
                keywords,
                top_k=top_k,
                conjunctive=conjunctive,
                materialize=materialize,
            ),
            self._loop.create_future(),
        )
        self._backlog.append(request)
        self._idle.clear()
        self._dispatch()
        return await request.future

    async def warm_up(self, *view_names: str) -> WarmupReport:
        """Pre-warm views now (startup calls this for ``warm_views``).

        One ``build_skeleton`` per ``(view, doc)`` plus the
        keyword-independent evaluation, executed in the thread pool;
        after it returns, first-contact keyword queries against these
        views hit the skeleton tier (or better) and perform zero
        path-index probes.
        """
        if self._loop is None or self._executor is None:
            raise RuntimeError("server not started")
        targets = plan_warmup(self.engine, view_names)
        report = await self._loop.run_in_executor(
            self._executor, execute_warmup, self.engine, targets
        )
        self.stats.record_warmed(len(targets))
        return report

    # -- internals -----------------------------------------------------------

    def _stopped_response(self, view_name: str) -> Overloaded:
        self.stats.record_rejected(REASON_SERVER_STOPPED)
        return Overloaded(
            reason=REASON_SERVER_STOPPED,
            view=view_name,
            queue_depth=len(self._backlog),
            inflight=self.admission.inflight(view_name),
            limit=0,
        )

    def _dispatch(self) -> None:
        """Start the head of the backlog while fewer than ``workers``
        calls are executing: plain FIFO, nothing overtakes."""
        backlog, workers = self._backlog, self.config.workers
        while backlog and len(self._executing) < workers:
            request = backlog.popleft()
            self._executing.add(request)
            request.started_at = time.perf_counter()
            self._executor.submit(self._execute, request)

    def _execute(self, request: _Request) -> None:
        """On a pool thread: the engine call, then one wake-up of the loop."""
        outcome = error = None
        try:
            outcome = request.call()
        except BaseException as exc:  # re-raised at the caller's await
            error = exc
        try:
            self._loop.call_soon_threadsafe(self._complete, request, outcome, error)
        except RuntimeError:
            pass  # the loop is closed: nobody is left to tell

    def _complete(self, request: _Request, outcome, error) -> None:
        """On the loop, with the call's ``SearchOutcome`` or the exception
        it raised: release, record, resolve — then dispatch again."""
        finished = time.perf_counter()
        if request not in self._executing:
            return  # shed by stop(drain=False); already answered
        self._executing.remove(request)
        self.admission.release(request.view_name)
        future = request.future
        if error is not None:
            self.stats.record_failed()
            if not future.done():
                future.set_exception(error)
        else:
            served = ServeResult(
                outcome=outcome,
                view=request.view_name,
                keywords=request.keywords,
                queue_wait=request.started_at - request.admitted_at,
                service_time=finished - request.started_at,
                latency=finished - request.admitted_at,
            )
            self.stats.record_completed(
                served.queue_wait,
                served.service_time,
                served.latency,
                outcome.cache_hits,
                degraded=outcome.degraded,
            )
            if not future.done():
                future.set_result(served)
        if self._backlog:
            self._dispatch()
        elif not self._executing:
            self._idle.set()

    # -- diagnostics ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Server + admission + engine-cache state, one consistent read."""
        engine_stats = self.engine.stats()
        return {
            "running": self._running,
            "queue_depth": len(self._backlog),
            "requests": self.stats.snapshot(),
            "admission": self.admission.snapshot(),
            "cache": engine_stats["cache"],
            "snapshot_store": engine_stats["snapshot_store"],
            "health": self.engine.health_snapshot(),
        }
