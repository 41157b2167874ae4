"""The asyncio serving front end over :class:`KeywordSearchEngine`.

The engine itself is synchronous and CPU-bound; what a multi-tenant
deployment needs in front of it is *admission control and latency
shaping*, not more query machinery:

* a **bounded request queue** — beyond it, requests are shed with a
  typed :class:`Overloaded` instead of queueing into a latency cliff;
* **per-view inflight limits** — one hot view cannot occupy the whole
  queue (see :mod:`repro.serving.admission`);
* **shard-affine execution lanes** — each request is routed to the
  shards its ``(view, doc)`` pairs live on, as the engine itself
  reports them (``engine.shard_for``: the shard executors under a
  coordinator, one lane under a lone engine — the server never asks
  which), and a per-lane counter bounds concurrent execution per
  shard.  Requests beyond it wait in the backlog, where they cost a
  list slot, instead of inside the engine, where they cost a blocked
  thread;
* **startup pre-warming** — configured hot views get one
  ``build_skeleton`` per ``(view, doc)`` before traffic arrives, so
  first-contact keyword queries run the warm array-sweep path
  (:mod:`repro.serving.warmup`);
* **per-request observability** — every :class:`ServeResult` carries
  the engine's ``SearchOutcome`` (cache hits, phase timings,
  ``cache_stats``) plus queue/service/end-to-end latencies, and each
  served request's cache outcome feeds the admission controller's
  cold-view shedding signal.

A request is **one thread hop**: ``search`` admits, queues and calls a
synchronous dispatcher, which hands every queued request whose worker
slot and lanes are free to the pool (``executor.submit``); the pool
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence, Union

from repro.core.engine import KeywordSearchEngine, SearchOutcome, SearchResult, View
from repro.core.sharding import CorpusCoordinator
from repro.serving.admission import (
    AdmissionController,
    AdmissionLimits,
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
    #: Queued + executing requests per shard lane; ``None`` disables.
    #: Under a :class:`~repro.core.sharding.CorpusCoordinator` the lanes
    #: are shard executors, so this bounds each shard's admitted load.
    max_inflight_per_shard: Optional[int] = None
    #: Concurrent requests per lane (1 = serialize a lane).
    shard_lane_width: int = 2
    #: Executor threads == engine calls executing at once.
    workers: int = 8
    #: Views pre-warmed during ``start()``, before traffic is accepted.
    warm_views: tuple[str, ...] = ()
    #: Opt-in cold-view load shedding under queue pressure.
    shed_cold_views: bool = False
    shed_queue_fraction: float = 0.5
    shed_miss_threshold: float = 0.75
    #: Sliding-window size for the latency recorders.
    latency_window: int = 2048

    def admission_limits(self) -> AdmissionLimits:
        return AdmissionLimits(
            max_queue_depth=self.max_queue_depth,
            max_inflight_per_view=self.max_inflight_per_view,
            max_inflight_per_shard=self.max_inflight_per_shard,
            shed_cold_views=self.shed_cold_views,
            shed_queue_fraction=self.shed_queue_fraction,
            shed_miss_threshold=self.shed_miss_threshold,
        )


@dataclass
class ServeResult:
    """One admitted-and-served request: results plus serving telemetry."""

    outcome: SearchOutcome
    view: str
    keywords: tuple[str, ...]
    #: Lanes the request executed under (sorted).
    lanes: tuple[int, ...]
    #: Seconds spent queued + waiting for lanes, before execution.
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

    @property
    def cache_stats(self) -> dict[str, Any]:
        """The engine cache's consistent counter snapshot for this
        request — the signal load-shedding policies consume."""
        return self.outcome.cache_stats


@dataclass(eq=False)
class _Request:
    """An admitted unit of work (internal): queued, then executing."""

    view_name: str
    keywords: tuple[str, ...]
    lanes: tuple[int, ...]
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
        stats: Optional[ServingStats] = None,
    ):
        self.engine = engine
        self.config = config or ServerConfig()
        self.stats = stats or ServingStats(window=self.config.latency_window)
        self.admission = AdmissionController(self.config.admission_limits())
        # Lanes mirror whatever partitions the engine's own execution
        # (shard executors, or one lane for a lone engine), as the
        # engine reports it.
        self.lane_count = engine.shard_count
        self.startup_warmup: Optional[WarmupReport] = None
        self._running = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        # Admitted requests wait in `_backlog` (FIFO, max_queue_depth
        # long) until the dispatcher moves them to `_executing` (at most
        # `workers`), taking one of each of their lanes' free widths.
        self._backlog: list[_Request] = []
        self._executing: set[_Request] = set()
        self._lane_free: list[int] = []
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
        self._lane_free = [self.config.shard_lane_width] * self.lane_count
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
            self.admission.release(request.view_name, request.lanes)
            stopped = self._stopped_response(request.view_name)
            if not request.future.done():
                request.future.set_result(stopped)
        self._backlog = []
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
        resolved = self.engine.get_view(view_name)  # raises on unknown
        self.stats.record_submitted()
        if not self._running:
            return self._stopped_response(view_name)
        # Lanes are resolved *before* admission so the per-shard inflight
        # bound can see which shards this request would occupy.
        lanes = self.route(resolved)
        decision = self.admission.try_admit(
            view_name, len(self._backlog), shards=lanes
        )
        if decision is not None:
            self.stats.record_rejected(decision.reason)
            return decision
        keywords = tuple(keywords)
        request = _Request(
            view_name,
            keywords,
            lanes,
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
        # A just-warmed view serves skeleton-tier traffic: reset its
        # coldness score so stale miss history does not keep shedding it
        # after the operator explicitly warmed it.
        for view_name in dict.fromkeys(target.view for target in targets):
            self.admission.note_warmed(view_name)
        return report

    # -- routing -------------------------------------------------------------

    def route(self, view: Union[View, str]) -> tuple[int, ...]:
        """The sorted lanes a view's requests execute under: the shards
        its ``(view, doc)`` pairs live on, by the engine's own account
        (``shard_for``) — so a request serializes in front of exactly
        the shard executors it will touch (a lone engine's one lane),
        and no layer holds a second opinion about placement.
        """
        if isinstance(view, str):
            view = self.engine.get_view(view)
        shard_for = self.engine.shard_for
        return tuple(sorted({shard_for(view.name, doc) for doc in view.document_names}))

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
        """Start every queued request whose worker slot and lanes are free.

        One pass in arrival order.  A request that must wait *claims* its
        lanes for the rest of the pass: nothing behind it sharing a lane
        overtakes it (FIFO per lane; a two-lane request cannot be starved
        by one-lane streams), yet a request for idle lanes is not held up
        behind it.  Lanes are taken all at once or not at all: no deadlock.
        """
        free = self._lane_free
        workers = self.config.workers
        claimed: set[int] = set()
        waiting: list[_Request] = []
        for request in self._backlog:
            if len(self._executing) < workers and not any(
                lane in claimed or not free[lane] for lane in request.lanes
            ):
                for lane in request.lanes:
                    free[lane] -= 1
                self._executing.add(request)
                request.started_at = time.perf_counter()
                self._executor.submit(self._execute, request)
            else:
                claimed.update(request.lanes)
                waiting.append(request)
        self._backlog = waiting

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
        for lane in request.lanes:
            self._lane_free[lane] += 1
        if request not in self._executing:
            return  # shed by stop(drain=False); already answered
        self._executing.remove(request)
        self.admission.release(request.view_name, request.lanes)
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
                lanes=request.lanes,
                queue_wait=request.started_at - request.admitted_at,
                service_time=finished - request.started_at,
                latency=finished - request.admitted_at,
            )
            self.admission.observe(served.view, outcome.cache_hits)
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
            "lane_count": self.lane_count,
            "requests": self.stats.snapshot(),
            "admission": self.admission.snapshot(),
            "cache": engine_stats["cache"],
            "snapshot_store": engine_stats["snapshot_store"],
            "health": self.engine.health_snapshot(),
        }
