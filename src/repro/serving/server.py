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
  reports them (``engine.shard_for``: cache shards under a lone engine,
  shard executors under a coordinator — the server never asks which),
  and a per-lane semaphore bounds concurrent execution per shard.
  Requests that would contend on a shard's lock serialize in front of
  the cache, where they cost an ``await``, instead of inside it, where
  they cost a blocked thread;
* **startup pre-warming** — configured hot views get one
  ``build_skeleton`` per ``(view, doc)`` before traffic arrives, so
  first-contact keyword queries run the warm array-sweep path
  (:mod:`repro.serving.warmup`);
* **per-request observability** — every :class:`ServeResult` carries
  the engine's ``SearchOutcome`` (cache hits, phase timings,
  ``cache_stats``) plus queue/service/end-to-end latencies, and each
  served request's cache outcome feeds the admission controller's
  cold-view shedding signal.

Engine calls run in a thread pool (``run_in_executor``); the engine's
entry points are thread-safe (sharded cache locks, thread-local
timings), which PR 2's stress tests and the concurrent differential
suite lock down.  All server methods must be called from the event loop
that ``start()`` ran on.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import AsyncExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional, Sequence, Union

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
    #: Concurrent requests per cache-shard lane (1 = serialize a shard).
    shard_lane_width: int = 2
    #: Worker coroutines == executor threads executing engine calls.
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
    #: Cache-shard lanes the request executed under (sorted).
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


@dataclass
class _Request:
    """A queued unit of work (internal)."""

    view_name: str
    keywords: tuple[str, ...]
    top_k: Optional[int]
    conjunctive: bool
    materialize: bool
    lanes: tuple[int, ...]
    future: "asyncio.Future[ServeResult]"
    admitted_at: float = field(default_factory=time.perf_counter)


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
        # (shard executors, or cache shards), as the engine reports it.
        self.lane_count = engine.shard_count
        self.startup_warmup: Optional[WarmupReport] = None
        self._running = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._queue: Optional["asyncio.Queue[_Request]"] = None
        self._lanes: list[asyncio.Semaphore] = []
        self._workers: list["asyncio.Task[None]"] = []

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
        self._queue = asyncio.Queue(maxsize=self.config.max_queue_depth)
        self._lanes = [
            asyncio.Semaphore(self.config.shard_lane_width)
            for _ in range(self.lane_count)
        ]
        try:
            if self.config.warm_views:
                self.startup_warmup = await self.warm_up(
                    *self.config.warm_views
                )
            self._workers = [
                self._loop.create_task(
                    self._worker_loop(), name=f"repro-serving-worker-{index}"
                )
                for index in range(self.config.workers)
            ]
        except BaseException:
            # A failed warm-up (typo'd hot view, view gone stale before
            # startup) must not leak the executor's non-daemon threads
            # or leave a half-initialized server behind a passing
            # `_running` guard on retry.
            self._executor.shutdown(wait=True)
            self._executor = None
            self._queue = None
            self._lanes = []
            raise
        self._running = True

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting; with ``drain``, finish everything queued first."""
        if self._queue is None:
            return
        self._running = False
        if drain:
            await self._queue.join()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        # drain=False (or a worker dying mid-cancel) can leave queued
        # requests behind: shed them so no caller awaits forever.
        while not self._queue.empty():
            request = self._queue.get_nowait()
            self.admission.release(request.view_name, request.lanes)
            self.stats.record_rejected(REASON_SERVER_STOPPED)
            if not request.future.done():
                request.future.set_result(
                    self._stopped_response(request.view_name)
                )
            self._queue.task_done()
        if self._executor is not None:
            # Waiting synchronously would freeze the event loop until
            # every in-flight engine call returns (with drain=False
            # those are exactly the calls nobody is waiting for); park
            # the blocking join on the loop's default executor instead.
            await asyncio.get_running_loop().run_in_executor(
                None, partial(self._executor.shutdown, wait=True)
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
        if not self._running or self._queue is None:
            self.stats.record_rejected(REASON_SERVER_STOPPED)
            return self._stopped_response(view_name)
        # Lanes are resolved *before* admission so the per-shard inflight
        # bound can see which shards this request would occupy.
        lanes = self.route(resolved)
        decision = self.admission.try_admit(
            view_name, self._queue.qsize(), shards=lanes
        )
        if decision is not None:
            self.stats.record_rejected(decision.reason)
            return decision
        assert self._loop is not None
        request = _Request(
            view_name=view_name,
            keywords=tuple(keywords),
            top_k=top_k,
            conjunctive=conjunctive,
            materialize=materialize,
            lanes=lanes,
            future=self._loop.create_future(),
        )
        # Cannot overflow: admission just saw qsize() < max_queue_depth
        # and nothing awaited since (single-threaded loop).
        self._queue.put_nowait(request)
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
        the cache shards, or shard executors, it will touch, and no
        layer holds a second opinion about placement.
        """
        if isinstance(view, str):
            view = self.engine.get_view(view)
        return tuple(
            sorted(
                {
                    self.engine.shard_for(view.name, doc_name)
                    for doc_name in view.document_names
                }
            )
        )

    # -- internals -----------------------------------------------------------

    def _stopped_response(self, view_name: str) -> Overloaded:
        return Overloaded(
            reason=REASON_SERVER_STOPPED,
            view=view_name,
            queue_depth=self._queue.qsize() if self._queue is not None else 0,
            inflight=self.admission.inflight(view_name),
            limit=0,
        )

    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            request = await self._queue.get()
            try:
                await self._serve(request)
            finally:
                self._queue.task_done()

    async def _serve(self, request: _Request) -> None:
        assert self._loop is not None and self._executor is not None
        try:
            async with AsyncExitStack() as lanes_held:
                # Sorted acquisition order (route() sorts): two multi-doc
                # requests can never deadlock on overlapping lane sets.
                for lane in request.lanes:
                    await lanes_held.enter_async_context(self._lanes[lane])
                queue_wait = time.perf_counter() - request.admitted_at
                started = time.perf_counter()
                outcome = await self._loop.run_in_executor(
                    self._executor,
                    partial(
                        self.engine.search_detailed,
                        request.view_name,
                        request.keywords,
                        top_k=request.top_k,
                        conjunctive=request.conjunctive,
                        materialize=request.materialize,
                    ),
                )
                service_time = time.perf_counter() - started
        except BaseException as exc:
            self.admission.release(request.view_name, request.lanes)
            if isinstance(exc, asyncio.CancelledError):
                # The worker was cancelled (stop(drain=False)), not the
                # request: the caller gets the same typed stopped
                # response a still-queued request would, never a raw
                # CancelledError it cannot tell apart from its own
                # cancellation.
                self.stats.record_rejected(REASON_SERVER_STOPPED)
                if not request.future.done():
                    request.future.set_result(
                        self._stopped_response(request.view_name)
                    )
                raise
            self.stats.record_failed()
            if not request.future.done():
                request.future.set_exception(exc)
            return
        latency = time.perf_counter() - request.admitted_at
        self.admission.release(request.view_name, request.lanes)
        self.admission.observe(request.view_name, outcome.cache_hits)
        self.stats.record_completed(
            queue_wait,
            service_time,
            latency,
            outcome.cache_hits,
            degraded=outcome.degraded,
        )
        if not request.future.done():
            request.future.set_result(
                ServeResult(
                    outcome=outcome,
                    view=request.view_name,
                    keywords=request.keywords,
                    lanes=request.lanes,
                    queue_wait=queue_wait,
                    service_time=service_time,
                    latency=latency,
                )
            )

    # -- diagnostics ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Server + admission + engine-cache state, one consistent read."""
        engine_stats = self.engine.stats()
        return {
            "running": self._running,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "lane_count": self.lane_count,
            "requests": self.stats.snapshot(),
            "admission": self.admission.snapshot(),
            "cache": engine_stats["cache"],
            "snapshot_store": engine_stats["snapshot_store"],
            "health": self.engine.health_snapshot(),
        }
