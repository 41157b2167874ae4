"""The serving layer: admission, dispatch, pre-warm, drain, stats.

Async tests run through ``asyncio.run`` with a hard ``wait_for``
timeout, so a stuck queue or a lost future fails the test instead of
hanging the suite.  Deterministic overload scenarios gate the engine
behind a ``threading.Event`` — the executor thread blocks exactly where
a slow query would, and the test controls when it finishes.
"""

from __future__ import annotations

import asyncio
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.serving import (
    AdmissionController,
    LatencyRecorder,
    Overloaded,
    REASON_QUEUE_FULL,
    REASON_SERVER_STOPPED,
    REASON_VIEW_SATURATED,
    SearchServer,
    ServerConfig,
    ServeResult,
    ServingStats,
    plan_warmup,
)
from repro.errors import ViewDefinitionError
from repro.workloads.bookrev import BOOKREV_VIEW, generate_bookrev_database

KEYWORD_SETS = [
    ("xml",),
    ("search",),
    ("xml", "search"),
    ("engines",),
    ("intelligence",),
    ("read", "search"),
]


def run_async(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def path_probes(db) -> int:
    return sum(db.get(n).path_index.probe_count for n in db.document_names())


def oracle_expectations(db, view_text, keyword_sets, top_k=10):
    """Ranked output per keyword set from a cache-less single caller."""
    oracle = KeywordSearchEngine(db, enable_cache=False)
    oracle_view = oracle.define_view("oracle", view_text)
    return {
        kws: [
            (r.rank, r.score, r.to_xml())
            for r in oracle.search(oracle_view, kws, top_k=top_k)
        ]
        for kws in keyword_sets
    }


def gate_engine(monkeypatch, engine):
    """Make every engine search block until the returned gate opens."""
    started = threading.Event()
    gate = threading.Event()
    real = engine.search_detailed

    def gated(*args, **kwargs):
        started.set()
        assert gate.wait(30), "test gate never opened"
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "search_detailed", gated)
    return started, gate


async def wait_for_event(event: threading.Event, timeout: float = 10.0):
    ok = await asyncio.get_running_loop().run_in_executor(
        None, event.wait, timeout
    )
    assert ok, "engine never started executing"


class TestServeCorrectness:
    def test_concurrent_serving_matches_direct_engine(
        self, bookrev_db, bookrev_view_text
    ):
        expected = oracle_expectations(
            bookrev_db, bookrev_view_text, KEYWORD_SETS
        )
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)

        async def scenario():
            config = ServerConfig(
                warm_views=("v",),
                workers=4,
                max_queue_depth=64,
                max_inflight_per_view=64,
            )
            async with SearchServer(engine, config) as server:
                responses = await asyncio.gather(
                    *[
                        server.search("v", kws)
                        for kws in KEYWORD_SETS * 4
                    ]
                )
                for kws, response in zip(KEYWORD_SETS * 4, responses):
                    assert isinstance(response, ServeResult)
                    got = [
                        (r.rank, r.score, r.to_xml())
                        for r in response.results
                    ]
                    assert got == expected[kws]
                    assert response.latency >= response.queue_wait
                snap = server.snapshot()
                assert snap["requests"]["completed"] == len(KEYWORD_SETS) * 4
                assert snap["requests"]["failed"] == 0

        run_async(scenario())

    def test_unknown_view_raises_not_sheds(self, bookrev_db, bookrev_view_text):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)

        async def scenario():
            async with SearchServer(engine) as server:
                with pytest.raises(ViewDefinitionError):
                    await server.search("nope", ("xml",))
                assert server.stats.snapshot()["submitted"] == 0

        run_async(scenario())

    def test_materialize_in_pool(self, bookrev_db, bookrev_view_text):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)

        async def scenario():
            async with SearchServer(engine) as server:
                response = await server.search(
                    "v", ("xml",), materialize=True
                )
                assert all(r.is_materialized for r in response.results)

        run_async(scenario())


class TestOverload:
    def test_queue_full_sheds_typed(
        self, monkeypatch, bookrev_db, bookrev_view_text
    ):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)
        started, gate = gate_engine(monkeypatch, engine)

        async def scenario():
            config = ServerConfig(
                max_queue_depth=1,
                workers=1,
                max_inflight_per_view=10,
            )
            async with SearchServer(engine, config) as server:
                first = asyncio.ensure_future(server.search("v", ("xml",)))
                await wait_for_event(started)  # executing, queue empty
                second = asyncio.ensure_future(server.search("v", ("search",)))
                await asyncio.sleep(0.01)  # let it enqueue (queue now full)
                shed = await server.search("v", ("engines",))
                assert isinstance(shed, Overloaded)
                assert shed.reason == REASON_QUEUE_FULL
                assert shed.view == "v"
                assert shed.queue_depth == 1
                gate.set()
                done = await asyncio.gather(first, second)
                assert all(isinstance(r, ServeResult) for r in done)
                snap = server.stats.snapshot()
                assert snap["submitted"] == 3
                assert snap["completed"] == 2
                assert snap["rejected"] == {REASON_QUEUE_FULL: 1}

        run_async(scenario())

    def test_per_view_inflight_sheds_but_other_views_serve(
        self, monkeypatch, bookrev_db, bookrev_view_text
    ):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("hot", bookrev_view_text)
        engine.define_view("other", bookrev_view_text)
        started, gate = gate_engine(monkeypatch, engine)

        async def scenario():
            config = ServerConfig(
                max_queue_depth=32,
                workers=4,
                max_inflight_per_view=1,
            )
            async with SearchServer(engine, config) as server:
                first = asyncio.ensure_future(server.search("hot", ("xml",)))
                await wait_for_event(started)
                shed = await server.search("hot", ("search",))
                assert isinstance(shed, Overloaded)
                assert shed.reason == REASON_VIEW_SATURATED
                assert shed.inflight == 1
                assert shed.limit == 1
                # The saturated view sheds; an unrelated view still serves.
                other = asyncio.ensure_future(
                    server.search("other", ("search",))
                )
                await asyncio.sleep(0.01)
                gate.set()
                done = await asyncio.gather(first, other)
                assert all(isinstance(r, ServeResult) for r in done)
                # Inflight bookkeeping drained back to zero.
                assert server.admission.inflight("hot") == 0
                assert server.admission.inflight("other") == 0

        run_async(scenario())

    def test_stop_without_drain_sheds_inflight_with_typed_response(
        self, monkeypatch, bookrev_db, bookrev_view_text
    ):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)
        started, gate = gate_engine(monkeypatch, engine)

        async def scenario():
            config = ServerConfig(workers=1)
            server = SearchServer(engine, config)
            await server.start()
            pending = [
                asyncio.ensure_future(server.search("v", kws))
                for kws in KEYWORD_SETS[:3]
            ]
            await wait_for_event(started)  # first request is mid-executor
            stopper = asyncio.ensure_future(server.stop(drain=False))
            await asyncio.sleep(0.01)
            gate.set()  # lets the executor thread (and shutdown) finish
            await stopper
            # Both the mid-flight and the still-queued requests resolve
            # to the typed stopped response — never a CancelledError the
            # caller cannot tell from its own cancellation.
            responses = await asyncio.gather(*pending)
            assert all(isinstance(r, Overloaded) for r in responses)
            assert {r.reason for r in responses} == {REASON_SERVER_STOPPED}

        run_async(scenario())

    def test_stop_rejects_new_and_drains_queued(
        self, monkeypatch, bookrev_db, bookrev_view_text
    ):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)
        started, gate = gate_engine(monkeypatch, engine)

        async def scenario():
            config = ServerConfig(workers=1)
            server = SearchServer(engine, config)
            await server.start()
            pending = [
                asyncio.ensure_future(server.search("v", kws))
                for kws in KEYWORD_SETS[:5]
            ]
            await wait_for_event(started)
            stopper = asyncio.ensure_future(server.stop(drain=True))
            await asyncio.sleep(0.01)
            gate.set()
            await stopper
            # Every admitted request completed before stop returned...
            responses = await asyncio.gather(*pending)
            assert all(isinstance(r, ServeResult) for r in responses)
            # ...and new traffic is shed with the typed stopped response.
            late = await server.search("v", ("xml",))
            assert isinstance(late, Overloaded)
            assert late.reason == REASON_SERVER_STOPPED

        run_async(scenario())


class TestDispatcherInvariants:
    """The backlog dispatcher under generated arrival sequences over
    several views: the ``workers`` bound, global FIFO, completion, the
    backlog as ``queue_depth`` — and no Task of the server's own."""

    VIEWS = ("a", "b", "c")

    def _engine(self):
        db = generate_bookrev_database(book_count=2, reviews_per_book=1)
        engine = KeywordSearchEngine(db)
        for name in self.VIEWS:
            engine.define_view(name, BOOKREV_VIEW)
        return engine

    def _gate_each(self, monkeypatch, engine, count):
        """Hold every engine call at entry until its own gate opens (a
        request is identified by its ``top_k``); record entry order and
        the most calls ever executing at once."""
        gates = [threading.Event() for _ in range(count)]
        log = {"order": [], "executing": 0, "peak": 0}
        lock = threading.Lock()
        inner = engine.search_detailed

        def gated(view_name, keywords, top_k, **kwargs):
            with lock:
                log["order"].append(top_k)
                log["executing"] += 1
                log["peak"] = max(log["peak"], log["executing"])
            try:
                assert gates[top_k].wait(30), "test gate never opened"
                return inner(view_name, keywords, top_k=top_k, **kwargs)
            finally:
                with lock:
                    log["executing"] -= 1

        monkeypatch.setattr(engine, "search_detailed", gated)
        return gates, log

    async def _arrive(self, server, arrivals, depth):
        """Submit ``arrivals`` in order against a gated engine; returns
        ``(client tasks, views)`` of the admitted ones, by request id."""
        clients, admitted = {}, {}
        for index, view in enumerate(arrivals):
            client = asyncio.ensure_future(
                server.search(view, ("xml",), top_k=index)
            )
            await asyncio.sleep(0)  # runs it up to its await
            if client.done():
                shed = client.result()
                assert isinstance(shed, Overloaded)
                assert shed.reason == REASON_QUEUE_FULL
                backlog = server.snapshot()["queue_depth"]
                assert shed.queue_depth == backlog == depth
            else:
                clients[index], admitted[index] = client, view
        return clients, admitted

    async def _entered(self, log, count):
        """Wait until ``count`` calls have reached the engine."""
        for _ in range(5000):
            if len(log["order"]) >= count:
                break
            await asyncio.sleep(0.001)
        assert len(log["order"]) == count

    @settings(max_examples=25, deadline=None)
    @given(
        arrivals=st.lists(st.sampled_from(VIEWS), min_size=1, max_size=14),
        workers=st.integers(1, 4),
        depth=st.integers(2, 14),
    )
    def test_generated_arrivals_respect_every_bound(
        self, arrivals, workers, depth
    ):
        engine = self._engine()

        async def scenario(gates, log):
            config = ServerConfig(
                workers=workers, max_queue_depth=depth, max_inflight_per_view=64
            )
            not_the_servers = asyncio.all_tasks()
            async with SearchServer(engine, config) as server:
                try:
                    clients, admitted = await self._arrive(server, arrivals, depth)
                    ids = list(admitted)  # arrival order
                    # Release the oldest request one at a time: each
                    # release lets exactly the head of the backlog in.
                    for done, request_id in enumerate(ids):
                        executing = min(workers, len(ids) - done)
                        await self._entered(log, done + executing)
                        # What entered the engine is a prefix of the arrivals.
                        assert sorted(log["order"]) == ids[: done + executing]
                        waiting = len(ids) - done - executing
                        assert server.snapshot()["queue_depth"] == waiting
                        # Gated mid-request, and the server owns no Task at
                        # all: no worker coroutines, no per-request timeout.
                        assert asyncio.all_tasks() - not_the_servers == {
                            clients[i] for i in ids[done:]
                        }
                        gates[request_id].set()
                        # Every admitted request completes, as itself.
                        response = await clients[request_id]
                        assert isinstance(response, ServeResult)
                        assert response.view == admitted[request_id]
                    assert server.snapshot()["queue_depth"] == 0
                finally:
                    for gate in gates:  # a failed check must not hang the drain
                        gate.set()
            return ids

        with pytest.MonkeyPatch.context() as monkeypatch:
            gates, log = self._gate_each(monkeypatch, engine, len(arrivals))
            ids = run_async(scenario(gates, log))
        # Engine entry order is arrival order (the first `workers` enter
        # together, in whatever order their threads win).
        first = min(workers, len(ids))
        assert sorted(log["order"][:first]) == ids[:first]
        assert log["order"][first:] == ids[first:]
        assert log["peak"] <= workers


class TestAdmissionController:
    def test_queue_bound_precedes_view_bound(self):
        controller = AdmissionController(
            max_queue_depth=4, max_inflight_per_view=2
        )
        assert controller.try_admit("v", queue_depth=4).reason == (
            REASON_QUEUE_FULL
        )
        assert controller.try_admit("v", queue_depth=0) is None
        assert controller.try_admit("v", queue_depth=0) is None
        shed = controller.try_admit("v", queue_depth=0)
        assert shed.reason == REASON_VIEW_SATURATED
        controller.release("v")
        assert controller.try_admit("v", queue_depth=0) is None
        controller.release("v")
        controller.release("v")
        assert controller.inflight("v") == 0


class TestWarmup:
    def test_plan_targets_in_view_then_document_order(
        self, bookrev_db, bookrev_view_text
    ):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)
        targets = plan_warmup(engine, ["v", "v"])  # deduplicated
        assert [(t.view, t.doc) for t in targets] == [
            ("v", "books.xml"),
            ("v", "reviews.xml"),
        ]
        with pytest.raises(ViewDefinitionError):
            plan_warmup(engine, ["v", "typo"])

    def test_failed_startup_warmup_cleans_up_and_allows_retry(
        self, bookrev_db, bookrev_view_text
    ):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)

        async def scenario():
            server = SearchServer(
                engine, ServerConfig(warm_views=("typo",))
            )
            with pytest.raises(ViewDefinitionError):
                await server.start()
            # No executor threads leaked, and the server is retryable.
            assert server._executor is None
            assert not any(
                t.name.startswith("repro-serving")
                for t in threading.enumerate()
            )
            server.config = ServerConfig(warm_views=("v",))
            await server.start()
            try:
                response = await server.search("v", ("xml",))
                assert isinstance(response, ServeResult)
            finally:
                await server.stop()

        run_async(scenario())

    def test_warm_up_reports_built_then_warm(
        self, bookrev_db, bookrev_view_text
    ):
        engine = KeywordSearchEngine(bookrev_db)
        engine.define_view("v", bookrev_view_text)

        async def scenario():
            async with SearchServer(engine) as server:
                first = await server.warm_up("v")
                assert first.built_count == 2
                assert first.warm_count == 0
                again = await server.warm_up("v")
                assert again.built_count == 0
                assert again.warm_count == 2
                assert server.stats.snapshot()["warmed_targets"] == 4

        run_async(scenario())

    def test_warm_up_prunes_stale_snapshots(
        self, tmp_path, bookrev_db, bookrev_view_text
    ):
        from repro.baselines.records import from_records
        from repro.core.snapshot import SkeletonStore
        from repro.serving.warmup import execute_warmup

        store = SkeletonStore(tmp_path / "snap")
        # A leftover snapshot no live (document, view) pair addresses.
        store.save(
            "0" * 64, "1" * 64, from_records("gone.xml", {}, 0)
        )
        engine = KeywordSearchEngine(bookrev_db, snapshot_store=store)
        engine.define_view("v", bookrev_view_text)
        report = execute_warmup(engine, plan_warmup(engine, ["v"]))
        assert report.built_count == 2
        assert report.pruned == 1
        assert report.as_dict()["pruned"] == 1
        # The snapshots the warm-up itself just wrote survived.
        assert len(store) == 2

    def test_view_dropped_mid_warmup_fails_soft_and_warms_the_rest(self):
        # A view going stale between plan_warmup and execution (here:
        # its document dropped) must not abort the pass — its targets
        # read "failed" and every other view still warms.
        from repro.serving.warmup import execute_warmup
        from repro.storage.database import XMLDatabase

        db = XMLDatabase()
        db.load_document("gone.xml", "<r><a><b>alpha</b></a></r>")
        db.load_document("kept.xml", "<r><a><b>beta</b></a></r>")
        engine = KeywordSearchEngine(db)
        engine.define_view(
            "doomed", 'for $a in fn:doc(gone.xml)/r/a return <x>{ $a/b }</x>'
        )
        engine.define_view(
            "fine", 'for $a in fn:doc(kept.xml)/r/a return <x>{ $a/b }</x>'
        )
        targets = plan_warmup(engine, ["doomed", "fine"])
        db.drop_document("gone.xml")
        report = execute_warmup(engine, targets)
        assert report.results[("doomed", "gone.xml")] == "failed"
        assert report.results[("fine", "kept.xml")] == "built"
        assert report.failed_count == 1 and report.built_count == 1
        assert "StaleViewError" in report.errors["doomed"]
        summary = report.as_dict()
        assert summary["failed"] == 1 and "doomed" in summary["errors"]

    def test_server_starts_despite_a_view_lost_mid_warmup(self):
        from repro.storage.database import XMLDatabase

        db = XMLDatabase()
        db.load_document("gone.xml", "<r><a><b>alpha</b></a></r>")
        db.load_document("kept.xml", "<r><a><b>beta</b></a></r>")
        engine = KeywordSearchEngine(db)
        engine.define_view(
            "doomed", 'for $a in fn:doc(gone.xml)/r/a return <x>{ $a/b }</x>'
        )
        engine.define_view(
            "fine", 'for $a in fn:doc(kept.xml)/r/a return <x>{ $a/b }</x>'
        )
        real_warm = engine.warm_view

        def dropping_warm(view_name, *args, **kwargs):
            # The document disappears after planning, during execution.
            if "gone.xml" in db.document_names():
                db.drop_document("gone.xml")
            return real_warm(view_name, *args, **kwargs)

        engine.warm_view = dropping_warm

        async def scenario():
            config = ServerConfig(warm_views=("doomed", "fine"))
            async with SearchServer(engine, config) as server:
                report = server.startup_warmup
                assert report is not None
                assert report.failed_count == 1
                assert report.results[("fine", "kept.xml")] in (
                    "built",
                    "warm",
                )
                response = await server.search("fine", ("beta",))
                assert isinstance(response, ServeResult)

        run_async(scenario())

# Words the pre-warm property draws never-before-queried keyword sets
# from; a mix of terms that do and do not occur in the bookrev corpus.
PROPERTY_WORDS = [
    "xml", "search", "intelligence", "indexing", "ranking",
    "views", "virtual", "dense", "excellent", "zebra", "unheard",
]


class TestPreWarmProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        keywords=st.lists(
            st.sampled_from(PROPERTY_WORDS), min_size=1, max_size=3, unique=True
        ),
        conjunctive=st.booleans(),
    )
    def test_first_contact_query_after_warm_up_skips_path_probes(
        self, keywords, conjunctive
    ):
        """After ``warm_up(view)``, the *first* query for a never-seen
        keyword set reports ``cache_hits == "skeleton"`` (or better) and
        performs zero path-index probes."""
        db = generate_bookrev_database(
            book_count=10, reviews_per_book=2, seed=3
        )
        engine = KeywordSearchEngine(db)
        engine.define_view("v", BOOKREV_VIEW)

        async def scenario():
            config = ServerConfig(warm_views=("v",), workers=2)
            async with SearchServer(engine, config) as server:
                assert server.startup_warmup.built_count == 2
                db.reset_access_counters()
                response = await server.search(
                    "v", tuple(keywords), conjunctive=conjunctive
                )
                assert isinstance(response, ServeResult)
                # Skeleton tier or better, for every document.
                assert set(response.cache_hits.values()) <= {
                    "skeleton",
                    "pdt",
                }
                assert path_probes(db) == 0
                # The keyword-independent evaluation was warm too.
                assert response.outcome.evaluated_hit
                # The engine's counters agree: the skeleton tier did
                # serve this query.
                assert engine.stats()["cache"]["skeleton"]["hits"] >= 2

        run_async(scenario())


class TestShardedServing:
    """The server over a :class:`CorpusCoordinator`: ranked output and
    the shards' own counters."""

    DOCS = {
        f"s{i}": (
            f"<lib><book><title>alpha beta {'gamma ' * (i % 3)}</title>"
            f"<body>delta {'alpha ' * (i % 4)}epsilon</body></book></lib>"
        )
        for i in range(6)
    }
    VIEW = "(" + ",\n".join(
        f"(for $b in fn:doc(s{i})//book "
        f"return <hit>{{$b/title}}{{$b/body}}</hit>)"
        for i in range(6)
    ) + ")"

    def _coordinator(self, shard_count=3):
        from repro.core.ingest import ingest_corpus

        coordinator, _ = ingest_corpus(
            self.DOCS, {"v": self.VIEW}, shard_count=shard_count
        )
        return coordinator

    def test_server_over_coordinator_matches_direct_search(self):
        coordinator = self._coordinator()
        with coordinator:
            expected = {
                kws: [
                    (r.rank, r.score, r.to_xml())
                    for r in coordinator.search("v", kws, top_k=5)
                ]
                for kws in (("alpha",), ("alpha", "gamma"))
            }

            async def scenario():
                config = ServerConfig(warm_views=("v",), workers=3)
                async with SearchServer(coordinator, config) as server:
                    for kws, want in expected.items():
                        response = await server.search("v", kws, top_k=5)
                        assert isinstance(response, ServeResult)
                        assert [
                            (r.rank, r.score, r.to_xml())
                            for r in response.results
                        ] == want
                        # The sharded outcome's diagnostics ride along.
                        assert response.outcome.merge_stats is not None

            run_async(scenario())

    def test_sharded_member_reports_its_shards_counters(self, tmp_path):
        """``/stats`` under a coordinator is the shards' own counters
        summed name by name, not ``{}``; hit rates are recomputed from
        the sums."""
        from repro.core.cache import LRUCache
        from repro.core.ingest import ingest_corpus
        from repro.core.snapshot import SkeletonStore

        coordinator, _ = ingest_corpus(
            self.DOCS, {"v": self.VIEW}, shard_count=3, snapshot_dir=tmp_path
        )
        with coordinator:
            before = coordinator.stats()

            async def scenario():
                async with SearchServer(coordinator) as server:
                    response = await server.search("v", ("alpha",))
                    assert isinstance(response, ServeResult)
                    return server.snapshot()

            snapshot = run_async(scenario())
            slices = [e.engine.stats() for e in coordinator.executors]
            summed = coordinator.stats()
            assert snapshot["cache"] == summed["cache"]
            assert snapshot["snapshot_store"] == summed["snapshot_store"]
            assert set(summed["cache"]) == {
                "prepared", "skeleton", "pdt", "evaluated"
            }
            for tier, counters in summed["cache"].items():
                assert set(counters) == {*LRUCache.COUNTS, "hit_rate"}
                for name in LRUCache.COUNTS:
                    assert counters[name] == sum(
                        s["cache"][tier][name] for s in slices
                    ), (tier, name)
                lookups = counters["hits"] + counters["misses"]
                assert counters["hit_rate"] == (
                    counters["hits"] / lookups if lookups else 0.0
                ), tier
            store = summed["snapshot_store"]
            assert set(store) == set(SkeletonStore.COUNTS)
            for name in SkeletonStore.COUNTS:
                assert store[name] == sum(
                    s["snapshot_store"][name] for s in slices
                ), name
            # Ingest warmed every skeleton, so the served query hit all six.
            skeleton = summed["cache"]["skeleton"]
            assert skeleton["hits"] == (
                before["cache"]["skeleton"]["hits"] + len(self.DOCS)
            )
            assert skeleton["hit_rate"] > 0
            assert store["saves"] == len(self.DOCS)
            assert store["entries"] == len(self.DOCS)
            assert snapshot["health"]["serving"] == 3


class TestLayeredBenchmarkCounters:
    """The counters ``benchmarks/layered`` reads off every engine slice.

    Its adapter treats a missing key as a counter whose home is gone
    (the layer reads 0), so a renamed key would pass silently there:
    each tier of ``cache.stats()`` must carry ``hits``, ``misses``,
    ``evictions`` and ``memory_bytes``, and ``snapshot_store.stats()``
    ``hits`` (restores) and ``saves``."""

    TIERS = {"prepared", "skeleton", "pdt", "evaluated"}

    def _counts(self, engines):
        tiers: dict[str, int] = {}
        store = {"hits": 0, "saves": 0}
        for engine in engines:
            cache = engine.cache.stats()
            assert set(cache) == self.TIERS
            for tier, counters in cache.items():
                for key in ("hits", "misses", "evictions", "memory_bytes"):
                    assert isinstance(counters[key], int), (tier, key)
                    tiers[f"{tier}.{key}"] = (
                        tiers.get(f"{tier}.{key}", 0) + counters[key]
                    )
            store_stats = engine.snapshot_store.stats()
            for key in store:
                assert isinstance(store_stats[key], int), key
                store[key] += store_stats[key]
        return tiers, store

    def test_lone_engine_with_a_store(self, tmp_path):
        from repro.core.snapshot import SkeletonStore

        db = generate_bookrev_database(book_count=6, reviews_per_book=2, seed=3)
        documents = len(db.document_names())
        first = KeywordSearchEngine(db, snapshot_store=SkeletonStore(tmp_path))
        first.define_view("v", BOOKREV_VIEW)
        first.search("v", ["xml"])
        first.search("v", ["xml"])
        tiers, store = self._counts([first])
        assert store == {"hits": 0, "saves": documents}
        assert tiers["skeleton.misses"] == tiers["skeleton.hits"] == documents
        assert tiers["skeleton.memory_bytes"] > 0
        first.close()
        # A second engine over the same directory restores every skeleton.
        second = KeywordSearchEngine(db, snapshot_store=SkeletonStore(tmp_path))
        second.define_view("v", BOOKREV_VIEW)
        second.search("v", ["xml"])
        _, store = self._counts([second])
        assert store == {"hits": documents, "saves": 0}
        second.close()

    def test_coordinator_shard_slices(self, tmp_path):
        from repro.core.ingest import ingest_corpus

        docs, view = TestShardedServing.DOCS, TestShardedServing.VIEW
        for restored in (False, True):
            coordinator, _ = ingest_corpus(
                docs, {"v": view}, shard_count=3, snapshot_dir=tmp_path
            )
            with coordinator:
                coordinator.search("v", ("alpha",))
                engines = [e.engine for e in coordinator.executors]
                tiers, store = self._counts(engines)
            # Ingest warms every skeleton (built, or restored from the
            # first ingest's slices); the search hits all of them.
            assert tiers["skeleton.hits"] >= len(docs)
            assert store == (
                {"hits": len(docs), "saves": 0}
                if restored
                else {"hits": 0, "saves": len(docs)}
            )


class TestStatsPrimitives:
    def test_latency_recorder_percentiles_and_window(self):
        recorder = LatencyRecorder(window=100)
        assert recorder.percentile(0.5) is None
        for value in range(1, 11):
            recorder.record(value / 1000.0)
        assert recorder.percentile(0.5) == pytest.approx(0.005)
        assert recorder.percentile(1.0) == pytest.approx(0.010)
        assert recorder.count == 10
        # The window is bounded; lifetime counters keep counting.
        for _ in range(500):
            recorder.record(0.001)
        assert recorder.count == 510
        assert len(recorder._samples) == 100
        assert recorder.percentile(0.99) == pytest.approx(0.001)
        # The summary max is window-scoped — the early 10 ms sample has
        # aged out — while the lifetime max survives under its own name.
        summary = recorder.summary()
        assert summary["max"] == pytest.approx(0.001)
        assert summary["lifetime_max"] == pytest.approx(0.010)
        assert summary["window_count"] == 100

    def test_mean_is_window_scoped_like_the_percentiles(self):
        # Regression: mean used to divide lifetime total by lifetime
        # count while p50/p95/p99/max described only the window —
        # summary() mixed scopes.  A startup spike that has aged out of
        # the window must no longer drag the mean.
        recorder = LatencyRecorder(window=10)
        recorder.record(1.0)  # the spike
        for _ in range(10):
            recorder.record(0.002)
        assert recorder.mean == pytest.approx(0.002)
        assert recorder.lifetime_mean == pytest.approx((1.0 + 0.02) / 11)
        summary = recorder.summary()
        assert summary["mean"] == pytest.approx(0.002)
        assert summary["mean"] == pytest.approx(summary["p50"])
        assert summary["lifetime_mean"] == pytest.approx(recorder.lifetime_mean)
        assert summary["count"] == 11
        assert summary["window_count"] == 10

    def test_empty_recorder_means_are_none(self):
        recorder = LatencyRecorder(window=4)
        assert recorder.mean is None
        assert recorder.lifetime_mean is None
        summary = recorder.summary()
        assert summary["mean"] is None and summary["lifetime_mean"] is None

    def test_serving_stats_snapshot_consistency(self):
        stats = ServingStats()
        stats.record_submitted()
        stats.record_submitted()
        stats.record_completed(0.001, 0.002, 0.003, {"a.xml": "skeleton"})
        stats.record_rejected(REASON_QUEUE_FULL)
        snap = stats.snapshot()
        assert snap["submitted"] == 2
        assert snap["completed"] == 1
        assert snap["rejected_total"] == 1
        assert snap["cache_hit_counts"] == {"skeleton": 1}
        assert snap["latency"]["count"] == 1


@pytest.mark.asyncio_stress
class TestServingStress:
    def test_mixed_traffic_counters_add_up_and_results_stay_correct(self):
        """8 async clients, two views, tight limits: every response is
        either correct ranked output or a typed ``Overloaded``, and the
        request accounting balances after drain."""
        db = generate_bookrev_database(book_count=30, reviews_per_book=2, seed=9)
        view_text = BOOKREV_VIEW
        expected = oracle_expectations(db, view_text, KEYWORD_SETS)
        engine = KeywordSearchEngine(db)
        engine.define_view("hot", view_text)
        engine.define_view("cold", view_text)

        async def client(server, client_id, counts):
            import random

            rng = random.Random(client_id)
            for _ in range(25):
                view = "hot" if rng.random() < 0.7 else "cold"
                kws = rng.choice(KEYWORD_SETS)
                response = await server.search(view, kws)
                if isinstance(response, Overloaded):
                    counts["shed"] += 1
                    assert response.reason in (
                        REASON_QUEUE_FULL,
                        REASON_VIEW_SATURATED,
                    )
                    await asyncio.sleep(0.001)  # back off as a client would
                else:
                    counts["served"] += 1
                    got = [
                        (r.rank, r.score, r.to_xml())
                        for r in response.results
                    ]
                    assert got == expected[kws], f"divergence on {kws}"

        async def scenario():
            config = ServerConfig(
                max_queue_depth=8,
                max_inflight_per_view=6,
                workers=4,
                warm_views=("hot",),
            )
            counts = {"served": 0, "shed": 0}
            async with SearchServer(engine, config) as server:
                await asyncio.gather(
                    *[client(server, c, counts) for c in range(8)]
                )
                snap = server.snapshot()
            requests = snap["requests"]
            assert counts["served"] == requests["completed"]
            assert counts["shed"] == requests["rejected_total"]
            assert requests["submitted"] == (
                requests["completed"]
                + requests["failed"]
                + requests["rejected_total"]
            )
            assert requests["failed"] == 0
            assert requests["latency"]["count"] == min(
                counts["served"], 2048
            )
            assert counts["served"] > 0
            # Admission drained cleanly.
            assert snap["admission"]["inflight"] == {}

        run_async(scenario(), timeout=120.0)
