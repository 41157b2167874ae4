"""The benchmark's only door into ``repro``.

Everything else under ``benchmarks/layered/`` is stdlib-only and talks to
the system through this module, in two tiers:

* **End to end** — :class:`Deployment` stands up the repo's synchronous
  deployment shape (``BackgroundHTTPServing(engine, ServerConfig(
  warm_views=(view,)))``, every other knob at its default) and depends
  only on ``XMLDatabase``, ``KeywordSearchEngine``, ``ingest_corpus``,
  ``SkeletonStore``, ``BackgroundHTTPServing``/``ServerConfig`` and the
  wire.
* **Per layer** — the ``probe_*`` functions reach into internals.  Each
  runs under :func:`guarded`: when a symbol it needs has been deleted or
  renamed the probe's metrics read as unavailable instead of failing the
  run, so a later PR may remove internals without touching the benchmark.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

_SRC = Path(__file__).resolve().parents[2] / "src"
if not _SRC.is_dir():
    raise SystemExit(
        f"benchmarks/layered: {_SRC} does not exist; the benchmark measures "
        "the checkout it sits in and must be run from one"
    )
# The checkout's own sources, ahead of any installed copy.
sys.path.insert(0, str(_SRC))

from repro import KeywordSearchEngine, XMLDatabase  # noqa: E402
from repro.core.ingest import ingest_corpus  # noqa: E402
from repro.core.snapshot import SkeletonStore  # noqa: E402
from repro.serving.http import BackgroundHTTPServing  # noqa: E402
from repro.serving.server import ServerConfig  # noqa: E402

SHARD_COUNT = 4
#: Results asked of the engine where the wire's default page is bypassed.
PAGE_SIZE = 10

#: What a missing internal raises when a probe reaches for it.
MISSING = (ImportError, AttributeError, TypeError, KeyError, NotImplementedError)


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1000.0


def _median_us(samples) -> float:
    return statistics.median(samples) * 1e6


def _load(documents: dict[str, str]) -> XMLDatabase:
    database = XMLDatabase()
    for name in sorted(documents):
        database.load_document(name, documents[name])
    return database


def _search(engine, request):
    """``search_detailed`` as the HTTP layer calls it for ``request``."""
    return engine.search_detailed(
        request.view, request.keywords, top_k=PAGE_SIZE, conjunctive=request.conjunctive
    )


def _normalized(request) -> tuple[str, ...]:
    from repro.xmlmodel.tokenizer import normalize_keyword

    return tuple(normalize_keyword(keyword) for keyword in request.keywords)


def _apply(database: XMLDatabase, handles: dict[int, str], edit) -> None:
    """One edit of the stream; ``handles`` maps an insert's handle to the
    Dewey id the database gave it, for the delete that names it."""
    if edit.kind == "insert":
        delta = database.insert_subtree(edit.doc, edit.target, edit.payload)
        handles[edit.handle] = str(delta.edit_id)
    elif edit.kind == "replace":
        database.replace_subtree(edit.doc, edit.target, edit.payload)
    else:
        database.delete_subtree(edit.doc, handles.pop(edit.handle))


class Deployment:
    """One workload's system under test, built and serving."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.view = workload.view_name
        if workload.deployment == "sharded":
            self.engine, _report = ingest_corpus(
                workload.documents,
                {workload.view_name: workload.view_text},
                shard_count=SHARD_COUNT,
                snapshot_dir=scratch / "snapshots",
                mmap_snapshots=True,
            )
            self.databases = [e.database for e in self.engine.executors]
        else:
            database = _load(workload.documents)
            store = None
            if workload.deployment == "engine_store":
                store = SkeletonStore(scratch / "snapshots", mmap_mode=True)
            self.engine = KeywordSearchEngine(database, snapshot_store=store)
            self.engine.define_view(workload.view_name, workload.view_text)
            self.databases = [database]
        self.config = ServerConfig(warm_views=(workload.view_name,))
        self.serving = BackgroundHTTPServing(self.engine, self.config)
        self.serving.start()
        self.host, self.port = self.serving.host, self.serving.port
        self._reference = None
        self._plain = None
        self._handles: dict[int, str] = {}

    def close(self) -> None:
        self.serving.stop()
        self.engine.close()

    # -- writes ------------------------------------------------------------------

    def apply_edit(self, edit) -> None:
        """One sub-document edit, delta hooks and re-warm included."""
        _apply(self.databases[0], self._handles, edit)

    # -- the correctness reference -----------------------------------------------

    def reference_ranking(self, request) -> list[list]:
        """``[rank, score, index]`` per result from a fresh cache-free
        engine over the same database (a single database holding every
        document, under the sharded deployment)."""
        if self._reference is None:
            if self.workload.deployment == "sharded":
                database, _seconds = self.plain_database()
            else:
                database = self.databases[0]
            engine = KeywordSearchEngine(database, enable_cache=False)
            engine.define_view(self.view, self.workload.view_text)
            self._reference = engine
        outcome = _search(self._reference, request)
        return [[r.rank, r.score, r.scored.index] for r in outcome.results]

    # -- per-layer access ----------------------------------------------------------

    def plain_database(self) -> tuple[XMLDatabase, float]:
        """A hook-free database holding every document, and the seconds
        it took to parse and index it."""
        if self._plain is None:
            started = time.perf_counter()
            database = _load(self.workload.documents)
            self._plain = (database, time.perf_counter() - started)
        return self._plain

    def engines(self) -> list:
        """``(engine, views)`` per engine slice: the one engine, or every
        shard executor's with its fragment views."""
        if self.workload.deployment != "sharded":
            return [(self.engine, [self.engine.get_view(self.view)])]
        from repro.core.sharding import _fragment_view_name

        return [
            (
                executor.engine,
                [
                    executor.engine.get_view(
                        _fragment_view_name(self.view, fragment.position)
                    )
                    for fragment in executor.fragments_for(self.view)
                ],
            )
            for executor in self.engine.executors
        ]

    def counters(self) -> dict[str, float]:
        """Monotone counters (and the cache-bytes gauge) summed over
        every engine slice; callers difference two reads.  A counter
        whose home has been removed is simply absent."""
        totals: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0) + value

        def storage() -> None:
            for database in self.databases:
                for name in database.document_names():
                    indexed = database.get(name)
                    add("path_probes", indexed.path_index.probe_count)
                    add("inverted_probes", indexed.inverted_index.probe_count)
                    add("store_accesses", indexed.store.access_count)

        def cache() -> None:
            for engine, _views in self.engines():
                for tier, stats in engine.cache.stats().items():
                    for key in ("hits", "misses", "evictions"):
                        add(f"{tier}.{key}", stats[key])
                    add("cache_bytes", stats["memory_bytes"])

        def snapshots() -> None:
            for engine, _views in self.engines():
                if engine.snapshot_store is not None:
                    stats = engine.snapshot_store.stats()
                    add("snapshot_loads", stats["hits"])
                    add("snapshot_saves", stats["saves"])

        for group in (storage, cache, snapshots):
            try:
                group()
            except MISSING as exc:
                print(f"counters unavailable ({group.__name__}): {exc!r}", file=sys.stderr)
        return totals


def guarded(names: list[str], probe: Callable[[], dict], unavailable: list[str]) -> dict:
    """Run one per-layer probe; a missing internal makes its metrics
    unavailable (listed, valued ``None``) instead of failing the run."""
    try:
        values = probe()
    except MISSING as exc:
        print(f"layer probe unavailable ({names[0]} ...): {exc!r}", file=sys.stderr)
        unavailable.extend(names)
        return dict.fromkeys(names)
    return {name: values.get(name) for name in names}


class DepthRunner:
    """The same requests at successive depths below the socket.

    d1 calls ``SearchAPI`` as an ASGI app and d2 awaits
    ``SearchServer.search``, both on a private event loop over a second
    ``SearchServer`` with the deployment's own config, so the engine call
    still hops to the server's thread pool exactly as in production.
    """

    def __init__(self, deployment: Deployment):
        from repro.serving.http import SearchAPI
        from repro.serving.server import SearchServer

        self.deployment = deployment
        self.loop = asyncio.new_event_loop()
        self.server = SearchServer(deployment.engine, deployment.config)
        self.loop.run_until_complete(self.server.start())
        self.api = SearchAPI(self.server)

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()

    def d1(self, requests) -> list[tuple]:
        """``(start, end, status, body bytes)`` per request."""
        return self.loop.run_until_complete(self._d1(requests))

    def d2(self, requests) -> list[tuple]:
        """``(start, end, queue_wait, service_time)`` per request."""
        return self.loop.run_until_complete(self._d2(requests))

    async def _d1(self, requests) -> list[tuple]:
        spans = []
        scope = {
            "type": "http", "method": "POST", "path": "/search",
            "headers": [(b"content-type", b"application/json")],
        }
        for request in requests:
            message = {"type": "http.request", "body": request.body(), "more_body": False}
            sent: list[dict] = []

            async def receive():
                return message

            async def send(event):
                sent.append(event)

            started = time.perf_counter()
            await self.api(scope, receive, send)
            spans.append((started, time.perf_counter(), sent[0]["status"], sent[1]["body"]))
        return spans

    async def _d2(self, requests) -> list[tuple]:
        spans = []
        for request in requests:
            started = time.perf_counter()
            served = await self.server.search(
                request.view, request.keywords, top_k=PAGE_SIZE,
                conjunctive=request.conjunctive,
            )
            spans.append(
                (started, time.perf_counter(), served.queue_wait, served.service_time)
            )
        return spans


def replay_engine(deployment: Deployment, requests) -> list[tuple]:
    """Depth d3: ``(start, end, outcome)`` per request, from
    ``search_detailed`` on the engine (or coordinator) in this thread."""
    spans = []
    for request in requests:
        started = time.perf_counter()
        outcome = _search(deployment.engine, request)
        spans.append((started, time.perf_counter(), outcome))
    return spans


def phase_ms(outcomes) -> dict[str, float]:
    """Median milliseconds per engine phase over ``outcomes``."""
    ledgers = [outcome.timings.as_dict() for outcome in outcomes]
    values = {
        f"core.engine.{phase}_ms": _median_ms([ledger[phase] for ledger in ledgers])
        for phase in ("total", "qpt", "pdt_skeleton", "pdt_postings",
                      "evaluator", "post_processing")
    }
    values["core.engine.pdt_other_ms"] = _median_ms(
        [l["pdt"] - l["pdt_skeleton"] - l["pdt_postings"] for l in ledgers]
    )
    return values


def probe_serialize(outcomes) -> dict[str, float]:
    from repro import serialize

    results = [result for outcome in outcomes for result in outcome.results]
    if not results:
        return {"xmlmodel.serialize_us_per_result": 0.0}
    started = time.perf_counter()
    for result in results:
        serialize(result.pruned)
    elapsed = time.perf_counter() - started
    return {"xmlmodel.serialize_us_per_result": elapsed * 1e6 / len(results)}


def probe_sharding(deployment: Deployment, requests, d3_ms: float) -> dict:
    """The scatter-gather layer, on the sharded deployment's own
    coordinator: wall clock against the work the shards did, the serial
    schedule, the slowest single ``collect``, the merge counters.

    Shard work is summed from the ``parallel=False`` pass: under one GIL
    concurrent shards' wall-clock ledgers each include the time the
    others held the interpreter, so their sum overstates the work.
    """
    coordinator = deployment.engine
    serial, busy, merges = [], [], []
    coordinator.parallel = False
    try:
        for request in requests:
            started = time.perf_counter()
            outcome = _search(coordinator, request)
            serial.append(time.perf_counter() - started)
            busy.append(sum(t.total for t in outcome.shard_timings.values()))
            merges.append(outcome.merge_stats)
    finally:
        coordinator.parallel = True
    slowest = 0.0
    for executor in coordinator.executors:
        samples = []
        for request in requests:
            normalized = _normalized(request)
            started = time.perf_counter()
            executor.collect(request.view, normalized)
            samples.append(time.perf_counter() - started)
        slowest = max(slowest, _median_ms(samples))
    return {
        "core.sharding.coordinator_ms": d3_ms,
        "core.sharding.shard_busy_sum_ms": _median_ms(busy),
        "core.sharding.overhead_ms": d3_ms - _median_ms(busy),
        "core.sharding.serial_ms": _median_ms(serial),
        "core.sharding.collect_max_ms": slowest,
        "core.sharding.merge_candidates_per_query": statistics.mean(m.candidates for m in merges),
        "core.sharding.merge_consumed_per_query": statistics.mean(m.consumed for m in merges),
        "core.sharding.merge_pruned_per_query": statistics.mean(m.pruned for m in merges),
    }


def probe_statistics(deployment: Deployment, requests) -> dict[str, float]:
    """Phase 1 (``collect_view_statistics``) and phase 2 (idf, scores,
    filter, top-k on that harvest) called directly on one engine slice."""
    from repro.core.scoring import apply_scores, filter_matching, idf_from_counts
    from repro.core.topk import TopKSelector

    engine, views = deployment.engines()[0]
    collect, rank = [], []
    for request in requests:
        normalized = _normalized(request)
        started = time.perf_counter()
        harvests = [engine.collect_view_statistics(view, normalized) for view in views]
        collect.append(time.perf_counter() - started)
        started = time.perf_counter()
        selector = TopKSelector(PAGE_SIZE)
        for stats in harvests:
            idf = idf_from_counts(stats.view_size, stats.containing)
            apply_scores(stats.scored, idf, normalized, True)
            selector.extend(filter_matching(stats.scored, normalized, request.conjunctive))
        selector.results()
        rank.append(time.perf_counter() - started)
    return {
        "core.engine.collect_statistics_ms": _median_ms(collect),
        "core.scoring.rank_us": _median_us(rank),
    }


def probe_pdt(deployment: Deployment, requests, scratch: Path) -> dict[str, float]:
    """``build_skeleton`` / ``annotate_skeleton`` and the snapshot wire
    round trip, per ``(view, document)`` pair of the first engine slice."""
    from repro.core.pdt import annotate_skeleton, build_skeleton
    from repro.core.prepare import prepare_inv_lists

    engine, views = deployment.engines()[0]
    pairs = [
        (qpt, engine.database.get(doc_name))
        for view in views
        for doc_name, qpt in sorted(view.qpts.items())
    ][:24]
    eager = SkeletonStore(scratch / "probe-store")
    mapped = SkeletonStore(scratch / "probe-store", mmap_mode=True)
    build, annotate, save, load_eager, load_mmap, nodes, sizes = [], [], [], [], [], [], []
    for qpt, indexed in pairs:
        started = time.perf_counter()
        skeleton = build_skeleton(qpt, indexed.path_index)
        build.append(time.perf_counter() - started)
        nodes.append(skeleton.node_count)
        for request in requests[:8]:
            normalized = _normalized(request)
            inv_lists = prepare_inv_lists(indexed.inverted_index, normalized)
            started = time.perf_counter()
            annotate_skeleton(skeleton, inv_lists, normalized)
            annotate.append(time.perf_counter() - started)
        key = (indexed.fingerprint, qpt.content_hash)
        started = time.perf_counter()
        path = eager.save(*key, skeleton)
        save.append(time.perf_counter() - started)
        sizes.append(path.stat().st_size)
        started = time.perf_counter()
        eager.load(*key)
        load_eager.append(time.perf_counter() - started)
        started = time.perf_counter()
        restored = mapped.load(*key)
        load_mmap.append(time.perf_counter() - started)
        close = getattr(restored, "close", None)
        if close is not None:
            close()
    return {
        "core.pdt.build_skeleton_us": _median_us(build),
        "core.pdt.annotate_us": _median_us(annotate),
        "core.pdt.skeleton_nodes_mean": statistics.mean(nodes),
        "core.snapshot.save_us": _median_us(save),
        "core.snapshot.load_eager_us": _median_us(load_eager),
        "core.snapshot.load_mmap_us": _median_us(load_mmap),
        "core.snapshot.bytes_mean": statistics.mean(sizes),
    }


def probe_storage(deployment: Deployment) -> dict[str, float]:
    """Parse + index cost per MiB of XML, and ``define_view`` (QPT
    generation) on a cache-free engine over the same documents."""
    database, seconds = deployment.plain_database()
    size = sum(len(text.encode("utf-8")) for text in deployment.workload.documents.values())
    define = []
    for attempt in range(5):
        engine = KeywordSearchEngine(database, enable_cache=False)
        started = time.perf_counter()
        engine.define_view(f"probe{attempt}", deployment.workload.view_text)
        define.append(time.perf_counter() - started)
    return {
        "storage.index_ms_per_mib": seconds * 1000.0 / (size / 2**20),
        "storage.bytes_indexed": size,
        "core.qpt.define_view_ms": _median_ms(define),
    }


def probe_update_apply(deployment: Deployment, edits) -> dict[str, float]:
    """The storage half of an edit: the same edits on the hook-free copy
    (tree surgery and index splices, no engine attached)."""
    database, _seconds = deployment.plain_database()
    handles: dict[int, str] = {}
    samples = []
    for edit in edits:
        started = time.perf_counter()
        _apply(database, handles, edit)
        samples.append(time.perf_counter() - started)
    return {"storage.update.apply_ms": _median_ms(samples)}
