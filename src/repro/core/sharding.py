"""Corpus sharding: per-shard executors + a scatter-gather coordinator.

Everything through the single :class:`~repro.core.engine.KeywordSearchEngine`
scales per *document*; this module scales per *corpus*.  The corpus is
hash-partitioned across N :class:`ShardExecutor`\\ s — each owning its own
database, query cache and snapshot-store slice — by a :class:`ShardPlan`
(a stable hash of each document's name), and a :class:`CorpusCoordinator`
runs queries over the fleet with the paper's Section 4.2.2.2 top-k
selection generalized to a scatter-gather merge.

The protocol has two scatter phases because idf is a **global** view
statistic (Section 2.2: ``idf(k) = |V(D)| / containing(k)`` over the
*whole* view) — no shard can score independently:

1. **Statistics scatter** — every shard holding view fragments runs the
   pipeline through evaluation and the statistics sum
   (:meth:`~repro.core.engine.KeywordSearchEngine.collect_view_statistics`),
   one engine call over its one view, returning tf and byte-length
   columns with one part per fragment, plus integers: each fragment's
   result count and the shard's per-keyword containing counts.
2. **Gather** — the coordinator sums the integers (exact, so the idf
   floats are bit-identical to the single-engine division), sets each
   fragment's global view offset (prefix sums over fragment sizes in
   sequence order), and computes the global idf.
3. **Ranking scatter** — every shard masks its columns by the keyword
   semantics, scores the matching rows under the global idf, selects
   its own top k and builds result objects for those survivors only.
4. **Streaming merge** — the coordinator k-way-merges the per-shard
   ranked streams (:func:`repro.core.topk.merge_shard_streams`),
   abandoning a shard as soon as its score upper bound falls strictly
   below the current k-th score.

Each shard answers for its fragments of a view as one engine view
(:mod:`repro.core.placement`).  Ranking is **bit-identical** to
evaluating the concatenated view on one engine: sequence evaluation is
fragment-by-fragment, the statistics are integer-summed, the scores are
the same floats, and the merge provably returns the same top-k (the
difftest suite asserts this bit-for-bit across randomized plans).

Both phases exist once — ``KeywordSearchEngine.collect_view_statistics``
and :func:`repro.core.outcome.rank_statistics` — the lone engine is
their one-engine caller, the coordinator their N-shard caller through
``_scatter``, and both return the same ``SearchOutcome``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.core.cache import LRUCache, QueryCache, hit_rate
from repro.core.engine import KeywordSearchEngine
from repro.core.faults import FaultInjector
from repro.core.health import FleetHealth
from repro.core.outcome import (
    PhaseTimings,
    SearchOutcome,
    SearchResult,
    ViewStatistics,
    rank_statistics,
    wrap_results,
)
from repro.core.placement import Fragment, ShardPlan, view_fragments
from repro.core.scoring import ScoredResult, idf_from_counts
from repro.core.snapshot import SkeletonStore
from repro.core.topk import ShardStream, merge_shard_streams
from repro.dewey import DeweyID
from repro.errors import (
    CoordinatorClosedError,
    InjectedFaultError,
    ShardUnavailableError,
    ShardingError,
    ViewDefinitionError,
)
from repro.storage.database import IndexedDocument, XMLDatabase
from repro.storage.update import DocumentDelta
from repro.xmlmodel.node import Document, XMLNode
from repro.xmlmodel.tokenizer import normalize_keyword
from repro.xquery.ast import Expr
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query


# -- per-shard execution --------------------------------------------------------


class ShardExecutor:
    """One shard: its own database, cache, snapshot slice, and engine.

    Executors never see each other — all cross-shard coordination
    (global idf, index rebasing, the final merge) happens in the
    coordinator.  The view fragments placed here are one engine view:
    the sequence of them in position order (sequence evaluation is
    concatenation, so its parts are the fragments' results).  Every
    cache tier — prepared lists, skeletons, PDTs, evaluated results —
    operates on the shard's slice of the view, and each phase is one
    engine call.
    """

    def __init__(
        self,
        shard_id: int,
        cache: Optional[QueryCache] = None,
        snapshot_store: Optional[SkeletonStore] = None,
        database: Optional[XMLDatabase] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.shard_id = shard_id
        self._faults = fault_injector
        self.database = database if database is not None else XMLDatabase()
        self.engine = KeywordSearchEngine(
            self.database,
            cache=cache,
            snapshot_store=snapshot_store,
        )
        self._fragments: dict[str, Fragment] = {}

    def close(self) -> None:
        """Release the shard engine's hooks and prune its snapshot slice."""
        self.engine.close()

    def __repr__(self) -> str:
        return (
            f"ShardExecutor(shard_id={self.shard_id}, "
            f"documents={self.database.document_names()})"
        )

    # -- corpus slice ------------------------------------------------------------

    def load_document(
        self, name: str, source: Union[str, XMLNode, Document]
    ) -> IndexedDocument:
        return self.database.load_document(name, source)

    def adopt_document(self, indexed: IndexedDocument) -> IndexedDocument:
        """Attach a document indexed elsewhere (ingestion workers, or a
        single-engine database being re-partitioned for comparison)."""
        return self.database.attach_document(indexed)

    # -- views -------------------------------------------------------------------

    def register_view(
        self, view_name: str, fragments: Sequence[Fragment]
    ) -> None:
        """Register this shard's fragments of a view as one engine view:
        :meth:`Fragment.merge` of them, named ``view#position`` after
        its first fragment — stable across processes (the position comes
        from the view text), so cache keys and snapshot files line up
        between runs.  A redefinition that moves the first position
        drops the engine view of the old one."""
        merged = Fragment.merge(fragments)
        self.engine.register_view(
            _fragment_view_name(view_name, merged.position), merged.expr
        )
        previous = self._fragments.get(view_name, merged)
        self._fragments[view_name] = merged
        if previous.position != merged.position:
            self.engine.drop_view(_fragment_view_name(view_name, previous.position))

    def drop_view(self, view_name: str) -> None:
        """Forget the shard's slice of a view, its engine view too."""
        self.engine.drop_view(self._engine_view(view_name))
        del self._fragments[view_name]

    def fragments_for(self, view_name: str) -> tuple[Fragment, ...]:
        """The shard's one merged fragment of the view, as a 1-tuple."""
        try:
            return (self._fragments[view_name],)
        except KeyError:
            raise ViewDefinitionError(
                f"shard {self.shard_id} holds no fragments of view "
                f"{view_name!r}"
            ) from None

    def _engine_view(self, view_name: str) -> str:
        (fragment,) = self.fragments_for(view_name)
        return _fragment_view_name(view_name, fragment.position)

    def warm_view(self, view_name: str) -> dict[str, str]:
        """Warm the skeleton/evaluated tiers of the shard's slice."""
        return self.engine.warm_view(self._engine_view(view_name))

    def resident_documents(self, view_name: str) -> list[str]:
        """The slice's documents with a resident skeleton."""
        return self.engine.resident_documents(self._engine_view(view_name))

    # -- the two scatter phases --------------------------------------------------

    def collect(
        self, view_name: str, normalized: tuple[str, ...]
    ) -> ViewStatistics:
        """Statistics scatter: phase 1 over the shard's slice, one part
        per fragment (the gather sets each part's offset)."""
        if self._faults is not None:
            self._faults.act(f"shard{self.shard_id}.collect")
        return self.engine.collect_view_statistics(
            self._engine_view(view_name), normalized
        )

    def rank(
        self,
        stats: ViewStatistics,
        idf: Mapping[str, float],
        normalized: tuple[str, ...],
        conjunctive: bool,
        k: Optional[int],
    ) -> tuple[list[ScoredResult], int]:
        """Ranking scatter: phase 2 (:func:`~repro.core.outcome.
        rank_statistics`, whose pair this returns) over this shard's
        statistics under the global idf, with each fragment's offset
        already set by the gather."""
        if self._faults is not None:
            self._faults.act(f"shard{self.shard_id}.rank")
        start = time.perf_counter()
        ranking = rank_statistics(stats, idf, normalized, conjunctive, k)
        stats.timings.post_processing += time.perf_counter() - start
        return ranking


def _fragment_view_name(view_name: str, position: int) -> str:
    return f"{view_name}#{position}"


# -- shard failures -------------------------------------------------------------

#: A scatter call exceeded the per-shard deadline.
FAILURE_TIMEOUT = "timeout"
#: A scatter call raised an infrastructure error (or an injected one).
FAILURE_ERROR = "error"
#: The shard's breaker is open: skipped without submitting work.
FAILURE_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class ShardFailure:
    """One shard's typed failure record for one scatter phase.

    ``reason`` is one of the ``FAILURE_*`` constants; ``error`` carries
    the stringified exception (diagnostic — excluded from the
    byte-comparable degraded page JSON); ``attempts`` counts how many
    times the scatter tried the shard before giving up (0 for a
    quarantined shard, which is never submitted).
    """

    shard_id: int
    phase: str
    reason: str
    error: str = ""
    attempts: int = 0

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "phase": self.phase,
            "reason": self.reason,
            "error": self.error,
            "attempts": self.attempts,
        }


def _is_semantic(exc: BaseException) -> bool:
    """Query/view errors propagate raw; infrastructure failures degrade.

    A :class:`StaleViewError` or :class:`ViewDefinitionError` from a
    shard is deterministic — every retry and every healthy shard would
    answer the same — so converting it into a shard failure would turn
    a caller bug into a fake outage.  Library errors are semantic by
    default; :class:`InjectedFaultError` (chaos stands in for crashes)
    and anything non-library (OSError, arbitrary runtime errors) are
    infrastructure.
    """
    from repro.errors import ReproError

    return isinstance(exc, ReproError) and not isinstance(
        exc, InjectedFaultError
    )


# -- the coordinator ------------------------------------------------------------


@dataclass
class CoordinatorView:
    """A view as the coordinator sees it: fragments and their homes."""

    name: str
    text: str
    expr: Expr
    fragments: tuple[Fragment, ...]
    shards: tuple[int, ...]  # distinct shards, ascending
    document_names: list[str]  # every fragment's documents, sorted


class CorpusCoordinator:
    """Scatter-gather keyword search over a fleet of shard executors.

    Answers every method :class:`KeywordSearchEngine` does and returns
    the same :class:`~repro.core.outcome.SearchOutcome`, so the serving
    layer sits on either without asking which.  A shard holds
    precomputed view state (its cache tiers, its snapshot slice) and is
    a failure domain; it is not a unit of CPU — under one GIL shard
    threads buy no parallel Python — so the scatter phases are plain
    calls in the querying thread.  A thread pool exists iff a
    ``shard_deadline`` is configured: abandoning a hung shard takes a
    second thread to wait from, and that is the pool's one job.  The
    coordinator owns it — ``close()`` it, or use the coordinator as a
    context manager.

    **Failure domains.**  Each scatter wave is bounded by
    ``shard_deadline`` seconds (``None`` = wait forever, in-thread) and
    a failing shard retried up to ``shard_retries`` times; a shard that
    still fails yields a typed :class:`ShardFailure` instead of killing
    the query.  Per-shard health (:class:`~repro.core.health.FleetHealth`)
    quarantines a shard after consecutive failing queries — the scatter
    skips it without submitting work until a half-open probe heals it.
    What happens to a query with failures is the ``partial_results``
    policy's call:

    * ``False`` (default, fail-closed): a typed
      :class:`~repro.errors.ShardUnavailableError` — bit-identical
      semantics or nothing, exactly as before this knob existed.
    * ``True``: a ``degraded`` :class:`SearchOutcome` over the
      healthy shards.  A shard lost in the *statistics* phase is absent
      from the gather too, so the outcome equals evaluating only the
      surviving fragments (healthy-only idf — verifiable against a
      healthy-fragments-only engine).  A shard lost in the *ranking*
      phase keeps the true global idf, so the results are an ordered
      subset of the full ranking restricted to healthy shards' results.
      Zero healthy shards always raises, policy notwithstanding.

    Semantic errors (stale views, unknown views, bad queries — any
    library error that every retry would reproduce) propagate raw in
    both policies; only infrastructure failures (timeouts, injected
    faults, non-library exceptions) enter the failure machinery.
    """

    def __init__(
        self,
        executors: Sequence[ShardExecutor],
        plan: ShardPlan,
        shard_deadline: Optional[float] = None,
        shard_retries: int = 0,
        partial_results: bool = False,
        health: Optional[FleetHealth] = None,
    ):
        if len(executors) != plan.shard_count:
            raise ShardingError(
                f"plan wants {plan.shard_count} shards but "
                f"{len(executors)} executors were supplied"
            )
        for index, executor in enumerate(executors):
            if executor.shard_id != index:
                raise ShardingError(
                    f"executor at position {index} reports shard_id "
                    f"{executor.shard_id}; executors must be ordered by "
                    "shard id"
                )
        self.executors = list(executors)
        self.plan = plan
        self.shard_deadline = shard_deadline
        self.shard_retries = max(0, int(shard_retries))
        self.partial_results = partial_results
        self.health = (
            health if health is not None else FleetHealth(plan.shard_count)
        )
        self._views: dict[str, CoordinatorView] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for executor in self.executors:
            executor.close()

    def prune_snapshots(self) -> int:
        """Prune every shard's snapshot slice; total files removed."""
        return sum(
            executor.engine.prune_snapshots() for executor in self.executors
        )

    def __enter__(self) -> "CorpusCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _submit(self, fn: Callable[[], object]):
        """Submit to the lazily-built pool, typed-failing after close.

        Creation and submission hold ``_pool_lock`` so a query racing
        :meth:`close` gets :class:`~repro.errors.CoordinatorClosedError`
        instead of the pool's raw ``RuntimeError`` (or, worse, lazily
        resurrecting a pool after shutdown).
        """
        with self._pool_lock:
            if self._closed:
                raise CoordinatorClosedError()
            if self._pool is None:
                # Sized past the fleet so a worker parked on a hung
                # shard (deadline expired, thread still blocked) does
                # not starve retries or later queries outright.
                workers = min(
                    max(32, len(self.executors)),
                    len(self.executors) * (self.shard_retries + 1),
                )
                self._pool = ThreadPoolExecutor(
                    max_workers=max(workers, len(self.executors)),
                    thread_name_prefix="shard",
                )
            try:
                return self._pool.submit(fn)
            except RuntimeError as exc:
                raise CoordinatorClosedError() from exc

    def _scatter(
        self,
        phase: str,
        fn: Callable[[int], object],
        shards: Sequence[int],
    ) -> tuple[dict, dict[int, "ShardFailure"]]:
        """Run ``fn(shard)`` over the shards inside the failure domain.

        Returns ``(results, failures)``.  Quarantined shards are never
        called; the rest are called directly, in this thread and in
        shard order, unless there is a ``shard_deadline`` to enforce —
        then the wave goes to the pool under one shared deadline (the
        shards execute concurrently, so per-shard budgets overlap).
        Failed shards are re-scattered up to ``shard_retries`` times.
        Exactly one health verdict is recorded per shard — quarantine
        counts failing *queries*, not retry churn.  Semantic errors
        propagate.
        """
        if self._closed:
            raise CoordinatorClosedError()
        deadline = self.shard_deadline
        results: dict = {}
        failures: dict[int, ShardFailure] = {}
        pending: list[int] = []
        for shard in shards:
            if not self.health.allow(shard):
                failures[shard] = ShardFailure(
                    shard_id=shard, phase=phase, reason=FAILURE_QUARANTINED
                )
            else:
                pending.append(shard)
        attempt = 0
        while pending and attempt <= self.shard_retries:
            wave, pending = pending, []
            wave_errors: dict[int, tuple[str, str]] = {}
            if deadline is not None:
                futures = {
                    shard: self._submit(partial(fn, shard)) for shard in wave
                }
                expires = time.monotonic() + deadline
            for shard in wave:
                try:
                    if deadline is None:
                        results[shard] = fn(shard)
                    else:
                        results[shard] = futures[shard].result(
                            timeout=max(0.0, expires - time.monotonic())
                        )
                except Exception as exc:
                    if _is_semantic(exc):
                        raise
                    if deadline is not None and isinstance(
                        exc, FuturesTimeoutError
                    ):
                        futures[shard].cancel()
                        wave_errors[shard] = (
                            FAILURE_TIMEOUT,
                            f"no result within {deadline}s",
                        )
                    else:
                        wave_errors[shard] = (
                            FAILURE_ERROR,
                            f"{type(exc).__name__}: {exc}",
                        )
            for shard, (reason, detail) in sorted(wave_errors.items()):
                if attempt < self.shard_retries:
                    pending.append(shard)
                else:
                    failures[shard] = ShardFailure(
                        shard_id=shard,
                        phase=phase,
                        reason=reason,
                        error=detail,
                        attempts=attempt + 1,
                    )
            attempt += 1
        for shard in results:
            self.health.record_success(shard)
        for shard, failure in failures.items():
            if failure.reason != FAILURE_QUARANTINED:
                self.health.record_failure(shard)
        return results, failures

    def _enforce_policy(
        self,
        view_name: str,
        failures: Mapping[int, "ShardFailure"],
        healthy_count: int,
    ) -> None:
        """Fail-closed unless ``partial_results`` — and always when
        *every* shard is gone (an empty 'result' is not a degraded
        answer, it is no answer)."""
        if not failures:
            return
        if not self.partial_results or healthy_count == 0:
            raise ShardUnavailableError(
                view_name, [failures[s] for s in sorted(failures)]
            )

    # -- the surface the serving layer reads -------------------------------------

    def stats(self) -> dict[str, dict]:
        """Every shard engine's ``stats()``, summed over the names its
        classes count in (``LRUCache.COUNTS`` per tier, the snapshot
        store's ``COUNTS``; a breaker state describes one slice and is
        left out), hit rates recomputed from the summed counts."""
        cache: dict[str, dict] = {}
        store: dict[str, int] = {}
        for executor in self.executors:
            engine = executor.engine
            slice_stats = engine.stats()
            for tier, counters in slice_stats["cache"].items():
                _sum_counts(
                    cache.setdefault(tier, {}), counters, LRUCache.COUNTS
                )
            if engine.snapshot_store is not None:
                _sum_counts(
                    store,
                    slice_stats["snapshot_store"],
                    engine.snapshot_store.COUNTS,
                )
        for counters in cache.values():
            counters["hit_rate"] = hit_rate(counters)
        return {"cache": cache, "snapshot_store": store}

    def health_snapshot(self) -> dict:
        """Per-shard breaker states and quarantine counters (for
        coordinator stats, ``/health`` and ``/stats``)."""
        return self.health.snapshot()

    def snapshot_payload(
        self, doc_fingerprint: str, qpt_hash: str
    ) -> Optional[bytes]:
        """One stored skeleton's wire bytes from whichever shard's slice
        holds it, or ``None`` — keys are content-addressed, so the bytes
        are what a lone engine would have stored and can seed any peer."""
        for executor in self.executors:
            payload = executor.engine.snapshot_payload(
                doc_fingerprint, qpt_hash
            )
            if payload is not None:
                return payload
        return None

    # -- views -------------------------------------------------------------------

    def define_view(self, name: str, text: str) -> CoordinatorView:
        """Parse a view definition and :meth:`register_view` it."""
        return self.register_view(
            name, inline_functions(parse_query(text)), text
        )

    def register_view(
        self, name: str, expr: Expr, text: str = ""
    ) -> CoordinatorView:
        """Fragment an already-parsed, function-free view expression and
        register each fragment on the shard that owns its documents
        (``define_view`` minus the parse step, as on the engine).

        A fragment whose documents span shards is rejected: fragments
        are the evaluation unit (a join cannot execute across two
        databases), so the plan must have colocated them — ``build``'s
        ``colocate`` groups exist exactly for this.  A redefinition
        drops the view from every shard that holds none of its new
        fragments.  Every document is checked on its home shard before
        any shard registers, so a failed definition changes no shard.
        """
        fragments = view_fragments(expr)
        per_shard: dict[int, list[Fragment]] = {}
        for fragment in fragments:
            homes = {self.plan.shard_of(doc) for doc in fragment.documents}
            if len(homes) > 1:
                raise ShardingError(
                    f"view {name!r} fragment {fragment.position} joins "
                    f"documents {list(fragment.documents)} placed on "
                    f"shards {sorted(homes)}; a fragment must live on one "
                    "shard (colocate its documents in the plan)"
                )
            home = homes.pop()
            for doc in fragment.documents:
                self.executors[home].database.get(doc)
            per_shard.setdefault(home, []).append(fragment)
        for shard, shard_fragments in per_shard.items():
            self.executors[shard].register_view(name, shard_fragments)
        previous = self._views.get(name)
        for shard in () if previous is None else previous.shards:
            if shard not in per_shard:
                self.executors[shard].drop_view(name)
        view = CoordinatorView(
            name=name,
            text=text,
            expr=expr,
            fragments=fragments,
            shards=tuple(sorted(per_shard)),
            document_names=sorted(
                {doc for fragment in fragments for doc in fragment.documents}
            ),
        )
        self._views[name] = view
        return view

    def get_view(self, name: str) -> CoordinatorView:
        try:
            return self._views[name]
        except KeyError:
            raise ViewDefinitionError(f"no view named {name!r}") from None

    # -- sub-document updates ----------------------------------------------------
    #
    # The coordinator routes each update to the owning shard's database
    # (the plan is content-addressed, so ownership never moves on an
    # update) and lets that shard engine's delta hook do the rest.  No
    # cross-shard re-sync step is needed: idf is recomputed from integer
    # sums on *every* query's statistics scatter, so the next search
    # automatically sees the post-update global statistics.

    def _home(self, doc_name: str) -> XMLDatabase:
        return self.executors[self.plan.shard_of(doc_name)].database

    def insert_subtree(
        self,
        doc_name: str,
        parent: Union[str, DeweyID],
        payload: Union[str, XMLNode],
    ) -> DocumentDelta:
        return self._home(doc_name).insert_subtree(doc_name, parent, payload)

    def delete_subtree(
        self, doc_name: str, target: Union[str, DeweyID]
    ) -> DocumentDelta:
        return self._home(doc_name).delete_subtree(doc_name, target)

    def replace_subtree(
        self,
        doc_name: str,
        target: Union[str, DeweyID],
        payload: Union[str, XMLNode],
    ) -> DocumentDelta:
        return self._home(doc_name).replace_subtree(doc_name, target, payload)

    def warm_view(self, view: Union[CoordinatorView, str]) -> dict[str, str]:
        """Warm every owning shard's fragment tiers; merged per-doc hits.

        Warm-up is always fail-closed: a shard that cannot warm raises
        :class:`~repro.errors.ShardUnavailableError` (the serving
        warm-up layer already treats per-view errors as fail-soft, and
        the healthy shards it did reach stay warm).
        """
        if isinstance(view, str):
            view = self.get_view(view)
        name = view.name
        hits, failures = self._scatter(
            "warmup",
            lambda shard: self.executors[shard].warm_view(name),
            view.shards,
        )
        if failures:
            raise ShardUnavailableError(
                name, [failures[s] for s in sorted(failures)]
            )
        merged: dict[str, str] = {}
        for shard in view.shards:
            merged.update(hits[shard])
        return merged

    def resident_documents(
        self, view: Union[CoordinatorView, str]
    ) -> list[str]:
        """The view's documents whose skeleton some shard holds resident
        (same reading as the engine method, summed over the fleet)."""
        if isinstance(view, str):
            view = self.get_view(view)
        return sorted(
            doc_name
            for shard in view.shards
            for doc_name in self.executors[shard].resident_documents(
                view.name
            )
        )

    # -- search ------------------------------------------------------------------

    def search(
        self,
        view: Union[CoordinatorView, str],
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
        materialize: bool = False,
    ) -> list[SearchResult]:
        return self.search_detailed(
            view, keywords, top_k, conjunctive, materialize=materialize
        ).results

    def search_detailed(
        self,
        view: Union[CoordinatorView, str],
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
        materialize: bool = False,
    ) -> SearchOutcome:
        """The N-shard case of the protocol (see the module docstring):
        the engine's two phases, each behind :meth:`_scatter`, with a
        gather between them and a merge after.

        The outcome's ``timings`` merge the per-shard ledgers by sum
        (they ran one after another) — or by max under a
        ``shard_deadline``, where they ran side by side — and stack the
        coordinator's own gather/merge spans serially on top, so
        ``timings.total`` tracks coordinator wall clock.
        """
        coordinator_timings = PhaseTimings()
        start = time.perf_counter()
        if isinstance(view, str):
            view = self.get_view(view)
        normalized = tuple(normalize_keyword(keyword) for keyword in keywords)
        shards = view.shards
        name = view.name
        coordinator_timings.qpt = time.perf_counter() - start

        # Phase 1 scatter: per-shard statistics (no scores exist yet).
        harvests, failures = self._scatter(
            "statistics",
            lambda shard: self.executors[shard].collect(name, normalized),
            shards,
        )
        self._enforce_policy(name, failures, healthy_count=len(harvests))
        healthy = tuple(shard for shard in shards if shard in harvests)

        # Gather: integer sums -> global idf; give each fragment (a part
        # of its shard's statistics) its global view offset (one integer
        # per fragment: no result object exists yet, and rank_statistics
        # builds the winners at offset + row within the part) so ranking
        # tie-breaks match the single-engine concatenated evaluation
        # exactly.  A shard lost in phase 1 contributes nothing here —
        # view_size, offsets and idf all describe the *surviving*
        # fragments, so a degraded outcome equals evaluating the
        # healthy-only view.
        start = time.perf_counter()
        positions = {
            shard: self.executors[shard].fragments_for(name)[0].positions
            for shard in healthy
        }
        fragment_sizes: dict[int, int] = {}
        for shard in healthy:
            fragment_sizes.update(
                zip(positions[shard], harvests[shard].part_sizes, strict=True)
            )
        offsets: dict[int, int] = {}
        running = 0
        for position in sorted(fragment_sizes):
            offsets[position] = running
            running += fragment_sizes[position]
        view_size = running
        for shard in healthy:
            harvests[shard].offsets = tuple(map(offsets.get, positions[shard]))
        containing = {
            keyword: sum(
                harvests[shard].containing.get(keyword, 0) for shard in healthy
            )
            for keyword in normalized
        }
        idf = idf_from_counts(view_size, containing)
        coordinator_timings.post_processing += time.perf_counter() - start

        # Phase 2 scatter: global idf -> scores -> per-shard top k.
        rankings, rank_failures = self._scatter(
            "ranking",
            lambda shard: self.executors[shard].rank(
                harvests[shard], idf, normalized, conjunctive, top_k
            ),
            healthy,
        )
        failures.update(rank_failures)
        self._enforce_policy(name, failures, healthy_count=len(rankings))
        ranked = {
            shard: rankings[shard][0]
            for shard in healthy
            if shard in rankings
        }

        # Streaming k-way merge with early termination.  A shard lost
        # in phase 2 simply contributes no stream: its results vanish
        # but the idf (computed above) stays the phase-1 truth, so the
        # survivors' scores — and their relative order — are exactly
        # the full ranking's, restricted to the healthy shards.
        start = time.perf_counter()
        winners, merge_stats = merge_shard_streams(
            [ShardStream(shard, results) for shard, results in ranked.items()],
            top_k,
        )
        merge_stats.missing = len(shards) - len(ranked)
        home = {
            id(scored): self.executors[shard].database
            for shard, results in ranked.items()
            for scored in results
        }
        results = wrap_results(
            winners, lambda scored: home[id(scored)], materialize
        )
        coordinator_timings.post_processing += time.perf_counter() - start

        shard_timings = {shard: harvests[shard].timings for shard in healthy}
        merged_shard_timings = PhaseTimings.merge(
            list(shard_timings.values()),
            concurrent=self.shard_deadline is not None,
        )
        timings = PhaseTimings.merge(
            [coordinator_timings, merged_shard_timings], concurrent=False
        )

        cache_hits: dict[str, str] = {}
        for shard in healthy:
            cache_hits.update(harvests[shard].cache_hits)
        missing = tuple(sorted(failures))
        return SearchOutcome(
            results=results,
            view_size=view_size,
            matching_count=sum(rankings[shard][1] for shard in ranked),
            idf=idf,
            timings=timings,
            cache_hits=cache_hits,
            evaluated_hit=all(
                harvests[shard].evaluated_hit for shard in healthy
            ),
            shards=shards,
            merge_stats=merge_stats,
            shard_timings=shard_timings,
            degraded=bool(failures),
            missing_shards=missing,
            failures=tuple(failures[shard] for shard in missing),
        )


def _sum_counts(
    total: dict, counters: Mapping, names: Sequence[str]
) -> None:
    for name in names:
        total[name] = total.get(name, 0) + counters[name]
