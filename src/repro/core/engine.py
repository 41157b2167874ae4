"""The end-to-end keyword-search-over-virtual-views engine.

``KeywordSearchEngine`` wires the paper's architecture together
(Figure 3): on a keyword query over a view it generates QPTs (phase 1),
builds PDTs from indices alone (phase 2), evaluates the unmodified view
query over the PDTs, scores the matching pruned results by column and
selects the top k, and defers materialization so document storage is
touched only when a winner's content is actually read (phase 3).
Keyword-independent PDT skeletons, per-keyword tf columns and
evaluated view results are served from a three-tier LRU query cache
keyed per view/document/keyword, invalidated
via database hooks on load/drop and self-invalidating across
reloads/redefinitions through generation- and QPT-stamped keys.

PDT trees are shared skeleton trees (keyword-independent: per-query tfs
live in flat arrays resolved through content-node slots), which is what
makes the evaluated tier sound — and makes the fully warm query path an
array sweep: one posting-list merge-join per keyword, column sums over
the evaluated entry's statistics plan (no result node is visited), a
columnar score and top-k selection, and one object per winner.
Each search returns its per-phase wall-clock timings in
``SearchOutcome.timings`` — Figure 14's module breakdown, with the PDT
phase further split into its skeleton and postings halves.  What a
search returns lives in :mod:`repro.core.outcome`, and the write path
that keeps the tiers valid under edits in :mod:`repro.core.maintenance`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Union

from repro.core.cache import QueryCache, TfColumn
from repro.core.maintenance import apply_delta, live_snapshots, restore_skeleton
from repro.core.materialize import materialize_result
from repro.core.outcome import (
    PhaseTimings,
    SearchOutcome,
    SearchResult,
    View,
    ViewStatistics,
    rank_statistics,
    wrap_results,
)
from repro.core.pdt import build_skeleton, generate_pdt, sweep_tf_arrays
from repro.core.prepare import prepare_inv_lists
from repro.core.qpt import generate_qpts
from repro.core.rewrite import make_pdt_resolver
from repro.core.skeleton import PDTSkeleton
from repro.core.snapshot import SkeletonStore
from repro.core.scoring import (
    QueryColumns,
    SkeletonNeeded,
    StatisticsPlan,
    idf_from_counts,
)
from repro.errors import (
    DocumentNotFoundError,
    InjectedFaultError,
    StaleViewError,
    UnsupportedQueryError,
    ViewDefinitionError,
)
from repro.storage.database import IndexedDocument, XMLDatabase
from repro.storage.update import DocumentDelta
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.tokenizer import normalize_keyword
from repro.xquery.ast import (
    BooleanExpr,
    Expr,
    FLWOR,
    FTContains,
    VarRef,
    sequence_items,
)
from repro.xquery.evaluator import EvalContext, Evaluator
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query


@dataclass(slots=True)
class _TierReads:
    """One query's tier keys and ``get_many`` reads, in view order, as
    the sum takes them (``query``: skeletons, and tf cells
    document-major, one per distinct keyword), and where each
    document's cells came from (``hits``, the outcome's ``cache_hits``)."""

    cacheable: bool
    scan_started: float
    docs: list[IndexedDocument]
    skeleton_keys: list[tuple]
    query: QueryColumns
    hits: dict[str, str]

    def cells(self, at: int) -> list[Optional[TfColumn]]:
        width = len(self.query.keywords)
        return self.query.tf_columns[at * width:(at + 1) * width]


class KeywordSearchEngine:
    """Keyword search over virtual XML views (the paper's Efficient system).

    By default the engine serves repeated queries through the
    three-tier :class:`QueryCache` (PDT skeletons, PDT tf columns,
    evaluated view results); the cache is invalidated
    automatically when documents are loaded/dropped or a view name is
    redefined.  A warm skeleton means a query with a never-seen keyword
    set skips every path-index probe and the structural merge pass.
    Pass ``enable_cache=False`` for the original probe-every-time
    behavior, or supply a pre-configured ``cache``.

    The search entry points are safe to call from a thread pool (the
    serving layer does): all shared state is either immutable once
    published (views, QPTs, skeleton trees) or lock-protected (the
    cache), and each search's timings travel only in its own
    :class:`SearchOutcome`.
    """

    def __init__(
        self,
        database: XMLDatabase,
        cache: Optional[QueryCache] = None,
        enable_cache: bool = True,
        snapshot_store: Optional[SkeletonStore] = None,
    ):
        self.database = database
        self._views: dict[str, View] = {}
        self._closed = False
        if cache is None and enable_cache:
            cache = QueryCache()
        self.cache = cache
        if snapshot_store is not None and cache is None:
            raise ValueError(
                "a snapshot store requires the query cache (the persistent "
                "tier backs the in-process skeleton tier); construct the "
                "engine with enable_cache=True"
            )
        #: Optional persistent skeleton tier (see
        #: :class:`repro.core.snapshot.SkeletonStore`): consulted on
        #: skeleton-tier misses and filled on every fresh build, so
        #: engine restarts and sibling processes sharing the directory
        #: load structural work instead of rebuilding it.
        self.snapshot_store = snapshot_store
        if cache is not None:
            database.add_invalidation_hook(self._on_document_change)
            database.add_update_hook(self._on_document_update)

    # -- what the serving layer reads (CorpusCoordinator answers the same) ------

    def stats(self) -> dict[str, dict]:
        """Cache-tier and snapshot-store counters, each ``{}`` when the
        engine runs without that tier."""
        cache, store = self.cache, self.snapshot_store
        return {
            "cache": cache.stats() if cache is not None else {},
            "snapshot_store": store.stats() if store is not None else {},
        }

    def health_snapshot(self) -> dict:
        """A lone engine has no shard that could be quarantined."""
        return {}

    def snapshot_payload(
        self, doc_fingerprint: str, qpt_hash: str
    ) -> Optional[bytes]:
        """One stored skeleton's wire bytes, verbatim, or ``None`` —
        what ``GET /snapshots/<key>`` serves to a warming peer."""
        store = self.snapshot_store
        if store is None:
            return None
        return store.read_payload(doc_fingerprint, qpt_hash)

    def _on_document_change(self, doc_name: str) -> None:
        """Database hook: a document was loaded or dropped."""
        self.cache.invalidate_document(doc_name)

    def _on_document_update(self, delta: DocumentDelta) -> None:
        """Database hook: a sub-document update was applied.  Keep what
        it left valid (:func:`~repro.core.maintenance.apply_delta`), then
        re-warm the views reading the document so the next query finds
        the skeleton and evaluated tiers hot — a lookup for a view that
        kept its entries, a rebuild only for one whose structure the
        edit changed."""
        store, views = self.snapshot_store, self._views.values()
        for view in apply_delta(self.cache, store, self.database, views, delta):
            if all(name in self.database for name in view.qpts):
                self.warm_view(view)

    # -- snapshot tier / lifecycle --------------------------------------------

    def prune_snapshots(self) -> int:
        """Drop persistent snapshots no live ``(document, view)`` pair can
        restore (:func:`~repro.core.maintenance.live_snapshots`),
        returning the number of files removed; 0 without a store."""
        store = self.snapshot_store
        if store is None:
            return 0
        views = self._views.values()
        return store.prune(keep=live_snapshots(store, self.database, views))

    def close(self) -> None:
        """Release the engine's external hooks and tidy the snapshot tier.

        Unregisters the database invalidation/update hooks (so a dropped
        engine stops receiving write traffic) and prunes the snapshot
        store down to coordinates still reachable from the registered
        views.  Idempotent; the engine remains usable for reads after
        closing, it just no longer tracks writes.
        """
        if self._closed:
            return
        self._closed = True
        if self.cache is not None:
            self.database.remove_invalidation_hook(self._on_document_change)
            self.database.remove_update_hook(self._on_document_update)
        self.prune_snapshots()

    def __enter__(self) -> "KeywordSearchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- view management --------------------------------------------------------

    def define_view(self, name: str, text: str) -> View:
        """Parse and analyze a view definition; QPTs are built once here."""
        program = parse_query(text)
        expr = inline_functions(program)
        return self.register_view(name, expr, text)

    def register_view(self, name: str, expr: Expr, text: str = "") -> View:
        """Register an already-parsed, function-free view expression.

        ``define_view`` minus the parse step.  The sharded coordinator
        parses a view once and hands each shard executor the fragment
        expressions it owns; re-serializing them just to re-parse here
        would be wasted work (and a round-trip through the printer the
        AST does not have).
        """
        qpts = generate_qpts(expr)
        if not qpts:
            raise ViewDefinitionError(
                "view references no documents; nothing to search"
            )
        for doc_name in qpts:
            self.database.get(doc_name)  # fail fast on unknown documents
        view = View(name=name, text=text, expr=expr, qpts=qpts)
        if self.cache is not None and name in self._views:
            self.cache.invalidate_view(name)
        self._views[name] = view
        return view

    def get_view(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise ViewDefinitionError(f"no view named {name!r}") from None

    def drop_view(self, name: str) -> None:
        """Forget a view and its cache entries (snapshots: prunable)."""
        if self._views.pop(name, None) is None:
            raise ViewDefinitionError(f"no view named {name!r}")
        if self.cache is not None:
            self.cache.invalidate_view(name)

    def warm_view(self, view: Union[View, str]) -> dict[str, str]:
        """Pre-build the view's keyword-independent cached state.

        Runs one ``build_skeleton`` per ``(view, document)`` pair plus
        the (keyword-independent) view evaluation, filling the skeleton
        and evaluated cache tiers, so the *first* keyword query against
        the view — with any keyword set, including never-seen ones —
        performs zero path-index probes and skips the XQuery evaluator.
        With a snapshot store configured, warming prefers *restoring*
        each skeleton from disk over rebuilding it (warm-from-snapshot),
        and every skeleton it does build is persisted for the next
        process.  The serving layer calls this at startup for configured
        hot views; it is also safe mid-flight (idempotent, and cheap
        when the tiers are already warm).

        Returns the per-document cache outcome the warming pass itself
        saw (``"miss"`` = skeleton built now, ``"snapshot"`` = restored
        from the persistent store, ``"pdt"`` = already resident),
        keyed by document name.  Pre-building is the contract, so
        unlike a query this builds every skeleton the tier lacks even
        when the evaluated entry is held.  A view with more documents
        than the skeleton tier holds warms the first ones in document
        order and builds the rest for nothing (see
        :meth:`resident_documents`).
        """
        if self.cache is None:
            raise ValueError(
                "warm_view requires the query cache (the engine was "
                "constructed with enable_cache=False)"
            )
        if isinstance(view, str):
            view = self.get_view(view)
        elif self._views.get(view.name) is not view:
            # An unregistered (or since-redefined) View would run the
            # whole build with cacheable=False: all cost, zero warmth.
            raise ViewDefinitionError(
                f"cannot warm view {view.name!r}: the object is not the "
                "currently registered definition (re-fetch it with "
                "get_view, or warm by name)"
            )
        timings = PhaseTimings()
        reads = self._build_pdts(view, (), timings)
        self._complete_skeletons(view, reads, timings)
        self._evaluate_view_results(view, reads, timings)
        return reads.hits

    def resident_documents(self, view: Union[View, str]) -> list[str]:
        """The view's documents whose skeleton is in the skeleton tier
        right now — what no later reader (a keyword column the PDT tier
        lacks, an evaluated-tier miss, byte lengths an edit moved) will
        have to rebuild.  Counts no hit or miss and refreshes nothing."""
        if isinstance(view, str):
            view = self.get_view(view)
        cache = self.cache
        if cache is None or self._views.get(view.name) is not view:
            return []
        resident = []
        for doc_name, _, qpt_hash in view.documents:
            if doc_name not in self.database:
                continue
            key = cache.skeleton_key(
                view.name,
                doc_name,
                self.database.get(doc_name).generation,
                qpt_hash,
            )
            if key in cache.skeletons:
                resident.append(doc_name)
        return resident

    # -- search -------------------------------------------------------------------

    def search(
        self,
        view: Union[View, str],
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
        materialize: bool = False,
    ) -> list[SearchResult]:
        """Ranked keyword search over a virtual view (Problem Ranked-KS).

        Results are lazy: document storage is touched only when a caller
        invokes ``materialize()``/``to_xml()`` on a result.  Pass
        ``materialize=True`` to eagerly expand every winner up front.
        """
        return self.search_detailed(
            view, keywords, top_k, conjunctive, materialize=materialize
        ).results

    def search_detailed(
        self,
        view: Union[View, str],
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
        materialize: bool = False,
    ) -> SearchOutcome:
        timings = PhaseTimings()
        start = time.perf_counter()
        if isinstance(view, str):
            view = self.get_view(view)
        normalized = tuple(normalize_keyword(keyword) for keyword in keywords)
        timings.qpt = time.perf_counter() - start

        # Phases 2–3a plus the statistics sum (see
        # collect_view_statistics, which also rejects a stale view) —
        # the same phase-1 routine a shard executor runs.
        stats = self.collect_view_statistics(view, normalized, timings)

        # The one-engine case of the protocol: the counts are already
        # the whole view's, and one ranked list is already the answer —
        # no scatter, no merge.
        start = time.perf_counter()
        idf = idf_from_counts(stats.view_size, stats.containing)
        ranked, matching = rank_statistics(
            stats, idf, normalized, conjunctive, top_k
        )
        results = wrap_results(ranked, lambda _: self.database, materialize)
        timings.post_processing += time.perf_counter() - start

        return SearchOutcome(
            results=results,
            view_size=stats.view_size,
            matching_count=matching,
            idf=idf,
            timings=timings,
            cache_hits=stats.cache_hits,
            evaluated_hit=stats.evaluated_hit,
        )

    def collect_view_statistics(
        self,
        view: Union[View, str],
        normalized: Sequence[str],
        timings: Optional[PhaseTimings] = None,
    ) -> ViewStatistics:
        """Phase 1 of the scatter-gather protocol: statistics, no scores.

        Runs the pipeline up to — but not including — scoring: PDT
        generation (phase 2), view evaluation (phase 3a), and the
        column sums over the evaluated entry's plan
        (:meth:`repro.core.scoring.StatisticsPlan.sum`).  Scores
        need idf, and idf is a global view statistic; under a sharded
        corpus it exists only after every shard's integer counts are
        summed, so this method stops at the integers and leaves phase 2
        of the protocol (:func:`rank_statistics`) to the caller.
        ``normalized`` must already be keyword-normalized.  Spans are
        *added* to the same phases ``search_detailed`` reports (pdt,
        evaluator; the statistics sum lands in post_processing) of the
        ``timings`` ledger — a new one unless passed — which the
        statistics carry.
        """
        if isinstance(view, str):
            view = self.get_view(view)
        normalized = tuple(normalized)
        if timings is None:
            timings = PhaseTimings()

        start = time.perf_counter()
        reads = self._build_pdts(view, normalized, timings)
        timings.pdt += time.perf_counter() - start

        plan, evaluated_hit = self._evaluate_view_results(view, reads, timings)

        start = time.perf_counter()
        try:
            sums = plan.sum(reads.query)
        except SkeletonNeeded as needed:
            # A document's coordinate moved (an edit), so the plan
            # re-picks its byte lengths — from a skeleton no earlier
            # reader needed.
            self._complete_skeletons(view, reads, timings, needed.positions)
            start = time.perf_counter()
            sums = plan.sum(reads.query)
        timings.post_processing += time.perf_counter() - start
        return ViewStatistics(
            sums=sums,
            cache_hits=reads.hits,
            evaluated_hit=evaluated_hit,
            timings=timings,
        )

    def _build_pdts(
        self,
        view: View,
        normalized: tuple[str, ...],
        timings: PhaseTimings,
    ) -> _TierReads:
        """A query's skeletons and tf columns, through the cache tiers:
        :meth:`_read_tiers`'s two ``get_many`` lists as they came back
        (``reads.query``, a :class:`~repro.core.scoring.QueryColumns`;
        no PDT object is built).  Only a document whose tf columns the
        PDT tier lacks is finished here — its skeleton by
        :meth:`_structural_half`, then its columns by
        :meth:`_keyword_half`.  A document the PDT tier served whole
        reads ``"pdt"`` and keeps whatever the skeleton tier returned,
        ``None`` included: the other readers of a skeleton — an
        evaluated-tier miss, byte lengths stale for this query's
        coordinates, :meth:`warm_view` — ask :meth:`_complete_skeletons`
        for it.

        Every key embeds the QPT's *content hash*, never its object
        identity, so a structurally identical QPT built in a fresh
        process addresses the same entries.  Tiers apply only to
        *registered* views (name still bound to this exact ``View``):
        inline views from :meth:`execute` share the ``<inline>`` name
        and build throwaway QPTs per call, so caching them could alias
        across definitions.

        A view with more documents than a tier holds sweeps it in the
        same order every query; every put carries the sweep's start
        (``scan_started``) so the sweep keeps what it already used
        instead of flooding the tier.
        """
        reads = self._read_tiers(view, normalized, timings)
        if None in reads.query.tf_columns:
            for at in range(len(reads.docs)):
                if None in reads.cells(at):
                    self._structural_half(view, reads, at, timings)
                    self._keyword_half(reads, at, timings)
        return reads

    def _complete_skeletons(
        self,
        view: View,
        reads: _TierReads,
        timings: PhaseTimings,
        positions: Optional[Sequence[int]] = None,
    ) -> None:
        """Every skeleton the tier reads left out — or the ones at
        ``positions``, for a reader that needs only those — by
        :meth:`_structural_half` (``pdt``)."""
        skeletons = reads.query.skeletons
        if positions is None:
            positions = [at for at, skeleton in enumerate(skeletons) if skeleton is None]
        if not positions:
            return
        start = time.perf_counter()
        for at in positions:
            self._structural_half(view, reads, at, timings)
        timings.pdt += time.perf_counter() - start

    def _read_tiers(
        self, view: View, normalized: tuple[str, ...], timings: PhaseTimings
    ) -> _TierReads:
        """Key every document, after one pass that raises
        :class:`StaleViewError` naming every dropped one, and read the
        skeleton and PDT tiers with one ``get_many`` each (tf columns
        are keyword work: ``pdt_postings``)."""
        scan_started = time.perf_counter()
        cache = self.cache
        cacheable = cache is not None and self._views.get(view.name) is view
        documents = view.documents
        # The generation captured here keys every tier this query
        # touches — including the evaluated tier — so one query's cache
        # traffic is generation-coherent per document even if a reload
        # lands mid-flight.
        get, skeleton_key = self.database.get, QueryCache.skeleton_key
        docs, doc_coordinates, skeleton_keys, dropped = [], [], [], []
        for doc_name, _, qpt_hash in documents:
            try:
                indexed = get(doc_name)
            except DocumentNotFoundError:
                dropped.append(doc_name)
                continue
            docs.append(indexed)
            doc_coordinates.append((doc_name, indexed.generation, qpt_hash))
            skeleton_keys.append(
                skeleton_key(view.name, doc_name, indexed.generation, qpt_hash)
            )
        if dropped:
            raise StaleViewError(view.name, dropped)
        distinct = tuple(dict.fromkeys(normalized))
        skeletons: list[Optional[PDTSkeleton]] = [None] * len(documents)
        columns: list[Optional[TfColumn]] = [None] * (len(documents) * len(distinct))
        if cacheable:
            skeletons = cache.skeletons.get_many(skeleton_keys)
            start = time.perf_counter()
            columns = cache.pdts.get_many([  # QueryCache.pdt_key's layout
                key + (keyword,) for key in skeleton_keys for keyword in distinct
            ])
            timings.pdt_postings += time.perf_counter() - start
        query = QueryColumns(
            skeletons, columns, distinct, view.positions, tuple(doc_coordinates)
        )
        return _TierReads(
            cacheable, scan_started, docs, skeleton_keys, query,
            dict.fromkeys(view.positions, "pdt"),
        )

    def _structural_half(
        self, view: View, reads: _TierReads, at: int, timings: PhaseTimings
    ) -> None:
        """Document ``at``'s skeleton into ``reads.query.skeletons``
        (``pdt_skeleton``), and where it came from into ``reads.hits``,
        deepest reuse first:

        1. **Skeleton tier** ``(view, doc)``, already read.  A hit means
           zero path-index probes, so a warm view answers *never-seen*
           keyword sets without touching the path index.
        2. **Snapshot store** ``(doc fingerprint, qpt hash)``: the
           persistent tier, when configured.  A hit deserializes a
           skeleton some process built earlier — zero path probes, like
           a skeleton hit — refills the skeleton tier, and is reported
           as ``"snapshot"``.

        Else a ``"miss"``: probe the path index, build, save.  A skeleton
        the tier turns away serves this query only.
        """
        doc_name, qpt, qpt_hash = view.documents[at]
        skeletons = reads.query.skeletons
        if skeletons[at] is not None:
            reads.hits[doc_name] = "skeleton"
            return
        cache, store = self.cache, self.snapshot_store
        cacheable, scan_started = reads.cacheable, reads.scan_started
        indexed, skeleton, hit = reads.docs[at], None, "miss"
        start = time.perf_counter()
        if cacheable and store is not None:
            skeleton = restore_skeleton(
                store, indexed.fingerprint, qpt_hash, doc_name
            )
            if skeleton is not None:
                hit = "snapshot"
        if skeleton is None:
            skeleton = build_skeleton(qpt, indexed.path_index)
            if cacheable and store is not None:
                # A failed snapshot write costs the *next* process a
                # rebuild; it must never fail the query that already
                # has its skeleton.
                try:
                    store.save(indexed.fingerprint, qpt_hash, skeleton)
                except (OSError, InjectedFaultError):
                    pass
        key = reads.skeleton_keys[at]
        if cacheable and cache.skeletons.admits(key, scan_started):
            cache.skeletons.put(key, skeleton, scan_started)
        skeletons[at] = skeleton
        reads.hits[doc_name] = hit
        timings.pdt_skeleton += time.perf_counter() - start

    def _keyword_half(
        self, reads: _TierReads, at: int, timings: PhaseTimings
    ) -> None:
        """Document ``at``'s tf columns into ``reads.query.tf_columns``
        (``pdt_postings``): only the keywords whose column the **PDT
        tier** ``(view, doc, keyword)`` lacks are probed and swept, and
        their columns put.  With none missing the inverted index is not
        touched.
        """
        distinct = reads.query.keywords
        missing = tuple(k for k, c in zip(distinct, reads.cells(at)) if c is None)
        if not missing:
            return
        start = time.perf_counter()
        inv_lists = prepare_inv_lists(reads.docs[at].inverted_index, missing)
        swept = sweep_tf_arrays(reads.query.skeletons[at], inv_lists, missing)
        for offset, keyword in enumerate(distinct):
            if keyword in swept:
                cell = TfColumn.of(swept[keyword])
                reads.query.tf_columns[at * len(distinct) + offset] = cell
                if reads.cacheable:
                    key = reads.skeleton_keys[at] + (keyword,)
                    self.cache.pdts.put(key, cell, reads.scan_started)
        timings.pdt_postings += time.perf_counter() - start

    def _evaluate_view_results(
        self, view: View, reads: _TierReads, timings: PhaseTimings
    ) -> tuple[StatisticsPlan, bool]:
        """The view's result nodes (``plan.nodes``) under their statistics
        plan, through the evaluated cache tier.  A ``timings`` ledger is
        charged the lookup and the evaluation as ``evaluator`` and a
        plan built here as ``post_processing`` — it is the statistics
        pass's structural half, whoever pays for it.

        The PDT trees handed to the evaluator are keyword-independent
        shared skeleton trees, so the evaluation result is a pure
        function of ``(view, per-document generations)`` — never of the
        query keywords — and so is the structural half of the statistics
        pass over it (:class:`~repro.core.scoring.StatisticsPlan`), which
        is built here, with the entry, and lives exactly as long.  A hit
        returns the exact node list a previous query's evaluation
        produced (shared read-only, like every other cached tree) and
        the plan over it; scoring stays correct because per-query tfs
        and byte lengths are resolved through content-node slots and
        record positions against *this* query's columns, not through
        anything stored in the nodes or the plan.  A miss completes the
        skeletons first: the evaluator opens every document.
        Two threads missing at once each evaluate and put; either entry
        serves, the later put stays.
        """
        cache, key = self.cache, None
        if reads.cacheable:
            start = time.perf_counter()
            key = cache.evaluated_key(view.name, view.token, reads.query.coordinates)
            cached = cache.evaluated.get(key)
            timings.evaluator += time.perf_counter() - start
            if cached is not None:
                return cached, True
        self._complete_skeletons(view, reads, timings)
        start = time.perf_counter()
        # The resolver builds each document's PDT as the evaluator opens it.
        evaluator = Evaluator(EvalContext(resolver=make_pdt_resolver(reads.query)))
        # Sequence evaluation is concatenation: each top-level item
        # evaluated alone is its part of the view, and gives its size.
        parts = [
            [item for item in evaluator.evaluate(expr) if isinstance(item, XMLNode)]
            for expr in sequence_items(view.expr)
        ]
        evaluated = time.perf_counter()
        plan = StatisticsPlan(chain.from_iterable(parts), [len(p) for p in parts])
        timings.evaluator += evaluated - start
        timings.post_processing += time.perf_counter() - evaluated
        if reads.cacheable:
            cache.evaluated.put(key, plan)
        return plan, False

    # -- diagnostics ------------------------------------------------------------

    def explain(self, view: Union[View, str], keywords: Sequence[str] = ()) -> str:
        """A human-readable plan report for a view.

        Shows each document's QPT (structure, axes, optional/mandatory
        edges, v/c annotations), the fixed probe plan PrepareLists will
        issue, and — when keywords are given — the PDT sizes a search
        would construct.  Intended for debugging view definitions and for
        teaching the architecture; not used by the pipeline itself.
        """
        from repro.core.prepare import probe_plan

        if isinstance(view, str):
            view = self.get_view(view)
        lines: list[str] = [f"view {view.name!r}"]
        normalized = tuple(normalize_keyword(keyword) for keyword in keywords)
        for doc_name in view.document_names:
            qpt = view.qpts[doc_name]
            lines.append(qpt.describe())
            lines.append("  probe plan:")
            for tag, pattern, with_values in probe_plan(qpt):
                shape = "".join(f"{axis}{step}" for axis, step in pattern)
                kind = "ids+values" if with_values else "ids"
                lines.append(f"    {shape}  ->  {kind}")
            if normalized:
                indexed = self.database.get(doc_name)
                pdt = generate_pdt(
                    qpt, indexed.path_index, indexed.inverted_index, normalized
                )
                lines.append(
                    f"  pdt: {pdt.node_count} elements "
                    f"(of {len(indexed.store)} in the document)"
                )
        if normalized:
            lines.append(f"keywords: {', '.join(normalized)}")
        return "\n".join(lines)

    # -- regular (non-keyword) queries via PDTs --------------------------------

    def evaluate_view(
        self, view: Union[View, str], materialize: bool = True
    ) -> list[XMLNode]:
        """Evaluate a view *without* keywords, through the PDT machinery.

        This implements the paper's closing observation ("our proposed PDT
        algorithms may be applied to optimize regular queries"): the view
        is evaluated over PDTs and, when ``materialize`` is set, each
        result is expanded from document storage.  With
        ``materialize=False`` the pruned results are returned as-is,
        which is what a pagination layer would keep around.
        """
        if isinstance(view, str):
            view = self.get_view(view)
        timings = PhaseTimings()
        reads = self._build_pdts(view, (), timings)
        plan, _ = self._evaluate_view_results(view, reads, timings)
        results = plan.nodes
        if not materialize:
            # A fresh list of shared, read-only pruned nodes (possibly
            # served from the evaluated tier) — callers must not mutate
            # the nodes themselves.
            return list(results)
        return [materialize_result(node, self.database) for node in results]

    # -- full keyword-query form (Figure 2) ----------------------------------------

    def execute(
        self, query_text: str, top_k: Optional[int] = 10
    ) -> list[SearchResult]:
        """Run a complete keyword query over a view, as in Figure 2.

        The query must be a FLWOR whose where clause applies ``ftcontains``
        to the iteration variable and whose return clause yields that
        variable; the remainder of the query is the view definition.
        """
        program = parse_query(query_text)
        expr = inline_functions(program)
        view_expr, keywords, conjunctive = extract_keyword_query(expr)
        qpts = generate_qpts(view_expr)
        view = View(name="<inline>", text=query_text, expr=view_expr, qpts=qpts)
        return self.search(view, keywords, top_k=top_k, conjunctive=conjunctive)


def extract_keyword_query(expr: Expr) -> tuple[Expr, tuple[str, ...], bool]:
    """Split a Figure-2-style keyword query into (view expr, keywords, mode).

    Recognized form: ``(let/for)+ where … $v ftcontains(…) … return $v``
    where ``$v`` is bound by the last for clause.  The ftcontains conjunct
    is removed from the where clause; what remains is the view definition
    whose results the engine scores.
    """
    if not isinstance(expr, FLWOR) or expr.where is None:
        raise UnsupportedQueryError(
            "keyword queries must be FLWOR expressions with an ftcontains "
            "where clause (see Figure 2 of the paper)"
        )
    ft, remainder = _split_ftcontains(expr.where)
    if ft is None:
        raise UnsupportedQueryError("the where clause has no ftcontains condition")
    if not isinstance(expr.ret, VarRef) or not isinstance(ft.expr, VarRef):
        raise UnsupportedQueryError(
            "ftcontains must apply to the returned view variable"
        )
    if expr.ret.name != ft.expr.name:
        raise UnsupportedQueryError(
            f"ftcontains variable ${ft.expr.name} does not match the returned "
            f"variable ${expr.ret.name}"
        )
    view_expr = FLWOR(expr.clauses, remainder, expr.ret)
    return view_expr, ft.keywords, ft.conjunctive


def _split_ftcontains(where: Expr) -> tuple[Optional[FTContains], Optional[Expr]]:
    """Remove the (single) ftcontains conjunct from a where clause."""
    if isinstance(where, FTContains):
        return where, None
    if isinstance(where, BooleanExpr) and where.op == "and":
        ft = None
        rest: list[Expr] = []
        for operand in where.operands:
            if isinstance(operand, FTContains) and ft is None:
                ft = operand
            else:
                rest.append(operand)
        if ft is None:
            return None, where
        if not rest:
            return ft, None
        if len(rest) == 1:
            return ft, rest[0]
        return ft, BooleanExpr("and", tuple(rest))
    return None, where
