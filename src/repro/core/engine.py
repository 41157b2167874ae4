"""The end-to-end keyword-search-over-virtual-views engine.

``KeywordSearchEngine`` wires the paper's architecture together
(Figure 3): on a keyword query over a view it generates QPTs (phase 1),
builds PDTs from indices alone (phase 2), evaluates the unmodified view
query over the PDTs, scores the matching pruned results by column and
selects the top k, and defers materialization so document storage is
touched only when a winner's content is actually read (phase 3).
Prepared index lists, keyword-independent PDT skeletons,
finished PDTs and evaluated view results are served from a
four-tier LRU query cache keyed per document/view/keywords, invalidated
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
phase further split into its skeleton and postings halves.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

from repro.core.cache import QueryCache, TfColumn
from repro.core.materialize import materialize_result
from repro.core.pdt import (
    PDTResult,
    PDTSkeleton,
    annotate_skeleton,
    build_skeleton,
    generate_pdt,
    patch_skeleton_byte_lengths,
)
from repro.core.prepare import (
    PreparedLists,
    prepare_inv_lists,
    prepare_path_lists,
)
from repro.core.qpt import QPT, generate_qpts
from repro.core.rewrite import make_pdt_resolver
from repro.core.snapshot import SkeletonStore
from repro.core.scoring import (
    ColumnSums,
    ScoredResult,
    StatisticsPlan,
    idf_from_counts,
)
from repro.core.topk import MergeStats
from repro.errors import (
    InjectedFaultError,
    StaleViewError,
    StorageError,
    UnsupportedQueryError,
    ViewDefinitionError,
)
from repro.storage.database import XMLDatabase
from repro.storage.update import DocumentDelta
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tokenizer import normalize_keyword
from repro.xquery.ast import (
    BooleanExpr,
    Expr,
    FLWOR,
    FTContains,
    VarRef,
)
from repro.xquery.evaluator import EvalContext, Evaluator
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.sharding import ShardFailure


@dataclass
class View:
    """A named virtual view: parsed definition plus its QPTs."""

    name: str
    text: str
    expr: Expr  # function-free view expression
    qpts: dict[str, QPT]
    #: This definition's identity in evaluated-tier keys — minted here,
    #: once per definition, because hashing ``expr`` itself is structural
    #: (a 96-fragment view's costs 0.1 ms, three times per cache hit).
    token: object = field(default_factory=object, repr=False, compare=False)

    @property
    def document_names(self) -> list[str]:
        return sorted(self.qpts)


@dataclass
class PhaseTimings:
    """Wall-clock seconds per pipeline phase (Figure 14's modules).

    ``pdt`` is further attributed to its two halves so benchmarks can
    tell structure from data: ``pdt_skeleton`` is the keyword-independent
    structural work (path-index probes + the merge pass — zero on a
    skeleton-tier hit) and ``pdt_postings`` the per-query keyword work
    (inverted-list probes + the tf annotation pass).  The halves sum to
    at most ``pdt``; cache-tier lookups make up the (tiny) remainder.
    """

    qpt: float = 0.0
    pdt: float = 0.0
    evaluator: float = 0.0
    post_processing: float = 0.0
    pdt_skeleton: float = 0.0
    pdt_postings: float = 0.0

    @property
    def total(self) -> float:
        return self.qpt + self.pdt + self.evaluator + self.post_processing

    def as_dict(self) -> dict[str, float]:
        return {
            "qpt": self.qpt,
            "pdt": self.pdt,
            "pdt_skeleton": self.pdt_skeleton,
            "pdt_postings": self.pdt_postings,
            "evaluator": self.evaluator,
            "post_processing": self.post_processing,
            "total": self.total,
        }

    @classmethod
    def merge(
        cls, spans: Sequence["PhaseTimings"], concurrent: bool = True
    ) -> "PhaseTimings":
        """Aggregate several phase ledgers into one.

        ``concurrent=True`` models spans that ran side by side (the
        coordinator's shard executors under its thread pool): elapsed
        wall clock per phase is the *longest* span, so each field merges
        by max.  ``concurrent=False`` models serial composition (the
        coordinator's own scatter/merge spans stacked on top of the
        shard work, or shards executed one after another): fields sum.
        An empty sequence merges to all zeros either way.
        """
        merged = cls()
        combine = max if concurrent else sum
        for spec in fields(cls):
            values = [getattr(span, spec.name) for span in spans]
            setattr(merged, spec.name, combine(values) if values else 0.0)
        return merged


@dataclass
class SearchResult:
    """One ranked result: scores from the pruned form, content on demand."""

    rank: int
    score: float
    scored: ScoredResult
    _database: Optional[XMLDatabase] = field(repr=False, default=None)
    _materialized: Optional[XMLNode] = field(repr=False, default=None)

    @property
    def pruned(self) -> XMLNode:
        return self.scored.node

    @property
    def is_materialized(self) -> bool:
        """Whether full content has already been fetched from storage."""
        return self._materialized is not None

    def tf(self, keyword: str) -> int:
        return self.scored.tf(keyword)

    def materialize(self) -> XMLNode:
        """Fetch full content from document storage (cached).

        This is the only point at which a result touches the document
        store; everything before it ran off indices and the pruned tree.
        """
        if self._materialized is None:
            if self._database is None:
                raise StorageError(
                    "cannot materialize: this SearchResult is not attached "
                    "to a database (construct it with _database=... or use "
                    "the pruned tree)"
                )
            self._materialized = materialize_result(self.scored.node, self._database)
        return self._materialized

    def to_xml(self, indent: Optional[int] = None) -> str:
        return serialize(self.materialize(), indent=indent)


@dataclass
class SearchOutcome:
    """Everything a search produced (results + diagnostics).

    The fields from ``shards`` down describe a scatter-gather and keep
    their empty defaults on a lone engine.  ``degraded`` is ``True``
    only under the coordinator's ``partial_results`` policy when one or
    more shards failed: ``missing_shards`` names them, ``failures``
    carries the typed records, and the global top-k guarantee is
    forfeited — the results are exactly the healthy shards' contribution
    (:meth:`repro.core.sharding.CorpusCoordinator.search_detailed` has
    the precise semantics per phase).
    """

    results: list[SearchResult]
    view_size: int
    matching_count: int
    idf: dict[str, float]
    pdts: dict[str, PDTResult]
    timings: PhaseTimings
    cache_hits: dict[str, str] = field(default_factory=dict)
    """Per-document cache outcome: ``"pdt"`` (the skeleton tier and the
    PDT tier, for every keyword's tf column), else where the skeleton
    came from: ``"skeleton"``, ``"snapshot"`` (restored from the
    persistent store — same zero-probe depth as a skeleton hit),
    ``"prepared"`` or ``"miss"``."""

    evaluated_hit: bool = False
    """Whether the view's result nodes came from the evaluated tier
    (keyword-independent evaluation skipped entirely)."""

    shards: tuple[int, ...] = ()
    merge_stats: Optional[MergeStats] = None
    shard_timings: dict[int, PhaseTimings] = field(default_factory=dict)
    degraded: bool = False
    missing_shards: tuple[int, ...] = ()
    failures: tuple["ShardFailure", ...] = ()

    _stats: Optional[Callable[[], dict]] = field(default=None, repr=False)
    _cache_stats: Optional[dict] = field(default=None, repr=False)

    @property
    def cache_stats(self) -> dict[str, dict]:
        """Per-tier cache counters of whatever answered (a coordinator's
        are summed over its shards; empty when the cache is disabled).
        Lets benchmarks and the differential harness assert *where* time
        went — e.g. that a skeleton-warm query hit the skeleton tier.
        Snapshotted lazily on first access (copying every tier's
        counters is too expensive for the per-query hot path) and
        memoized so repeated reads stay consistent."""
        if self._cache_stats is None:
            self._cache_stats = (
                self._stats()["cache"] if self._stats is not None else {}
            )
        return self._cache_stats


@dataclass
class ViewStatistics:
    """Phase-1 output of the scatter-gather scoring protocol.

    Everything one engine contributes *before* scores can exist: the
    statistics of its view results as columns
    (:class:`~repro.core.scoring.ColumnSums`: one tf column per keyword
    and the byte-length column), the view size, and the per-keyword
    containing counts.  idf is a global statistic over the whole view
    (Section 2.2) — under a sharded corpus it exists only after every
    shard's ``view_size`` and ``containing`` integers are summed, so
    phase 1 stops at the integers and phase 2
    (:func:`rank_statistics`) runs once the global idf is known.  The
    counts are exact integer sums, which is why sharded scores come out
    bit-identical to the single-engine path.

    ``offset`` is the view position of row 0: 0 for a lone engine, the
    fragment's place in the whole view once the coordinator's gather
    has set it.  No :class:`ScoredResult` exists until
    :func:`rank_statistics` builds one per winner; ``scored`` is the
    compatibility read, every row materialized (unscored) on first use.
    """

    sums: ColumnSums
    pdts: dict[str, PDTResult]
    cache_hits: dict[str, str]
    evaluated_hit: bool
    offset: int = 0

    @property
    def view_size(self) -> int:
        return len(self.sums.lengths)

    @property
    def containing(self) -> dict[str, int]:
        return self.sums.containing

    @cached_property
    def scored(self) -> list[ScoredResult]:
        result, offset = self.sums.result, self.offset
        return [result(row, offset=offset) for row in range(self.view_size)]


def rank_statistics(
    parts: Sequence[ViewStatistics],
    idf: Mapping[str, float],
    normalized: tuple[str, ...],
    conjunctive: bool,
    top_k: Optional[int],
) -> tuple[list[ScoredResult], int]:
    """Phase 2 of the protocol: the view-wide idf → keyword semantics →
    scores → top k over ``parts`` (the lone engine's one harvest, or the
    fragments one shard holds, in view order).  Returns the ranked
    survivors and how many results matched.

    Every step is column arithmetic (:class:`~repro.core.scoring.
    ColumnSums`): the mask picks the matching rows, only those are
    scored, and the selection is one stable reverse sort of their
    positions by score, cut at k, so equal scores keep ascending view
    index — the tie-break ``TopKSelector`` and the coordinator's merge
    share.  A :class:`~repro.core.scoring.ScoredResult` is built for
    the winners only, at view index ``part.offset + row``.
    ``top_k <= 0`` scores nothing and returns no result, but still
    counts the matches.
    """
    scores: list = []
    spans: list[tuple[int, ViewStatistics, list[int]]] = []
    matching = 0
    for part in parts:
        rows = part.sums.matching(conjunctive)
        matching += len(rows)
        if top_k is None or top_k > 0:
            spans.append((len(scores), part, rows))
            scores += part.sums.scores(rows, idf, normalized)
    # One C-level sort: below ≈ 600 candidates (every benchmark view)
    # faster than heapq.nlargest's per-candidate Python loop.
    positions = range(len(scores))
    winners = sorted(positions, key=scores.__getitem__, reverse=True)[:top_k]
    starts = [start for start, _part, _rows in spans]
    ranked = []
    for position in winners:
        start, part, rows = spans[bisect_right(starts, position) - 1]
        ranked.append(part.sums.result(
            rows[position - start], scores[position], part.offset
        ))
    return ranked, matching


def wrap_results(
    winners: Sequence[ScoredResult],
    database_of: Callable[[ScoredResult], XMLDatabase],
    materialize: bool,
) -> list[SearchResult]:
    """Ranked statistics become :class:`SearchResult`\\ s here and only
    here, each attached to the database that can materialize it.  No
    result touches the document store unless the caller opted into
    eager materialization."""
    results = [
        SearchResult(
            rank=rank,
            score=scored.score,
            scored=scored,
            _database=database_of(scored),
        )
        for rank, scored in enumerate(winners, start=1)
    ]
    if materialize:
        for result in results:
            result.materialize()
    return results


class KeywordSearchEngine:
    """Keyword search over virtual XML views (the paper's Efficient system).

    By default the engine serves repeated queries through the
    four-tier :class:`QueryCache` (prepared index lists, PDT skeletons,
    PDTs, evaluated view results); the cache is invalidated
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
        snapshot_store: Optional["SkeletonStore"] = None,
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
            # The delta-aware write path: sub-document updates migrate
            # patchable skeleton-tier entries (and the evaluated entries
            # over them) to the new generation instead of orphaning
            # them, forward snapshots to the new fingerprint, and
            # re-warm the affected views so the next query lands warm.
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
        if self.cache is not None:
            self.cache.invalidate_document(doc_name)

    @staticmethod
    def _delta_patchable(qpt: QPT, delta: DocumentDelta) -> bool:
        """Can this view's skeletons survive the edit with a byte-length
        patch alone?

        Yes iff *no* removed or added element matches a QPT node anywhere
        along its full root-to-element path: then the edit cannot change
        which elements the structural pass emits (a removed element that
        influenced the skeleton only through a probed descendant would
        have that descendant — also removed — fail this check), so the
        record set, tree shape, values and entry count are all identical
        to a rebuild, and only the edit point's ancestor byte lengths
        moved.  Patchability is a function of the QPT's structure and the
        delta's paths only — two views with equal content hashes always
        agree, which is what lets snapshots be forwarded per hash.
        """
        for path in delta.removed_paths + delta.added_paths:
            if qpt.match_table(path)[len(path) - 1]:
                return False
        return True

    def _on_document_update(self, delta: DocumentDelta) -> None:
        """Database hook: a sub-document update was applied.

        The write path that replaces the invalidation storm: classify
        each registered view reading the document as patchable or not,
        migrate + patch the patchable skeleton-tier entries (and forward
        their snapshots to the new fingerprint), migrate the patchable
        views' evaluated entries (their plans read byte lengths from
        whichever skeleton serves the next query), drop everything else
        derived from the document, and re-warm the
        affected views so the next query finds the skeleton and
        evaluated tiers hot — a lookup for a view that kept its entries,
        a rebuild only for one whose structure the edit changed.
        """
        cache = self.cache
        if cache is None:
            return
        doc_name = delta.doc_name
        affected: list[View] = []
        patched_views: set[str] = set()
        for name, view in self._views.items():
            qpt = view.qpts.get(doc_name)
            if qpt is None:
                continue
            affected.append(view)
            if self._delta_patchable(qpt, delta):
                patched_views.add(name)
        moved, _ = cache.apply_document_delta(
            doc_name,
            delta.old_generation,
            delta.new_generation,
            patched_views,
        )
        patched_by_hash: dict[str, PDTSkeleton] = {}
        seen: set[int] = set()
        for key, skeleton in moved:
            if id(skeleton) not in seen:
                seen.add(id(skeleton))
                patch_skeleton_byte_lengths(
                    skeleton, delta.ancestor_keys, delta.length_delta
                )
            patched_by_hash[key[3]] = skeleton
        self._forward_snapshots(delta, affected, patched_views, patched_by_hash)
        for view in affected:
            if all(name in self.database for name in view.qpts):
                self.warm_view(view)

    def _forward_snapshots(
        self,
        delta: DocumentDelta,
        affected: list[View],
        patched_views: set[str],
        patched_by_hash: dict[str, PDTSkeleton],
    ) -> None:
        """Version the persistent tier forward across an update.

        For each affected QPT content hash: a patchable view's snapshot
        is re-written under the document's *new* fingerprint (patched in
        memory when the skeleton tier had it, else loaded from the old
        snapshot and patched), and the old-fingerprint snapshot is
        discarded — it is unaddressable by construction, so this only
        reclaims the disk instead of orphaning the file.
        """
        store = self.snapshot_store
        if store is None or delta.old_fingerprint is None:
            return
        if delta.doc_name not in self.database:
            return
        new_fingerprint = self.database.get(delta.doc_name).fingerprint
        handled: set[str] = set()
        for view in affected:
            qpt_hash = view.qpts[delta.doc_name].content_hash
            if qpt_hash in handled:
                continue
            handled.add(qpt_hash)
            if view.name in patched_views:
                skeleton = patched_by_hash.get(qpt_hash)
                if skeleton is None:
                    skeleton = self._restore(
                        store, delta.old_fingerprint, qpt_hash, delta.doc_name
                    )
                    if skeleton is not None:
                        patch_skeleton_byte_lengths(
                            skeleton, delta.ancestor_keys, delta.length_delta
                        )
                if skeleton is not None:
                    store.save(new_fingerprint, qpt_hash, skeleton)
            store.discard(delta.old_fingerprint, qpt_hash)

    # -- snapshot tier / lifecycle --------------------------------------------

    @staticmethod
    def _restore(
        store: SkeletonStore, fingerprint: str, qpt_hash: str, doc_name: str
    ) -> Optional[PDTSkeleton]:
        """A stored skeleton this engine may serve — or ``None``: build it.

        The store has decoded and validated it.  A mismatched
        ``doc_name`` would mean a digest collision or a store shared
        across differently-named loads of the same content — never
        served blind.
        """
        restored = store.load(fingerprint, qpt_hash)
        if restored is None or restored.doc_name != doc_name:
            return None
        return restored

    def prune_snapshots(self) -> int:
        """Drop persistent snapshots no live ``(document, view)`` pair can
        restore, returning the number of files removed.

        The live set is every ``(fingerprint, qpt hash)`` coordinate
        reachable from the currently registered views and the documents
        currently in the database; anything else in the store — older
        fingerprints, dropped views, other engines' leftovers — is
        unaddressable from here and only holds disk.  No-op without a
        snapshot store.
        """
        store = self.snapshot_store
        if store is None:
            return 0
        keep: set[str] = set()
        for view in self._views.values():
            for doc_name, qpt in view.qpts.items():
                if doc_name not in self.database:
                    continue
                fingerprint = self.database.get(doc_name).fingerprint
                keep.add(store.entry_name(fingerprint, qpt.content_hash))
        return store.prune(keep=keep)

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

    def warm_view(
        self,
        view: Union[View, str],
        scan_started: Optional[float] = None,
    ) -> dict[str, str]:
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
        from the persistent store, ``"skeleton"``/``"pdt"`` = already
        warm), keyed by document name.  A view with more documents
        than the skeleton tier holds warms the first ones in document
        order and builds the rest for nothing (see
        :meth:`resident_documents`); ``scan_started`` lets a caller
        warming several views as one sweep (a shard executor's
        fragments) share one start, and defaults to now.
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
        self._reject_stale(view)
        pdts, cache_hits, doc_coordinates = self._build_pdts(
            view, (), scan_started=scan_started
        )
        self._evaluate_view_results(view, pdts, doc_coordinates)
        return cache_hits

    def resident_documents(self, view: Union[View, str]) -> list[str]:
        """The view's documents whose skeleton is in the skeleton tier
        right now — what the next query will not rebuild.  Counts no
        hit or miss and refreshes nothing."""
        if isinstance(view, str):
            view = self.get_view(view)
        cache = self.cache
        if cache is None or self._views.get(view.name) is not view:
            return []
        resident = []
        for doc_name in view.document_names:
            if doc_name not in self.database:
                continue
            key = cache.skeleton_key(
                view.name,
                doc_name,
                self.database.get(doc_name).generation,
                view.qpts[doc_name].content_hash,
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
        start = scan_started = time.perf_counter()
        if isinstance(view, str):
            view = self.get_view(view)
        self._reject_stale(view)
        normalized = tuple(normalize_keyword(keyword) for keyword in keywords)
        timings.qpt = time.perf_counter() - start

        # Phases 2–3a plus the statistics sum (see
        # collect_view_statistics) — the same phase-1 routine a shard
        # executor runs.
        stats = self.collect_view_statistics(
            view, normalized, timings, scan_started
        )

        # The one-part case of the protocol: the counts are already the
        # whole view's, and one ranked list is already the answer — no
        # scatter, no merge.
        start = time.perf_counter()
        idf = idf_from_counts(stats.view_size, stats.containing)
        ranked, matching = rank_statistics(
            (stats,), idf, normalized, conjunctive, top_k
        )
        results = wrap_results(ranked, lambda _: self.database, materialize)
        timings.post_processing += time.perf_counter() - start

        return SearchOutcome(
            results=results,
            view_size=stats.view_size,
            matching_count=matching,
            idf=idf,
            pdts=stats.pdts,
            timings=timings,
            cache_hits=stats.cache_hits,
            evaluated_hit=stats.evaluated_hit,
            _stats=self.stats,
        )

    def collect_view_statistics(
        self,
        view: Union[View, str],
        normalized: Sequence[str],
        timings: Optional[PhaseTimings] = None,
        scan_started: Optional[float] = None,
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
        ``normalized`` must already be keyword-normalized.  When a
        timings ledger is passed, spans are *added* to the same phases
        ``search_detailed`` reports (pdt, evaluator; the statistics sum
        lands in post_processing).  ``scan_started`` is the
        ``time.perf_counter`` reading at which the *query* began — one
        value shared by every view (fragment) the query sweeps: cache
        entries used since then are not evicted on its behalf (see
        :meth:`repro.core.cache.LRUCache.put`).  Defaults to now — a
        lone call is its own query.
        """
        if isinstance(view, str):
            view = self.get_view(view)
        self._reject_stale(view)
        normalized = tuple(normalized)

        start = time.perf_counter()
        pdts, cache_hits, doc_coordinates = self._build_pdts(
            view, normalized, timings, scan_started
        )
        if timings is not None:
            timings.pdt += time.perf_counter() - start

        plan, evaluated_hit = self._evaluate_view_results(
            view, pdts, doc_coordinates, timings
        )

        start = time.perf_counter()
        sums = plan.sum(normalized, tf_source=pdts)
        if timings is not None:
            timings.post_processing += time.perf_counter() - start
        return ViewStatistics(
            sums=sums,
            pdts=pdts,
            cache_hits=cache_hits,
            evaluated_hit=evaluated_hit,
        )

    def _reject_stale(self, view: View) -> None:
        """Fail fast when a view references dropped documents."""
        missing = [name for name in view.qpts if name not in self.database]
        if missing:
            raise StaleViewError(view.name, missing)

    def _build_pdts(
        self,
        view: View,
        normalized: tuple[str, ...],
        timings: Optional[PhaseTimings] = None,
        scan_started: Optional[float] = None,
    ) -> tuple[
        dict[str, PDTResult],
        dict[str, str],
        tuple[tuple[str, int, str], ...],
    ]:
        """Per-document PDTs for a query, through the cache tiers.

        Per document, the structural half — deepest reuse first:

        1. **Skeleton tier** ``(view, doc)``: the keyword-independent
           structural pass.  A hit means zero path-index probes, so a
           warm view answers *never-seen* keyword sets without touching
           the path index.
        2. **Snapshot store** ``(doc fingerprint, qpt hash)``: the
           persistent tier, when configured.  A hit deserializes a
           skeleton some process built earlier — zero path probes, like
           a skeleton hit — refills the in-memory skeleton tier, and is
           reported as ``"snapshot"``.
        3. **Prepared tier** ``(doc, qpt hash, keywords)``: the raw
           probe results.  A hit skips all index probes but redoes the
           merge pass (and refills the skeleton tier from it for free).

        Then the keyword half: each distinct keyword's tf column from
        the **PDT tier** ``(view, doc, keyword)``; only the keywords it
        lacks are swept, and their columns put.  A miss still probes
        every keyword, to fill the prepared tier.  A document is ``"pdt"``
        when the skeleton tier and this one served it all.

        Every key embeds the QPT's *content hash*, never its object
        identity, so a structurally identical QPT built in a fresh
        process addresses the same entries.  Tiers apply only to
        *registered* views (name still bound to this exact ``View``):
        inline views from :meth:`execute` share the ``<inline>`` name
        and build throwaway QPTs per call, so caching them could alias
        across definitions.

        A view with more documents than a tier holds sweeps it in the
        same order every query; every put carries ``scan_started`` so
        the sweep keeps what it already used instead of flooding the
        tier, and a skeleton the tier turns away is used for this query,
        then dropped.  Without a ``scan_started`` the sweep starts here.
        """
        if scan_started is None:
            scan_started = time.perf_counter()
        cache = self.cache
        cacheable = cache is not None and self._views.get(view.name) is view
        store = self.snapshot_store
        pdts: dict[str, PDTResult] = {}
        cache_hits: dict[str, str] = {}
        doc_coordinates: list[tuple[str, int, str]] = []
        distinct = tuple(dict.fromkeys(normalized))
        for doc_name in sorted(view.qpts):
            qpt = view.qpts[doc_name]
            qpt_hash = qpt.content_hash
            indexed = self.database.get(doc_name)
            # The generation captured here keys every tier this query
            # touches — including the evaluated tier — so one query's
            # cache traffic is generation-coherent per document even if a
            # reload lands mid-flight.
            doc_coordinates.append((doc_name, indexed.generation, qpt_hash))
            coordinates = (view.name, doc_name, indexed.generation, qpt_hash)
            skeleton: Optional[PDTSkeleton] = None
            lists: Optional[PreparedLists] = None
            if cacheable:
                skeleton_key = cache.skeleton_key(*coordinates)
                skeleton = cache.skeletons.get(skeleton_key)
                lists_key = cache.prepared_key(
                    doc_name, indexed.generation, qpt_hash, normalized
                )
                if skeleton is None:
                    lists = cache.prepared.get(lists_key)

            # Structural half: reuse the skeleton, restore it from the
            # persistent store, or build it (from cached probe results
            # when the prepared tier has them).
            start = time.perf_counter()
            if skeleton is not None:
                hit = "skeleton"
            else:
                if cacheable and store is not None and lists is None:
                    # Only genuine first contact goes to disk: with the
                    # prepared tier warm, rebuilding from the cached
                    # lists (no probes) is strictly cheaper than a file
                    # read + deserialize + finalization round trip.
                    skeleton = self._restore(
                        store, indexed.fingerprint, qpt_hash, doc_name
                    )
                    if skeleton is not None:
                        hit = "snapshot"
                if skeleton is None:
                    if lists is None:
                        hit = "miss"
                        path_lists = prepare_path_lists(
                            qpt, indexed.path_index
                        )
                        probed = frozenset(path_lists)
                    else:
                        hit = "prepared"
                        path_lists = lists.path_lists
                        probed = lists.probed
                    skeleton = build_skeleton(
                        qpt,
                        indexed.path_index,
                        path_lists=path_lists,
                        probed=probed,
                    )
                    if cacheable:
                        if store is not None:
                            # A failed snapshot write costs the *next*
                            # process a rebuild; it must never fail the
                            # query that already has its skeleton.
                            try:
                                store.save(
                                    indexed.fingerprint, qpt_hash, skeleton
                                )
                            except (OSError, InjectedFaultError):
                                pass
                if cacheable and cache.skeletons.admits(
                    skeleton_key, scan_started
                ):
                    cache.skeletons.put(skeleton_key, skeleton, scan_started)
            if timings is not None:
                timings.pdt_skeleton += time.perf_counter() - start

            # Keyword half: the tf columns the PDT tier holds; the rest
            # are swept from posting lists — the prepared tier's when the
            # exact keyword set was probed before, else probed now.
            start = time.perf_counter()
            tf_arrays: dict[str, Optional[list[int]]] = {}
            if cacheable:
                for keyword in distinct:
                    key = cache.pdt_key(*coordinates, keyword)
                    column = cache.pdts.get(key)
                    if column is not None:
                        tf_arrays[keyword] = column.values
            missing = tuple(k for k in distinct if k not in tf_arrays)
            if hit == "miss":
                inv_lists = prepare_inv_lists(
                    indexed.inverted_index, normalized
                )
                if cacheable:
                    # The skeleton-hit path never probes path lists, so
                    # only the miss path can fill the prepared tier.
                    cache.prepared.put(
                        lists_key,
                        PreparedLists(
                            path_lists=path_lists,
                            inv_lists=inv_lists,
                            probed=probed,
                        ),
                        scan_started,
                    )
            if missing:
                if hit == "skeleton":
                    lists = cache.prepared.get(lists_key)
                if lists is not None:
                    inv_lists = lists.inv_lists
                elif hit != "miss":
                    inv_lists = prepare_inv_lists(
                        indexed.inverted_index, missing
                    )
                swept = annotate_skeleton(skeleton, inv_lists, missing)
                for keyword, values in swept.tf_arrays.items():
                    tf_arrays[keyword] = values
                    if cacheable:
                        cache.pdts.put(
                            cache.pdt_key(*coordinates, keyword),
                            TfColumn.of(values),
                            scan_started,
                        )
            elif hit == "skeleton":
                hit = "pdt"
            pdts[doc_name] = PDTResult(
                skeleton,
                normalized,
                {keyword: tf_arrays[keyword] for keyword in distinct},
            )
            if timings is not None:
                timings.pdt_postings += time.perf_counter() - start
            cache_hits[doc_name] = hit
        return pdts, cache_hits, tuple(doc_coordinates)

    def _evaluate_view_results(
        self,
        view: View,
        pdts: dict[str, PDTResult],
        doc_coordinates: tuple[tuple[str, int, str], ...],
        timings: Optional[PhaseTimings] = None,
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
        record positions against *this* query's ``pdts``, not through
        anything stored in the nodes or the plan.
        Two threads missing at once each evaluate and put; either entry
        serves, the later put stays.
        """
        start = time.perf_counter()
        cache = self.cache
        cacheable = cache is not None and self._views.get(view.name) is view
        key = None
        if cacheable:
            key = cache.evaluated_key(view.name, view.token, doc_coordinates)
            cached = cache.evaluated.get(key)
            if cached is not None:
                if timings is not None:
                    timings.evaluator += time.perf_counter() - start
                return cached, True
        evaluator = Evaluator(EvalContext(resolver=make_pdt_resolver(pdts)))
        items = evaluator.evaluate(view.expr)
        view_results = [item for item in items if isinstance(item, XMLNode)]
        evaluated = time.perf_counter()
        plan = StatisticsPlan(view_results)
        if timings is not None:
            timings.evaluator += evaluated - start
            timings.post_processing += time.perf_counter() - evaluated
        if cacheable:
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
        self._reject_stale(view)
        pdts, _, doc_coordinates = self._build_pdts(view, ())
        plan, _ = self._evaluate_view_results(view, pdts, doc_coordinates)
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
