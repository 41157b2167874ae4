"""What a search produces — the types the engine, the coordinator, both
baselines and serving share: :class:`View`, :class:`PhaseTimings`,
:class:`SearchResult`, :class:`SearchOutcome`, and scoring's two halves
(:class:`ViewStatistics`, then :func:`rank_statistics`, whose winners
:func:`wrap_results` wraps)."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from repro.core.materialize import materialize_result
from repro.core.qpt import QPT
from repro.core.scoring import ColumnSums, ScoredResult
from repro.core.topk import MergeStats
from repro.errors import StorageError
from repro.storage.database import XMLDatabase
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.serializer import serialize
from repro.xquery.ast import Expr

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
    #: ``(doc_name, qpt, qpt content hash)`` per document, sorted by
    #: name — the order every query sweeps them in, taken once here.
    documents: tuple[tuple[str, QPT, str], ...] = field(
        init=False, repr=False, compare=False
    )
    #: Document name -> its position in ``documents``.
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.documents = tuple(
            (name, qpt, qpt.content_hash)
            for name, qpt in sorted(self.qpts.items())
        )
        self.positions = {name: at for at, name in enumerate(self.document_names)}

    @property
    def document_names(self) -> list[str]:
        return [name for name, _, _ in self.documents]


@dataclass
class PhaseTimings:
    """Wall-clock seconds per pipeline phase (Figure 14's modules).

    ``pdt`` is further attributed to its two halves so benchmarks can
    tell structure from data: ``pdt_skeleton`` is the keyword-independent
    structural work (path-index probes + the merge pass — zero on a
    skeleton-tier hit) and ``pdt_postings`` the per-query keyword work
    (the PDT tier read, inverted-list probes + the tf annotation pass).
    The halves sum to at most ``pdt``; the remainder is the keys and the
    skeleton tier read.
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
    """Everything a search produced (results + diagnostics) — what
    serving sends.  It keeps no PDT (scoring has already read every
    one) and no cache counters: the engine's cumulative counters are
    :meth:`KeywordSearchEngine.stats`, never a query's.

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
    timings: PhaseTimings
    cache_hits: dict[str, str] = field(default_factory=dict)
    """Per-document cache outcome: ``"pdt"`` (the skeleton tier and the
    PDT tier, for every keyword's tf column), else where the skeleton
    came from: ``"skeleton"``, ``"snapshot"`` (restored from the
    persistent store — same zero-probe depth as a skeleton hit) or
    ``"miss"`` (built from path-index probes)."""

    evaluated_hit: bool = False
    """Whether the view's result nodes came from the evaluated tier
    (keyword-independent evaluation skipped entirely)."""

    shards: tuple[int, ...] = ()
    merge_stats: Optional[MergeStats] = None
    shard_timings: dict[int, PhaseTimings] = field(default_factory=dict)
    degraded: bool = False
    missing_shards: tuple[int, ...] = ()
    failures: tuple["ShardFailure", ...] = ()


@dataclass
class ViewStatistics:
    """Phase-1 output of the scatter-gather scoring protocol.

    Everything one engine contributes *before* scores can exist: the
    statistics of its view results as columns
    (:class:`~repro.core.scoring.ColumnSums`: one tf column per keyword
    and the byte-length column), the view size, and the per-keyword
    containing counts, plus where each document's PDT came from
    (``cache_hits``); the PDTs the sums read are not kept.
    idf is a global statistic over the whole view
    (Section 2.2) — under a sharded corpus it exists only after every
    shard's ``view_size`` and ``containing`` integers are summed, so
    phase 1 stops at the integers and phase 2
    (:func:`rank_statistics`) runs once the global idf is known.  The
    counts are exact integer sums, which is why sharded scores come out
    bit-identical to the single-engine path.  ``timings`` is the ledger
    the phase was charged to.

    The rows fall into parts, one per top-level item of a sequence view
    (``sums.starts``), and ``offsets`` holds the view index of each
    part's first row: empty — the identity, a lone engine's view is the
    whole view — until the coordinator's gather sets them for a shard,
    whose parts are fragments of the whole view.  No
    :class:`ScoredResult` exists until :func:`rank_statistics` builds
    one per winner; ``scored`` is the compatibility read, every row
    materialized (unscored) at its view index on first use.
    """

    sums: ColumnSums
    cache_hits: dict[str, str]
    evaluated_hit: bool
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    offsets: tuple[int, ...] = ()

    @property
    def view_size(self) -> int:
        return len(self.sums.lengths)

    @property
    def containing(self) -> dict[str, int]:
        return self.sums.containing

    @property
    def part_sizes(self) -> list[int]:
        """The result count of each part, in row order."""
        starts = self.sums.starts
        ends = (*starts[1:], self.view_size)
        return [end - start for start, end in zip(starts, ends)]

    def offset(self, row: int) -> int:
        """What ``row`` adds to become its view index."""
        if not self.offsets:
            return 0
        starts = self.sums.starts
        part = bisect_right(starts, row) - 1
        return self.offsets[part] - starts[part]

    @cached_property
    def scored(self) -> list[ScoredResult]:
        result, offset = self.sums.result, self.offset
        return [result(row, offset=offset(row)) for row in range(self.view_size)]


def rank_statistics(
    stats: ViewStatistics,
    idf: Mapping[str, float],
    normalized: tuple[str, ...],
    conjunctive: bool,
    top_k: Optional[int],
) -> tuple[list[ScoredResult], int]:
    """Phase 2 of the protocol: the view-wide idf → keyword semantics →
    scores → top k over one engine's statistics (the lone engine's
    whole view, or the fragments one shard holds, in view order).
    Returns the ranked survivors and how many results matched.

    Every step is column arithmetic (:class:`~repro.core.scoring.
    ColumnSums`): the mask picks the matching rows, only those are
    scored, and the selection is one stable reverse sort of their
    positions by score, cut at k, so equal scores keep ascending view
    index (a shard's offsets rise with its rows) — the tie-break
    ``TopKSelector`` and the coordinator's merge share.  A
    :class:`~repro.core.scoring.ScoredResult` is built for the winners
    only, at view index ``offsets[part] + (row - starts[part])``.
    ``top_k <= 0`` scores nothing and returns no result, but still
    counts the matches.
    """
    sums = stats.sums
    rows = sums.matching(conjunctive)
    if top_k is not None and top_k <= 0:
        return [], len(rows)
    scores = sums.scores(rows, idf, normalized)
    # One C-level sort: below ≈ 600 candidates (every benchmark view)
    # faster than heapq.nlargest's per-candidate Python loop.
    positions = range(len(scores))
    winners = sorted(positions, key=scores.__getitem__, reverse=True)[:top_k]
    ranked = []
    for position in winners:
        row = rows[position]
        ranked.append(sums.result(row, scores[position], stats.offset(row)))
    return ranked, len(rows)


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

