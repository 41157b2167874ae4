"""TF-IDF scoring over (pruned or materialized) view results.

A result's statistics — per-keyword subtree tf and serialized byte length
— split along the keyword axis, and this module is built around the split:

* :class:`StatisticsPlan` is the keyword-*independent* half: one walk
  over the result trees lays the results out as flat columns — the
  serialized length of each result's constructed part, per document the
  slots and record positions its pruned leaves read and the rows they
  belong to, and the token counts of constructed text.  The
  engine keeps one plan per evaluated-tier entry, so a skeleton-warm
  query never visits a result node; baselines and inline views build
  one per call.
* :meth:`StatisticsPlan.sum` is the keyword-*dependent* half: column
  arithmetic over the plan that reads only what a query's keywords
  decide — tf from the per-document arrays the posting sweep produced,
  byte lengths from the skeletons' columns, both handed over as one
  :class:`QueryColumns` — into a :class:`ColumnSums`, which then
  masks, scores and selects by column too.  A :class:`ScoredResult` is
  built only for a row somebody asks for: the engine asks for its top
  k, the compatibility read (:meth:`StatisticsPlan.collect`) for every
  row.  Each column is memoized on the plan with the inputs it was
  summed from.

The same plan and the same sum serve both pipelines, which is how
Theorem 4.1's score equality is realized structurally:

* Baseline results reference fully materialized base elements, so term
  frequencies come from tokenizing the text and byte lengths from the
  canonical serialization;
* Efficient (and GTP) results reference pruned PDT elements that stand
  for the identical quantities (subtree tf from the inverted index,
  subtree byte length from the path index), so the walk stops at pruned
  nodes.  PDT trees keep both *outside* the tree — each content node
  carries a ``slot`` index into its document's flat tf arrays and a
  ``position`` into its skeleton's ``byte_lengths`` column — so the sum
  resolves them through the :class:`QueryColumns` its caller supplies
  (the engine's tier reads as they came back, or
  :meth:`QueryColumns.of` a ``tf_source`` mapping of document names to
  :class:`repro.core.pdt.PDTResult`).

Definitions (paper Section 2.2): ``tf(e, k)`` is the number of occurrences
of k in e and its descendants; ``idf(k) = |V(D)| / |{e in V(D):
contains(e, k)}|``; ``score(e, Q) = sum_k tf(e, k) * idf(k)``, optionally
normalized by the element's byte length (Section 4.2.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.core.cache import TfColumn
from repro.core.pdt import PDTResult
from repro.core.skeleton import PDTSkeleton
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.serializer import escape_text
from repro.xmlmodel.tokenizer import token_frequencies


@dataclass
class ResultStatistics:
    """Per-result aggregates used by scoring and by the benchmarks."""

    term_frequencies: dict[str, int]
    byte_length: int


@dataclass
class ScoredResult:
    """One view result with its statistics and TF-IDF score."""

    index: int  # position in the view result sequence (document order)
    node: XMLNode
    statistics: ResultStatistics
    score: float = 0.0

    def tf(self, keyword: str) -> int:
        return self.statistics.term_frequencies.get(keyword, 0)


#: Keyword columns a plan's :meth:`StatisticsPlan.sum` memo holds
#: before it starts over (the byte-length column has its own slot).
MEMO_ENTRIES = 256


class SkeletonNeeded(LookupError):
    """:meth:`StatisticsPlan.sum` must pick some documents' byte lengths
    (their coordinates moved) and its caller supplied no skeleton for
    them: ``positions`` holds where each is in the query's columns."""

    def __init__(self, names: Sequence[str], positions: Sequence[int]):
        super().__init__(
            f"the byte lengths of {', '.join(map(repr, names))} are not "
            "current and no skeleton was supplied"
        )
        self.positions = tuple(positions)


def _picker(indexes: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``itemgetter(*indexes)``, but a tuple even for one index."""
    if len(indexes) == 1:
        (index,) = indexes
        return lambda values: (values[index],)
    return itemgetter(*indexes)


class QueryColumns(NamedTuple):
    """One query's inputs to :meth:`StatisticsPlan.sum`, as the engine's
    two tier reads return them: one skeleton per document (``None``
    where no reader has needed it yet), and the
    :class:`~repro.core.cache.TfColumn` cells document-major, one per
    keyword of ``keywords`` (distinct, in query order).  ``positions``
    maps a document name to its position in all three sequences, and
    ``coordinates`` holds each document's version: two equal
    coordinates stand for equal ``byte_lengths`` columns (the engine's
    ``(doc, generation, qpt_hash)``; :meth:`of` uses the column itself)."""

    skeletons: Sequence[Optional[PDTSkeleton]]
    tf_columns: Sequence[TfColumn]
    keywords: tuple[str, ...]
    positions: Mapping[str, int]
    coordinates: Sequence[object]

    @classmethod
    def of(cls, pdts: Optional[Mapping], keywords: Sequence[str] = ()) -> "QueryColumns":
        """``pdts`` (document name -> :class:`~repro.core.pdt.PDTResult`)
        as columns of ``keywords``; a keyword a PDT lacks reads as zeros."""
        pdts, keywords = pdts or {}, tuple(dict.fromkeys(keywords))
        cells = [TfColumn.of(p.tf_arrays.get(k)) for p in pdts.values() for k in keywords]
        positions = {name: at for at, name in enumerate(pdts)}
        skeletons = [p.skeleton for p in pdts.values()]
        lengths = [skeleton.byte_lengths for skeleton in skeletons]
        return cls(skeletons, cells, keywords, positions, lengths)

    def get(self, doc_name: str) -> Optional[PDTResult]:
        """The document's PDT, built as the evaluator's resolver opens it
        (an evaluated-tier miss); ``None`` for a name not here."""
        at = self.positions.get(doc_name)
        if at is None:
            return None
        cells = self.tf_columns[at * len(self.keywords):]
        tf_arrays = {k: cell.values for k, cell in zip(self.keywords, cells)}
        return PDTResult(self.skeletons[at], self.keywords, tf_arrays)


class StatisticsPlan:
    """The keyword-independent half of the statistics pass, kept.

    Built by the module's one tree walk: a node with a *pruned*
    annotation is a leaf of the plan — it contributes its annotated
    statistics and is not descended into (its PDT-resident children are
    part of the annotated subtree already) — and every other node
    contributes its tag's serialized length, its escaped text and that
    text's token counts.  The walk lays the results (rows, in view
    order) out as columns:

    * the serialized length of each row's constructed part, a constant;
    * per document, a picker over the slots its pruned leaves read, one
      over their record positions and the row of each leaf — only the
      rows that touch the document: a column as wide as the view per
      document would make a many-document view quadratic.  A plan holds
      no length of a pruned leaf: :meth:`sum` picks them from the
      current ``byte_lengths`` column of this query's skeleton.  A
      patchable edit publishes a patched copy of that column
      (:func:`repro.core.skeleton.patch_skeleton_byte_lengths`) and keeps
      every record's position, so a plan stays valid across it whichever
      skeleton — migrated, restored or rebuilt — serves the next query;
    * a sparse ``(row, mappings)`` list of the token counts of
      constructed text.

    Nothing in a plan depends on a query.  Its mutable parts are two
    memos of at most :data:`MEMO_ENTRIES` entries each — :meth:`sum`'s
    keyword columns, and the rankings :meth:`ColumnSums.rank` selected
    over them — so an evaluated-tier entry's plan keeps its view's
    columns and rankings while it lives, and the byte-length column with
    each document's coordinate and the lengths picked at it.  Each step
    is one dict operation or one attribute write of a tuple, atomic
    under the GIL, and a published column is never written: a plan is
    shared across threads like the result nodes themselves.

    ``part_sizes`` splits the rows into consecutive parts — the engine
    passes the result count of each top-level item of a sequence view —
    and ``starts`` keeps the row each part begins at; without it the
    rows are one part.
    """

    __slots__ = (
        "nodes", "starts", "_names", "_docs", "_counts", "_memo", "_ranks",
        "_known_lengths", "_at",
    )

    def __init__(
        self, view_results: Iterable[XMLNode], part_sizes: Sequence[int] = ()
    ):
        #: The result nodes, in view order (the rows of every column).
        self.nodes: tuple[XMLNode, ...] = tuple(view_results)
        self.starts: tuple[int, ...] = (0, *accumulate(part_sizes[:-1]))
        lengths: list[int] = []
        leaves: dict[str, tuple[list[int], list[int], list[int]]] = {}
        counts: list[tuple[int, tuple]] = []
        for row, root in enumerate(self.nodes):
            length = 0
            found = []
            stack = [root]
            while stack:
                node = stack.pop()
                anno = node.anno
                if anno is not None and anno.pruned:
                    slots, positions, rows = leaves.setdefault(
                        anno.doc, ([], [], [])
                    )
                    slots.append(anno.slot)
                    positions.append(anno.position)
                    rows.append(row)
                    continue
                value = node.value
                children = node.children
                if value is None and not children:
                    length += len(node.tag) + 3  # <tag/>
                    continue
                length += 2 * len(node.tag) + 5  # <tag></tag>
                if value is not None:
                    length += len(escape_text(value))
                    found.append(token_frequencies(value))
                stack.extend(reversed(children))
            lengths.append(length)
            if found:
                counts.append((row, tuple(found)))
        self._names = tuple(leaves)
        self._docs = tuple(
            (_picker(slots), _picker(positions), tuple(rows))
            for slots, positions, rows in leaves.values()
        )
        self._counts = tuple(counts)
        self._memo: dict[str, tuple] = {}
        #: :meth:`ColumnSums.rank`'s memo, shared by every sum of the plan.
        self._ranks: dict[tuple, tuple] = {}
        #: ``(coordinates, picks, byte-length column)``: per plan
        #: document, in plan order, the coordinate its leaves' lengths
        #: were last picked at (``None``: never) and those lengths, and
        #: the column they sum to with the constructed parts' lengths.
        self._known_lengths: tuple[tuple, tuple, list[int]] = (
            (None,) * len(self._names),
            tuple((0,) * len(rows) for _, _, rows in self._docs),
            lengths,
        )
        #: ``(positions map, each of _names' position in it)`` for the
        #: last map :meth:`sum` read — a view's is one object.
        self._at: Optional[tuple[Mapping[str, int], tuple[int, ...]]] = None

    def sum(self, columns: QueryColumns) -> "ColumnSums":
        """The keyword-dependent half: one tf column per keyword of
        ``columns``, the byte-length column and ``|{e: contains(e, k)}|``
        per keyword.

        The plan reads its documents' cells by position (found once per
        positions map): each document's byte lengths are picked at its
        leaves' record positions and its tf arrays (a keyword without
        postings has none: implicit zeros) at their slots, one C call
        each, and only the nonzero tfs are added, each to its own row.
        The counts are integers, so shard-summable.

        Memoized per column, each kept with what it was computed from
        and reused while this call's ``==`` it, identity first.  A
        keyword's column is kept with its per-document tf arrays, so a
        repeated keyword costs one comparison per document (sound
        because a published array is never written).  The byte-length
        column has its own slot, which keyword churn never clears, kept
        with the plan documents' ``coordinates``: while they are equal
        the skeletons are not read at all — ``None`` is fine there — and
        when some moved, only those documents re-pick
        (:meth:`_pick_lengths`).
        """
        at = self._positions(columns.positions)
        coordinates = tuple([columns.coordinates[position] for position in at])
        known = self._known_lengths
        if known[0] != coordinates:
            known = self._pick_lengths(known, coordinates, columns.skeletons, at)
            self._known_lengths = known
        lengths = known[2]
        cells, width = columns.tf_columns, len(columns.keywords)
        rows = [position * width for position in at]
        size, memo = len(self.nodes), self._memo
        tfs: dict[str, list[int]] = {}
        containing: dict[str, int] = {}
        for offset, keyword in enumerate(columns.keywords):
            inputs = tuple([cells[row + offset].values for row in rows])
            entry = memo.get(keyword)
            if entry is None or entry[0] != inputs:
                column = self._tf_column(keyword, inputs)
                entry = memo[keyword] = (inputs, column, size - column.count(0))
                if len(memo) > MEMO_ENTRIES:
                    # Past the bound the memo starts over (each insert
                    # checks it, so it holds whenever no sum is in flight).
                    memo.clear()
            _, tfs[keyword], containing[keyword] = entry
        return ColumnSums(self.nodes, self.starts, tfs, lengths, containing, self._ranks)

    def _positions(self, positions: Mapping[str, int]) -> tuple[int, ...]:
        """Where each document the plan's leaves read is, in plan order."""
        known = self._at
        if known is not None and known[0] is positions:
            return known[1]
        try:
            at = tuple([positions[doc] for doc in self._names])
        except KeyError as missing:
            # A pruned node's tfs and byte length live *outside* the
            # tree; scoring it without its PDT would silently yield
            # zeros, so fail loudly instead.
            raise ValueError(
                "cannot score a shared-skeleton PDT node: no tf_source "
                f"entry for document {missing.args[0]!r} (its term "
                "frequencies and byte length are read from the "
                "document's PDT, not stored on the tree)"
            ) from None
        self._at = (positions, at)
        return at

    def _pick_lengths(
        self,
        known: tuple[tuple, tuple, list[int]],
        coordinates: tuple,
        skeletons: Sequence[Optional[PDTSkeleton]],
        at: tuple[int, ...],
    ) -> tuple[tuple, tuple, list[int]]:
        """``known`` brought to ``coordinates``: each plan document whose
        coordinate moved picks its lengths from its skeleton at its
        leaves' record positions, and a new column takes the difference
        on those documents' rows.  A moved document without a skeleton
        raises :class:`SkeletonNeeded` naming every such one, before
        anything is kept."""
        moved = [d for d, now in enumerate(coordinates) if known[0][d] != now]
        missing = [d for d in moved if skeletons[at[d]] is None]
        if missing:
            raise SkeletonNeeded(
                [self._names[d] for d in missing], [at[d] for d in missing]
            )
        picks, lengths = list(known[1]), list(known[2])
        for d in moved:
            _, pick_positions, rows = self._docs[d]
            picked = pick_positions(skeletons[at[d]].byte_lengths)
            for row, old, new in zip(rows, picks[d], picked):
                lengths[row] += new - old
            picks[d] = picked
        return coordinates, tuple(picks), lengths

    def _tf_column(self, keyword: str, inputs: tuple) -> list[int]:
        """``keyword``'s column from each document's tf array (or None)."""
        column = [0] * len(self.nodes)
        for (pick_slots, _, rows), array in zip(self._docs, inputs):
            if array is None:
                continue
            values = pick_slots(array)
            for row, tf in zip(compress(rows, values), compress(values, values)):
                column[row] += tf
        for row, mappings in self._counts:
            for frequencies in mappings:
                column[row] += frequencies.get(keyword, 0)
        return column

    def collect(
        self,
        keywords: Sequence[str],
        tf_source: Optional[Mapping[str, object]] = None,
    ) -> tuple[list[ScoredResult], dict[str, int]]:
        """Every row materialized (no scores, ``score`` stays 0.0) and
        the containing counts: :meth:`sum`'s columns as objects, for the
        baselines' reference pipeline (:func:`score_results`) and for
        reading one result's statistics."""
        sums = self.sum(QueryColumns.of(tf_source, keywords))
        return list(map(sums.result, range(len(self.nodes)))), sums.containing


@dataclass(slots=True)
class ColumnSums:
    """A plan's statistics for one keyword set, as columns over its rows.

    ``starts`` is the plan's: the row each part begins at.  ``tfs`` maps
    each distinct keyword to its tf column, ``lengths`` is the
    byte-length column and ``containing`` the per-keyword count of rows
    with a nonzero tf.  The columns are shared read-only, like the
    nodes: the plan's memo hands the same lists to every sum over the
    same inputs, and its ranking memo (``ranks``, the plan's, shared by
    all its sums) keeps them as what each ranking was selected from, so
    nothing may write to them.  :meth:`matching` and :meth:`scores` are
    ``filter_matching`` and ``apply_scores`` by column — the same float
    operations in the same order, so the scores are bit-identical —
    :meth:`rank` selects over them, and :meth:`result` is the one place
    a row becomes a :class:`ScoredResult`.
    """

    nodes: Sequence[XMLNode]
    starts: tuple[int, ...]
    tfs: dict[str, list[int]]
    lengths: list[int]
    containing: dict[str, int]
    ranks: dict[tuple, tuple] = field(repr=False, compare=False)

    def matching(self, conjunctive: bool = True) -> list[int]:
        """The rows satisfying the keyword semantics, ascending: every
        keyword's tf nonzero (conjunctive; all rows for no keywords) or
        any keyword's (disjunctive; no rows for no keywords)."""
        columns = self.tfs.values()
        if not conjunctive:
            return list(compress(range(len(self.lengths)), map(any, zip(*columns))))
        rows: Iterable[int] = range(len(self.lengths))
        for column in columns:
            rows = list(compress(rows, map(column.__getitem__, rows)))
        return list(rows)

    def scores(
        self, rows: Sequence[int], idf: Mapping[str, float], keywords: Sequence[str]
    ) -> list:
        """Normalized TF-IDF scores of ``rows``: :func:`apply_scores`'s
        arithmetic — ``0 + tf·idf`` left to right over ``keywords``
        (duplicates included), then divided by the byte length where that
        is positive — reading the columns instead of objects."""
        weights = [(self.tfs[keyword], idf[keyword]) for keyword in keywords]
        lengths = self.lengths
        scores = []
        for row in rows:
            raw = 0
            for column, weight in weights:
                raw += column[row] * weight
            length = lengths[row]
            scores.append(raw / length if length > 0 else raw)
        return scores

    def rank(
        self,
        idf: Mapping[str, float],
        keywords: Sequence[str],
        conjunctive: bool,
        top_k: Optional[int],
    ) -> tuple[tuple[int, ...], tuple, int]:
        """The top ``top_k`` matching rows and their scores, best first,
        and how many rows matched: :meth:`matching`, :meth:`scores` over
        those rows, then one stable reverse sort of them by score, cut at
        ``top_k`` — equal scores keep ascending row order.

        Memoized in ``ranks`` under ``(keywords, conjunctive, top_k)``,
        the keywords as asked: their order and duplicates fix the float
        sums.  An entry is kept with the byte-length column, the tf
        columns and the idf of ``keywords`` it was ranked from, and
        reused while this call's ``==`` them, identity first — the sum
        memo's rule: an edit publishes new columns, and a coordinator
        can move the global idf under a shard's unchanged ones; either
        re-ranks.  Past :data:`MEMO_ENTRIES` entries the memo starts over.
        """
        keywords = tuple(keywords)
        inputs = (
            self.lengths,
            tuple(self.tfs.items()),
            tuple([idf[keyword] for keyword in keywords]),
        )
        key, ranks = (keywords, conjunctive, top_k), self.ranks
        entry = ranks.get(key)
        if entry is not None and entry[0] == inputs:
            return entry[1]
        rows = self.matching(conjunctive)
        scores = self.scores(rows, idf, keywords)
        # One C-level sort: below ≈ 600 candidates (every benchmark view)
        # faster than heapq.nlargest's per-candidate Python loop, and a
        # repeated keyword set does not run it at all.
        positions = range(len(scores))
        winners = sorted(positions, key=scores.__getitem__, reverse=True)[:top_k]
        ranking = (
            tuple([rows[position] for position in winners]),
            tuple([scores[position] for position in winners]),
            len(rows),
        )
        ranks[key] = (inputs, ranking)
        if len(ranks) > MEMO_ENTRIES:
            ranks.clear()
        return ranking

    def result(self, row: int, score: float = 0.0, offset: int = 0) -> ScoredResult:
        """Row ``row`` as a :class:`ScoredResult` at view index
        ``offset + row``."""
        return ScoredResult(
            offset + row,
            self.nodes[row],
            ResultStatistics(
                {keyword: column[row] for keyword, column in self.tfs.items()},
                self.lengths[row],
            ),
            score,
        )


@dataclass
class ScoringOutcome:
    """Scored results plus the collection-level statistics (idf values)."""

    results: list[ScoredResult]  # keyword-satisfying results, document order
    view_size: int  # |V(D)| — all view results, pre-filter
    idf: dict[str, float]


def score_results(
    view_results: Iterable[XMLNode],
    keywords: Sequence[str],
    conjunctive: bool = True,
    normalize: bool = True,
    tf_source: Optional[Mapping[str, object]] = None,
) -> ScoringOutcome:
    """Score every view result and apply the keyword semantics.

    ``idf`` is computed over the *entire* view result sequence — not just
    the keyword-satisfying results — exactly as in Section 2.2 where
    ``V(D)`` is the full view.  ``tf_source`` resolves the tfs and byte
    lengths of shared-skeleton PDT nodes (see :meth:`StatisticsPlan.collect`).

    The object-at-a-time reference pipeline the baselines rank through
    (:meth:`StatisticsPlan.collect` → :func:`idf_from_counts` →
    :func:`apply_scores` → :func:`filter_matching`).  The engine and
    every shard rank by column (:class:`ColumnSums`) with the *identical*
    float operations in the identical order — the foundation of the
    bit-identical-ranking guarantee.
    """
    scored, containing = StatisticsPlan(view_results).collect(
        keywords, tf_source
    )
    view_size = len(scored)
    idf = idf_from_counts(view_size, containing)
    apply_scores(scored, idf, keywords, normalize)
    kept = filter_matching(scored, keywords, conjunctive)
    return ScoringOutcome(results=kept, view_size=view_size, idf=idf)


# -- scatter-gather primitives --------------------------------------------------
#
# The TF-IDF pipeline splits into a *statistics* phase (per-result tf
# vectors and byte lengths — embarrassingly parallel across corpus
# shards) and a *scoring* phase (idf is a global statistic over the
# whole view: |V(D)| and the containing counts must be summed across
# shards before any score exists).  The sharded coordinator runs the
# phases on either side of its gather barrier; the single engine runs
# them back to back.  Integer statistics sum exactly, so the idf floats
# — and therefore every score — come out bit-identical either way.


def idf_from_counts(
    view_size: int, containing: Mapping[str, int]
) -> dict[str, float]:
    """Phase 2 entry: idf from (possibly shard-summed) integer counts."""
    return {
        keyword: view_size / count if count else 0.0
        for keyword, count in containing.items()
    }


def apply_scores(
    scored: Iterable[ScoredResult],
    idf: Mapping[str, float],
    keywords: Sequence[str],
    normalize: bool = True,
) -> None:
    """Phase 2: in-place TF-IDF scores.

    ``0 + tf·idf`` left to right over ``keywords``, in plain float
    additions: the order and the arithmetic both pipelines and every
    shard must share for scores to be bit-identical.
    """
    weights = [(keyword, idf[keyword]) for keyword in keywords]
    for result in scored:
        statistics = result.statistics
        tfs = statistics.term_frequencies
        raw = 0
        for keyword, weight in weights:
            raw += tfs.get(keyword, 0) * weight
        if normalize and statistics.byte_length > 0:
            raw /= statistics.byte_length
        result.score = raw


def filter_matching(
    scored: Iterable[ScoredResult],
    keywords: Sequence[str],
    conjunctive: bool = True,
) -> list[ScoredResult]:
    """The keyword-satisfying results, in input order."""
    satisfied = all if conjunctive else any
    return [
        result
        for result in scored
        if satisfied(map(result.statistics.term_frequencies.get, keywords))
    ]


def select_top_k(outcome: ScoringOutcome, k: Optional[int]) -> list[ScoredResult]:
    """The k highest-scoring results; ties broken by document order.

    ``k=None`` returns every keyword-satisfying result, ranked.

    This full-sort form is the *reference* implementation the streaming
    selector (:mod:`repro.core.topk`) and the engine's column ranking
    (:func:`repro.core.outcome.rank_statistics`) are property-tested
    against.
    """
    ranked = sorted(outcome.results, key=lambda r: (-r.score, r.index))
    if k is None:
        return ranked
    return ranked[: max(k, 0)]
