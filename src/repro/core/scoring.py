"""TF-IDF scoring over (pruned or materialized) view results.

A result's statistics — per-keyword subtree tf and serialized byte length
— split along the keyword axis, and this module is built around the split:

* :class:`StatisticsPlan` is the keyword-*independent* half: one walk
  over the result trees records, per result, the serialized length of
  its constructed part, the annotations of its pruned leaves and the
  token counts of its constructed text.  The engine keeps one plan per
  evaluated-tier entry, so a skeleton-warm query never visits a result
  node; baselines and inline views build one per call.
* :meth:`StatisticsPlan.collect` is the keyword-*dependent* half: one
  flat sum over the plan that reads only what a query's keywords decide
  — tf from the per-document arrays the posting sweep produced, byte
  lengths from the live leaf annotations.

The same plan and the same sum serve both pipelines, which is how
Theorem 4.1's score equality is realized structurally:

* Baseline results reference fully materialized base elements, so term
  frequencies come from tokenizing the text and byte lengths from the
  canonical serialization;
* Efficient results reference pruned PDT elements whose annotations carry
  the identical quantities (subtree tf from the inverted index, subtree
  byte length from the path index), so the walk stops at pruned nodes.
  Shared skeleton trees keep the per-query tfs *outside* the tree — each
  content node carries a ``slot`` index into the flat tf arrays of its
  document's :class:`repro.core.pdt.PDTResult` — so the sum resolves tfs
  through the ``tf_source`` mapping (document name -> PDTResult) supplied
  by the engine; nodes annotated the classic way (per-node
  ``term_frequencies``, e.g. by the GTP baseline) keep working without
  one.

Definitions (paper Section 2.2): ``tf(e, k)`` is the number of occurrences
of k in e and its descendants; ``idf(k) = |V(D)| / |{e in V(D):
contains(e, k)}|``; ``score(e, Q) = sum_k tf(e, k) * idf(k)``, optionally
normalized by the element's byte length (Section 4.2.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

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


class StatisticsPlan:
    """The keyword-independent half of the statistics pass, kept.

    Built by the module's one tree walk: a node with a *pruned*
    annotation is a leaf of the plan — it contributes its annotated
    statistics and is not descended into (its PDT-resident children are
    part of the annotated subtree already) — and every other node
    contributes its tag's serialized length, its escaped text and that
    text's token counts.  Per result the plan holds

    * the serialized length of the constructed part, a constant;
    * the **live** :class:`~repro.xmlmodel.node.NodeAnnotations` of its
      pruned leaves, by reference: a patchable edit shifts
      ``anno.byte_length`` in place
      (:func:`repro.core.pdt.patch_skeleton_byte_lengths`), and the next
      :meth:`collect` reads the shifted value, so a plan stays valid for
      exactly as long as the result nodes it was built from;
    * its slot-annotated leaves' slots, grouped by document, and the
      keyword -> count mappings of everything else (classic
      ``term_frequencies`` leaves, constructed text).

    Nothing in a plan depends on a query, and :meth:`collect` never
    writes to one: a plan is shared across threads like the result nodes
    themselves.
    """

    __slots__ = ("nodes", "documents", "_entries")

    def __init__(self, view_results: Iterable[XMLNode]):
        #: The result nodes, in view order (``collect``'s indexes).
        self.nodes: tuple[XMLNode, ...] = tuple(view_results)
        documents: dict[str, None] = {}
        self._entries = [
            self._plan_result(node, documents) for node in self.nodes
        ]
        #: Documents the slot-annotated leaves belong to, in walk order.
        self.documents: tuple[str, ...] = tuple(documents)

    @staticmethod
    def _plan_result(root: XMLNode, documents: dict[str, None]) -> tuple:
        length = 0
        leaves = []
        slots: dict[str, list[int]] = {}
        counts = []
        stack = [root]
        while stack:
            node = stack.pop()
            anno = node.anno
            if anno is not None and anno.pruned:
                leaves.append(anno)
                if anno.slot is not None:
                    documents[anno.doc] = None
                    slots.setdefault(anno.doc, []).append(anno.slot)
                else:
                    counts.append(anno.term_frequencies)
                continue
            value = node.value
            children = node.children
            if value is None and not children:
                length += len(node.tag) + 3  # <tag/>
                continue
            length += 2 * len(node.tag) + 5  # <tag></tag>
            if value is not None:
                length += len(escape_text(value))
                counts.append(token_frequencies(value))
            stack.extend(reversed(children))
        return (
            length,
            tuple(leaves),
            tuple((doc, tuple(found)) for doc, found in slots.items()),
            tuple(counts),
        )

    def collect(
        self,
        keywords: Sequence[str],
        tf_source: Optional[Mapping[str, object]] = None,
    ) -> tuple[list[ScoredResult], dict[str, int]]:
        """The keyword-dependent half: per-result statistics (no scores,
        ``score`` stays 0.0) and ``|{e: contains(e, k)}|`` per keyword.

        ``tf_source`` maps document names to the query's
        :class:`~repro.core.pdt.PDTResult` objects; each document's tf
        arrays are resolved once (a keyword without postings has none:
        implicit zeros).  ``index`` is the position within this plan's
        results; a sharded caller rebases it to the global view position
        before ranking.  The counts are integers, so shard-summable.
        """
        unique = tuple(dict.fromkeys(keywords))
        arrays_of: dict[str, list] = {}
        for doc in self.documents:
            pdt = tf_source.get(doc) if tf_source is not None else None
            if pdt is None and unique:
                # A slot-annotated node belongs to a shared skeleton tree
                # whose per-query tfs live *outside* the tree; scoring it
                # without a resolving tf_source would silently yield
                # zeros, so fail loudly instead.
                raise ValueError(
                    "cannot score a shared-skeleton PDT node: no tf_source "
                    f"entry for document {doc!r} (per-query term "
                    "frequencies are resolved through content-node slots, "
                    "not stored on the tree)"
                )
            arrays = (pdt.tf_arrays if pdt is not None else None) or {}
            arrays_of[doc] = [
                (keyword, array)
                for keyword in unique
                if (array := arrays.get(keyword)) is not None
            ]
        containing = dict.fromkeys(unique, 0)
        scored: list[ScoredResult] = []
        for index, (node, (length, leaves, slots, counts)) in enumerate(
            zip(self.nodes, self._entries)
        ):
            for anno in leaves:
                length += anno.byte_length
            tfs = dict.fromkeys(unique, 0)
            for doc, found in slots:
                for keyword, array in arrays_of[doc]:
                    tf = tfs[keyword]
                    for slot in found:
                        tf += array[slot]
                    tfs[keyword] = tf
            for frequencies in counts:
                for keyword in unique:
                    tfs[keyword] += frequencies.get(keyword, 0)
            for keyword, tf in tfs.items():
                if tf > 0:
                    containing[keyword] += 1
            scored.append(
                ScoredResult(index, node, ResultStatistics(tfs, length))
            )
        return scored, containing


def aggregate_result(
    node: XMLNode,
    keywords: Sequence[str],
    tf_source: Optional[Mapping[str, object]] = None,
) -> ResultStatistics:
    """Aggregate tf per keyword and the byte length of one view result."""
    return collect_statistics((node,), keywords, tf_source)[0].statistics


def collect_statistics(
    view_results: Iterable[XMLNode],
    keywords: Sequence[str],
    tf_source: Optional[Mapping[str, object]] = None,
) -> list[ScoredResult]:
    """Phase 1 over a throw-away plan: per-result statistics, no scores."""
    return StatisticsPlan(view_results).collect(keywords, tf_source)[0]


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
    ``V(D)`` is the full view.  ``tf_source`` resolves the tfs of
    shared-skeleton PDT nodes (see :meth:`StatisticsPlan.collect`).

    Composed from the scatter-gather primitives
    (:meth:`StatisticsPlan.collect` → :func:`idf_from_counts` →
    :func:`apply_scores` → :func:`filter_matching`) so the single-engine
    path and the sharded coordinator run the *identical* arithmetic in
    the identical order — the foundation of the bit-identical-ranking
    guarantee.
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
    selector (:mod:`repro.core.topk`) is property-tested against; the
    engine itself uses the O(n log k) bounded heap.
    """
    ranked = sorted(outcome.results, key=lambda r: (-r.score, r.index))
    if k is None:
        return ranked
    return ranked[: max(k, 0)]
