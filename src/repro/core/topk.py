"""Streaming top-k selection over scored results (paper Section 4.2.2.2).

The paper's pipeline identifies the k highest-scoring results and fetches
content for *only* those winners.  The original engine realized the
selection as a full sort of every keyword-satisfying result
(:func:`repro.core.scoring.select_top_k`), which is O(n log n) in the view
size and forces the complete ranked list to exist even when the caller
asked for ``top_k=10``.

:class:`TopKSelector` replaces the sort with a bounded min-heap: each
scored result is pushed once, the heap never holds more than k entries,
and selection costs O(n log k).  The ranking contract is *identical* to
``select_top_k`` — descending score, ties broken by document order
(ascending ``ScoredResult.index``) — which the test suite asserts
property-style against the reference sort.

The engine itself selects by column
(:func:`repro.core.outcome.rank_statistics`: one stable sort of the
matching rows by score, under the same contract, so objects exist
only for the winners).  The selector's
generalization to a sharded corpus lives here: each shard executor
selects its own top k that way, exposes the ranked survivors
as a score-descending :class:`ShardStream`, and the coordinator merges
the streams through :func:`merge_shard_streams` — a k-way merge that
stops consuming a shard the moment its score upper bound falls below
the coordinator's current k-th score (:meth:`TopKSelector.bound`).
Because every stream is sorted descending and the bound check is
*strict*, the merge provably returns the same ranked list the single
engine computes over the concatenated results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.scoring import ScoredResult


class TopKSelector:
    """A bounded-heap accumulator for the k best :class:`ScoredResult`\\ s.

    ``k=None`` keeps everything (the caller wants the full ranking);
    ``k<=0`` keeps nothing.  Results are pushed one at a time —
    the selector never retains more than ``max(k, 0)`` entries, so the
    memory high-water mark is O(k), not O(n).

    Heap entries are ``(score, -index)`` pairs: the heap root is the
    current *worst* retained result (lowest score; among equal scores the
    latest in document order), which is exactly the entry a better
    incoming result must displace to preserve ``select_top_k``'s
    tie-breaking.
    """

    def __init__(self, k: Optional[int]):
        self.k = k
        self._heap: list[tuple[float, int, ScoredResult]] = []
        self._pushed = 0

    @property
    def pushed(self) -> int:
        """How many results have been offered to the selector."""
        return self._pushed

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, result: ScoredResult) -> None:
        """Offer one scored result; retained only if it ranks in the top k."""
        self._pushed += 1
        if self.k is not None and self.k <= 0:
            return
        entry = (result.score, -result.index, result)
        if self.k is None or len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry[:2] > self._heap[0][:2]:
            heapq.heapreplace(self._heap, entry)

    def extend(self, results: Iterable[ScoredResult]) -> None:
        for result in results:
            self.push(result)

    def bound(self) -> float:
        """The score a new result must *beat* to change the selection.

        While the selection is still open — ``k=None`` (keep everything)
        or fewer than k results retained — the bound is ``-inf``: any
        result would be kept, so no source of candidates may be pruned
        against it.  Once k results are retained it is the current k-th
        (worst retained) score.  With ``k<=0`` nothing is ever retained,
        so the bound is ``+inf`` from the start.

        This is exactly the threshold the scatter-gather merge needs:
        a shard whose score upper bound is *strictly below* ``bound()``
        cannot contribute — an equal score could still displace a
        retained result via the index tie-break, so equality must not
        prune.  (The issue sketch said "+inf while under-filled"; that
        orientation would let the merge prune while the heap can still
        accept anything, silently dropping results, so the accessor
        reports the conservative ``-inf`` instead — property-tested
        against the reference sort.)
        """
        if self.k is not None and self.k <= 0:
            return math.inf
        if self.k is None or len(self._heap) < self.k:
            return -math.inf
        return self._heap[0][0]

    def results(self) -> list[ScoredResult]:
        """The retained results, ranked: score descending, ties by index."""
        return [
            entry[2]
            for entry in sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        ]


# -- scatter-gather merge -------------------------------------------------------


class ShardStream:
    """One shard's ranked results, consumed in score-descending batches.

    Models the wire protocol a remote shard would speak: the coordinator
    pulls a batch at a time, and after each batch the shard's *score
    upper bound* — the best score any not-yet-consumed result can have —
    is simply the score of the last result consumed (the stream is
    sorted).  Before the first batch nothing is known, so the bound is
    ``+inf``; once exhausted it is ``-inf``.
    """

    __slots__ = ("shard_id", "_ranked", "_pos", "batch_size")

    def __init__(
        self,
        shard_id: int,
        ranked: Sequence[ScoredResult],
        batch_size: int = 4,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.shard_id = shard_id
        self._ranked = ranked
        self._pos = 0
        self.batch_size = batch_size

    def __len__(self) -> int:
        return len(self._ranked)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._ranked)

    @property
    def consumed(self) -> int:
        return self._pos

    @property
    def upper_bound(self) -> float:
        """Best possible score of any result not yet consumed."""
        if self.exhausted:
            return -math.inf
        if self._pos == 0:
            return math.inf
        return self._ranked[self._pos - 1].score

    def next_batch(self) -> list[ScoredResult]:
        batch = list(self._ranked[self._pos : self._pos + self.batch_size])
        self._pos += len(batch)
        return batch


@dataclass
class MergeStats:
    """Counters the scatter-gather merge reports (``tests/test_floors.py``
    and the CI ``sharded_fanout`` ratchet assert on them).

    ``candidates`` is the total number of ranked results the shards
    held; ``consumed`` is how many the merge actually pulled — the gap
    between the two is what early termination saved.  ``pruned`` counts
    streams abandoned with results still unread because their upper
    bound fell strictly below the k-th score.  ``missing`` counts shards
    that contributed *no* stream at all — zero unless a degraded
    (``partial_results``) scatter dropped failed shards, in which case
    the merge's top-k guarantee is scoped to the streams it saw.
    """

    shard_count: int = 0
    candidates: int = 0
    consumed: int = 0
    batches: int = 0
    pruned: int = 0
    exhausted: int = 0
    missing: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "shard_count": self.shard_count,
            "candidates": self.candidates,
            "consumed": self.consumed,
            "batches": self.batches,
            "pruned": self.pruned,
            "exhausted": self.exhausted,
            "missing": self.missing,
        }


def merge_shard_streams(
    streams: Sequence[ShardStream], k: Optional[int]
) -> tuple[list[ScoredResult], MergeStats]:
    """K-way merge of per-shard ranked streams with early termination.

    Repeatedly pulls a batch from the live stream with the highest upper
    bound, feeding a coordinator-side :class:`TopKSelector`.  A stream
    whose upper bound falls *strictly below* the selector's current
    k-th score (:meth:`TopKSelector.bound`) is abandoned: every result
    it still holds scores at most that bound, hence strictly below the
    k-th score, hence can never displace a retained result.  Strictness
    matters — a not-yet-consumed result with a score *equal* to the k-th
    could still win on the ascending-index tie-break, so equal bounds
    keep the stream live.

    The invariant this buys: the returned ranking is bit-identical to
    pushing every shard's results through one selector (and therefore to
    the single-engine path over the concatenated view), while consuming
    as few per-shard results as the bounds allow.
    """
    selector = TopKSelector(k)
    stats = MergeStats(
        shard_count=len(streams),
        candidates=sum(len(stream) for stream in streams),
    )
    live = list(streams)
    while True:
        bound = selector.bound()
        still_live: list[ShardStream] = []
        for stream in live:
            if stream.exhausted:
                stats.exhausted += 1
            elif stream.upper_bound < bound:
                stats.pruned += 1
            else:
                still_live.append(stream)
        live = still_live
        if not live:
            break
        best = max(live, key=lambda stream: stream.upper_bound)
        batch = best.next_batch()
        stats.consumed += len(batch)
        stats.batches += 1
        selector.extend(batch)
    return selector.results(), stats
