"""Streaming top-k selector: equivalence with the reference full sort."""

import math
import random

import pytest

from repro.core.scoring import (
    ResultStatistics,
    ScoredResult,
    ScoringOutcome,
    select_top_k,
)
from repro.core.topk import (
    ShardStream,
    TopKSelector,
    merge_shard_streams,
)
from repro.xmlmodel.node import XMLNode


def make_scored(scores):
    """ScoredResults with document-order indexes and the given scores."""
    results = []
    for index, score in enumerate(scores):
        results.append(
            ScoredResult(
                index=index,
                node=XMLNode("r"),
                statistics=ResultStatistics(term_frequencies={}, byte_length=1),
                score=score,
            )
        )
    return results


def make_outcome(scores):
    results = make_scored(scores)
    return ScoringOutcome(results=results, view_size=len(results), idf={})


def ranking(results):
    return [(r.index, r.score) for r in results]


def streamed_top_k(outcome, k):
    """The outcome's results pushed through one :class:`TopKSelector`."""
    selector = TopKSelector(k)
    selector.extend(outcome.results)
    return selector.results()


class TestSelector:
    def test_empty(self):
        assert TopKSelector(5).results() == []

    def test_keeps_best_k(self):
        selector = TopKSelector(2)
        selector.extend(make_scored([1.0, 3.0, 2.0, 5.0]))
        assert [r.score for r in selector.results()] == [5.0, 3.0]

    def test_k_none_keeps_all_ranked(self):
        outcome = make_outcome([1.0, 3.0, 2.0])
        assert ranking(streamed_top_k(outcome, None)) == ranking(
            select_top_k(outcome, None)
        )

    def test_k_zero_and_negative_keep_nothing(self):
        outcome = make_outcome([1.0, 2.0])
        assert streamed_top_k(outcome, 0) == []
        assert streamed_top_k(outcome, -3) == []

    def test_k_larger_than_n(self):
        outcome = make_outcome([2.0, 1.0])
        assert [r.score for r in streamed_top_k(outcome, 10)] == [2.0, 1.0]

    def test_ties_broken_by_document_order(self):
        # Equal scores: earlier document order wins, exactly like the sort.
        outcome = make_outcome([7.0, 7.0, 7.0, 9.0])
        streamed = streamed_top_k(outcome, 2)
        assert ranking(streamed) == [(3, 9.0), (0, 7.0)]
        assert ranking(streamed) == ranking(select_top_k(outcome, 2))

    def test_bounded_memory(self):
        selector = TopKSelector(3)
        selector.extend(make_scored([float(i) for i in range(100)]))
        assert len(selector) == 3
        assert selector.pushed == 100

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [None, 0, 1, 3, 7, 50])
    def test_equivalence_randomized(self, seed, k):
        # Scores drawn from a tiny set so ties are everywhere — the
        # tie-breaking path is the one a heap gets wrong most easily.
        rng = random.Random(seed)
        scores = [rng.choice([0.0, 1.0, 2.0, 3.0]) for _ in range(rng.randint(0, 40))]
        outcome = make_outcome(scores)
        assert ranking(streamed_top_k(outcome, k)) == ranking(
            select_top_k(outcome, k)
        )


class TestBound:
    """``bound()``: the displacement threshold, vs the reference sort."""

    def test_underfilled_is_minus_inf(self):
        selector = TopKSelector(3)
        assert selector.bound() == -math.inf
        selector.extend(make_scored([5.0, 4.0]))
        # Two of three slots filled: anything would still be kept, so
        # nothing may be pruned against the bound yet.
        assert selector.bound() == -math.inf

    def test_k_none_never_closes(self):
        selector = TopKSelector(None)
        selector.extend(make_scored([float(i) for i in range(100)]))
        assert selector.bound() == -math.inf

    def test_k_nonpositive_is_plus_inf(self):
        assert TopKSelector(0).bound() == math.inf
        assert TopKSelector(-2).bound() == math.inf

    def test_filled_is_kth_score(self):
        selector = TopKSelector(2)
        selector.extend(make_scored([1.0, 9.0, 4.0]))
        assert selector.bound() == 4.0

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    def test_bound_matches_reference_sort(self, seed, k):
        rng = random.Random(seed)
        scores = [
            rng.choice([0.0, 1.0, 2.0, 3.0, 4.0])
            for _ in range(rng.randint(0, 30))
        ]
        selector = TopKSelector(k)
        for index, result in enumerate(make_scored(scores)):
            selector.push(result)
            prefix = sorted(scores[: index + 1], reverse=True)
            expected = prefix[k - 1] if len(prefix) >= k else -math.inf
            assert selector.bound() == expected


def make_streams(rng, shard_count, total, batch_size):
    """Partition ``total`` scored results across shards, ranked per shard."""
    results = make_scored(
        [rng.choice([0.0, 1.0, 2.0, 3.0]) for _ in range(total)]
    )
    shards = [[] for _ in range(shard_count)]
    for result in results:
        shards[rng.randrange(shard_count)].append(result)
    streams = [
        ShardStream(
            shard_id,
            sorted(shard, key=lambda r: (-r.score, r.index)),
            batch_size=batch_size,
        )
        for shard_id, shard in enumerate(shards)
    ]
    return results, streams


class TestMergeShardStreams:
    def test_empty(self):
        ranked, stats = merge_shard_streams([], 5)
        assert ranked == []
        assert stats.shard_count == 0 and stats.candidates == 0

    def test_upper_bound_protocol(self):
        stream = ShardStream(0, make_scored([3.0, 1.0]), batch_size=1)
        assert stream.upper_bound == math.inf  # nothing consumed yet
        stream.next_batch()
        assert stream.upper_bound == 3.0  # best remaining <= last consumed
        stream.next_batch()
        assert stream.exhausted and stream.upper_bound == -math.inf

    def test_early_termination_prunes_streams(self):
        # Shard 0 holds the winners; shard 1's best is below the k-th
        # score once shard 0's first batch lands, so shard 1 must be
        # abandoned without consuming everything.
        winners = make_scored([9.0, 8.0, 7.0, 6.0])
        losers = make_scored([1.0] * 50)
        for loser in losers:
            loser.index += len(winners)
        streams = [
            ShardStream(0, winners, batch_size=4),
            ShardStream(1, losers, batch_size=4),
        ]
        ranked, stats = merge_shard_streams(streams, 3)
        assert [r.score for r in ranked] == [9.0, 8.0, 7.0]
        assert stats.pruned == 1
        assert stats.consumed < stats.candidates

    def test_equal_scores_are_not_pruned(self):
        # An unconsumed result with a score *equal* to the k-th could
        # still displace via the index tie-break: strictness of the
        # bound check is what keeps this bit-identical.
        early = make_scored([5.0, 5.0])  # indexes 0, 1
        late = make_scored([5.0, 5.0])
        for result in late:
            result.index += 10  # indexes 10, 11
        ranked, _ = merge_shard_streams(
            [ShardStream(0, late, 1), ShardStream(1, early, 1)], 2
        )
        assert [r.index for r in ranked] == [0, 1]

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [None, 0, 1, 3, 10])
    @pytest.mark.parametrize("batch_size", [1, 3, 7])
    def test_merge_equals_reference_over_union(self, seed, k, batch_size):
        rng = random.Random(seed)
        results, streams = make_streams(
            rng, rng.randint(1, 6), rng.randint(0, 60), batch_size
        )
        outcome = ScoringOutcome(
            results=results, view_size=len(results), idf={}
        )
        ranked, stats = merge_shard_streams(streams, k)
        assert ranking(ranked) == ranking(select_top_k(outcome, k))
        assert stats.consumed <= stats.candidates == len(results)
        # Every stream ends either exhausted or pruned, exactly once.
        assert stats.pruned + stats.exhausted == stats.shard_count
