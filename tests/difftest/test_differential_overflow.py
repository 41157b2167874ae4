"""Differential tests for sweeps larger than the cache (``overflow``).

Every per-document tier is smaller than the view's document count, so
each query sweeps more keys than the tier holds and the scan-resistant
eviction rule (:meth:`repro.core.cache.LRUCache.put`) turns newcomers
away mid-query: their skeletons answer the query uncompressed and
unmeasured and are then dropped.  Queries are interleaved with a
mutation stream, so resident skeletons get patched in place while
bypassed ones — which no tier ever held — must simply be rebuilt from
the edited document.

Each seed fuses three generated cases per shard into one multi-fragment
corpus and checks the starved system after every edit:

* against the naive **baseline** replaying the same ops;
* **bit for bit** against an engine whose tiers hold everything (the
  policy may change what is resident, never what is ranked);

on a single engine and through the coordinator at shard counts 1 and 2.
Evaluated-tier hits on the single engine build no PDT tree: the
evaluator alone reads one, so a skeleton rebuilt under a hit stays
columns (lazy tree == eager tree, by the same two references).

A second configuration turns the skeleton tier off and leaves the PDT
and evaluated tiers ample, under the same mutation stream: a query
builds a skeleton only for a reader that needs one — a keyword whose
column is not held, an evaluated-tier miss, or byte lengths whose
document coordinates an edit moved — and ranks the same.
"""

from __future__ import annotations

import functools
from collections import Counter
from unittest import mock

import pytest

from repro.baselines.naive import BaselineEngine
from repro.core.cache import QueryCache
from repro.core.engine import KeywordSearchEngine
from repro.core.skeleton import PDTSkeleton
from repro.core.placement import ShardPlan
from repro.core.sharding import CorpusCoordinator, ShardExecutor
from repro.storage.database import XMLDatabase

from difftest.generators import (
    MutationOp,
    apply_mutation,
    generate_case,
    generate_mutation_stream,
)
from difftest.harness import assert_outcomes_equivalent
from difftest.test_differential import _seed_matrix
from difftest.test_differential_sharded import (
    _assert_bit_identical,
    _combined_corpus,
)

TOP_K = 10
#: At least three documents behind the two-slot skeleton tier.
CASES_PER_SHARD = 3
#: Each case's forced patchable insert and deepest-leaf replace.
OPS_PER_CASE = 2


def _starved_cache() -> QueryCache:
    """Two slots in the skeleton tier, one in the evaluated tier and
    1 KiB of tf columns: any view of three or more documents overflows
    all of them.  Over the default seed matrix a column is 88–792
    bytes, so each fits alone and two to six stay resident."""
    return QueryCache(
        skeleton_capacity=2,
        pdt_byte_budget=1024,
        evaluated_capacity=1,
    )


def _skeleton_off_cache() -> QueryCache:
    """No skeleton tier; the PDT and evaluated tiers at their defaults,
    which hold every column and entry of these views."""
    return QueryCache(skeleton_capacity=0)


CACHES = {"starved": _starved_cache, "skeleton-off": _skeleton_off_cache}


def _assert_tiers_exercised(config: str, cache: QueryCache) -> None:
    stats = cache.stats()
    if config == "starved":
        # The rule was exercised, and the tier it protects kept serving.
        assert stats["skeleton"]["bypassed"] > 0
        assert stats["skeleton"]["hits"] > 0
        assert len(cache.skeletons) <= 2
        # The PDT tier overflows under LRU pressure and still serves.
        assert stats["pdt"]["evictions"] > 0
        assert stats["pdt"]["hits"] > 0
    else:
        # Nothing is resident, and the other two tiers kept serving.
        assert len(cache.skeletons) == 0
        assert stats["evaluated"]["hits"] > 0
        assert stats["pdt"]["hits"] > 0


def _seeds(seed: int, shard_count: int = 1) -> tuple[int, ...]:
    return tuple(
        seed + offset for offset in range(CASES_PER_SHARD * shard_count)
    )


def _reference(seeds, view_text):
    """The two references over one private copy of the fused corpus
    (edits mutate trees in place, so the starved system gets its own):
    an engine whose tiers hold everything, and the naive baseline —
    which evaluates the live trees per query and can share a database."""
    _view, documents, _groups, _keywords = _combined_corpus(seeds)
    database = XMLDatabase()
    for name in sorted(documents):
        database.load_document(name, documents[name])
    ample = KeywordSearchEngine(database)
    ample.define_view("v", view_text)
    baseline = BaselineEngine(database)
    return database, ample, baseline, baseline.define_view("v", view_text)


def _ops(seeds) -> list[MutationOp]:
    """The constituent cases' mutation streams, renamed into the fused
    corpus and interleaved round-robin."""
    streams = [
        [
            MutationOp(op.kind, f"x{position}{op.doc}", op.target, op.payload)
            for op in generate_mutation_stream(
                seed, generate_case(seed).database, count=OPS_PER_CASE
            )
        ]
        for position, seed in enumerate(seeds)
    ]
    return [op for step in zip(*streams) for op in step]


def _search(system, keywords, conjunctive, trees: Counter):
    """One search of ``system``; on an evaluated-tier hit, ``trees``
    counts it and the PDT trees built meanwhile."""
    built, build = Counter(), PDTSkeleton._build_tree

    def counted_build(skeleton):
        built["trees"] += 1
        return build(skeleton)

    with mock.patch.object(PDTSkeleton, "_build_tree", counted_build):
        out = system.search_detailed("v", keywords, TOP_K, conjunctive)
    if out.evaluated_hit:
        trees["hits"] += 1
        trees["built_on_hits"] += built["trees"]
    return out


def _check_step(
    starved, ample, baseline, bview, keywords, context, trees: Counter
) -> bool:
    """Check one step both ways; returns whether the starved system's
    first query was an evaluated-tier hit."""
    hits = []
    for conjunctive in (True, False):
        where = f"{context} kw={keywords} conj={conjunctive}"
        out = _search(starved, keywords, conjunctive, trees)
        hits.append(out.evaluated_hit)
        assert_outcomes_equivalent(
            out,
            baseline.search_detailed(bview, keywords, TOP_K, conjunctive),
            keywords,
            f"{where} [overflow-vs-naive]",
        )
        _assert_bit_identical(
            out,
            ample.search_detailed("v", keywords, TOP_K, conjunctive),
            f"{where} [overflow-vs-ample]",
        )
    return hits[0]


@functools.cache
def _single_engine_run(seed: int, config: str = "starved") -> Counter:
    """One seed's single engine under ``config``'s cache through its
    edit stream, every step checked.  Counts ``survived_rebuilds``, the
    post-edit queries
    that hit the very evaluated entry the edit found although the edited
    document's skeleton was not resident then — so the skeleton that
    served the query was rebuilt after the edit, and the entry's byte
    lengths came from it — and the evaluated-tier ``hits`` with the
    trees ``built_on_hits``."""
    seeds = _seeds(seed)
    view_text, documents, _groups, keyword_sets = _combined_corpus(seeds)
    starved_db = XMLDatabase()
    for name in sorted(documents):
        starved_db.load_document(name, documents[name])
    starved = KeywordSearchEngine(starved_db, cache=CACHES[config]())
    starved.define_view("v", view_text)
    reference_db, ample, baseline, bview = _reference(seeds, view_text)
    assert len(starved.get_view("v").qpts) > 2  # the sweep overflows
    starved.warm_view("v")

    counts = Counter()
    _check_step(
        starved,
        ample,
        baseline,
        bview,
        keyword_sets[0],
        f"seed={seed} warm",
        counts,
    )
    for step, op in enumerate(_ops(seeds)):
        entries = [entry for _, entry in starved.cache.evaluated.items()]
        resident = op.doc in starved.resident_documents("v")
        for database in (starved_db, reference_db):
            apply_mutation(database, op)
        hit = _check_step(
            starved,
            ample,
            baseline,
            bview,
            keyword_sets[step % len(keyword_sets)],
            f"seed={seed} step={step} op={op.describe()}",
            counts,
        )
        counts["survived_rebuilds"] += hit and not resident and any(
            entry is old
            for _, entry in starved.cache.evaluated.items()
            for old in entries
        )

    _assert_tiers_exercised(config, starved.cache)
    return counts


@pytest.mark.parametrize("seed", _seed_matrix())
def test_overflow_single_engine_matches_baseline_and_ample(seed):
    _single_engine_run(seed)


@pytest.mark.parametrize("seed", _seed_matrix())
def test_skeleton_off_single_engine_matches_baseline_and_ample(seed):
    _single_engine_run(seed, "skeleton-off")


def test_overflow_entries_survive_edits_over_rebuilt_skeletons():
    """A patchable edit migrates the evaluated entry whether or not the
    edited document's skeleton is resident: somewhere in the matrix an
    entry outlives an edit whose skeleton the starved tier had dropped."""
    assert sum(
        _single_engine_run(seed)["survived_rebuilds"] for seed in _seed_matrix()
    ) > 0


def test_skeleton_off_entries_survive_edits_with_stale_lengths():
    """With no skeleton tier, an entry that outlives a patchable edit
    serves a query whose byte lengths went stale: they are re-picked
    from skeletons built for them, somewhere in the matrix."""
    assert sum(
        _single_engine_run(seed, "skeleton-off")["survived_rebuilds"]
        for seed in _seed_matrix()
    ) > 0


def test_overflow_evaluated_hits_build_no_tree():
    """Only the evaluator reads a PDT's tree: across the matrix, the
    evaluated-tier hits of the starved engine — skeletons evicted,
    rebuilt and patched under them — and of the engine without a
    skeleton tier built none, and ranked like the naive oracle and the
    ample engine (checked per step above)."""
    for config in CACHES:
        totals = sum(
            (_single_engine_run(seed, config) for seed in _seed_matrix()),
            Counter(),
        )
        assert totals["hits"] > 0
        assert totals["built_on_hits"] == 0


@pytest.mark.parametrize("shard_count", (1, 2))
@pytest.mark.parametrize("seed", _seed_matrix())
def test_overflow_sharded_matches_baseline_and_ample(seed, shard_count):
    _sharded_run(seed, shard_count, "starved")


@pytest.mark.parametrize("shard_count", (1, 2))
@pytest.mark.parametrize("seed", _seed_matrix())
def test_skeleton_off_sharded_matches_baseline_and_ample(seed, shard_count):
    _sharded_run(seed, shard_count, "skeleton-off")


def _sharded_run(seed: int, shard_count: int, config: str) -> None:
    """One seed's coordinator over ``shard_count`` executors under
    ``config``'s cache through the first three cases' edit stream,
    every step checked."""
    seeds = _seeds(seed, shard_count)
    view_text, documents, groups, keyword_sets = _combined_corpus(seeds)
    # Groups alternate shards, so every shard sweeps at least three
    # documents through its own tiers.
    plan = ShardPlan.from_assignments(
        {
            name: position % shard_count
            for position, group in enumerate(groups)
            for name in group
        },
        shard_count,
    )
    executors = [
        ShardExecutor(shard, cache=CACHES[config]())
        for shard in range(shard_count)
    ]
    for name in sorted(documents):
        executors[plan.shard_of(name)].load_document(name, documents[name])
    coordinator = CorpusCoordinator(executors, plan)
    coordinator.define_view("v", view_text)

    reference_db, ample, baseline, bview = _reference(seeds, view_text)

    with coordinator:
        coordinator.warm_view("v")
        # Edits to the first three cases reach every shard.
        for step, op in enumerate(_ops(seeds[:CASES_PER_SHARD])):
            for target in (coordinator, reference_db):
                apply_mutation(target, op)
            _check_step(
                coordinator,
                ample,
                baseline,
                bview,
                keyword_sets[step % len(keyword_sets)],
                f"seed={seed} shards={shard_count} step={step} "
                f"op={op.describe()}",
                Counter(),
            )
        for executor in executors:
            _assert_tiers_exercised(config, executor.engine.cache)
