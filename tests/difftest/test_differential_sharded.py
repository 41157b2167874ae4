"""Sharded differential tests: the coordinator vs baseline vs one engine.

The ``sharded`` difftest configuration scatters each generated scenario
across randomized shard counts (1, 2 and 7 — degenerate, even, and
prime-vs-doc-count) with randomized doc-to-shard assignments, then
checks the scatter-gather pipeline two ways:

* against the naive materialize-then-search **baseline** through
  :func:`difftest.harness.assert_outcomes_equivalent` (ranks, tie-break
  order, tfs, byte lengths, materialized XML exact; scores/idf via
  ``isclose``) — Theorem 4.1 survives partitioning;
* against a **single-engine** run of the identical view, **bit for
  bit** — exact ``==`` on idf floats, scores, document-order indexes
  and serialized XML.  Scatter-gather is a pure refactor of the
  pipeline: phase 1 ships integer statistics, the coordinator computes
  the very same ``view_size / containing`` divisions the single engine
  would, so not even the last ulp may move.

Two corpus families: single-case views (one fragment, so the whole doc
group lands on one random shard — including ``shard_count=1``, the
degenerate case that must behave as the plain engine) and combined
multi-case views (per-case fragments land on independently random
shards, exercising cross-shard gather, global index rebasing and the
streaming merge).  The seed matrix honours ``DIFFTEST_SEEDS`` exactly
like the other difftest configurations, so CI's matrix fans these out
with the same pins.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.baselines.naive import BaselineEngine
from repro.core.engine import KeywordSearchEngine
from repro.core.placement import ShardPlan
from repro.core.sharding import CorpusCoordinator, ShardExecutor
from repro.storage.database import XMLDatabase

from difftest.generators import generate_case
from difftest.harness import assert_outcomes_equivalent

DEFAULT_SEEDS = (101, 202, 303, 404, 505, 606)
#: Degenerate single shard, even split, and a prime count larger than
#: any generated corpus's document count (so some shards stay empty).
SHARD_COUNTS = (1, 2, 7)
TOP_K = 10


def _seed_matrix() -> tuple[int, ...]:
    raw = os.environ.get("DIFFTEST_SEEDS", "")
    if not raw.strip():
        return DEFAULT_SEEDS
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _pair_matrix() -> tuple[tuple[int, int], ...]:
    seeds = _seed_matrix()
    if len(seeds) == 1:
        seeds = seeds * 2
    return tuple(
        (seeds[i], seeds[(i + 1) % len(seeds)])
        for i in range(0, len(seeds), 2)
    )


def _random_plan(rng, doc_groups, shard_count) -> ShardPlan:
    """Each colocation group lands on an independently random shard."""
    assignments = {}
    for group in doc_groups:
        shard = rng.randrange(shard_count)
        for name in group:
            assignments[name] = shard
    return ShardPlan.from_assignments(assignments, shard_count)


def _coordinator_from_docs(documents, plan, view_text, shard_deadline=None):
    executors = [ShardExecutor(i) for i in range(plan.shard_count)]
    for name in sorted(documents):
        executors[plan.shard_of(name)].load_document(name, documents[name])
    coordinator = CorpusCoordinator(
        executors, plan, shard_deadline=shard_deadline
    )
    coordinator.define_view("v", view_text)
    return coordinator


def _assert_bit_identical(out, ref, context: str) -> None:
    """Exact equality — floats compared with ``==``, not ``isclose``."""
    assert out.view_size == ref.view_size, context
    assert out.matching_count == ref.matching_count, context
    assert out.idf == ref.idf, context
    assert [
        (r.rank, r.score, r.scored.index) for r in out.results
    ] == [(r.rank, r.score, r.scored.index) for r in ref.results], context
    assert [r.to_xml() for r in out.results] == [
        r.to_xml() for r in ref.results
    ], context


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
@pytest.mark.parametrize("seed", _seed_matrix())
def test_sharded_single_case_matches_baseline_and_engine(seed, shard_count):
    """Family (a): every generated shape, one fragment, one random shard."""
    case = generate_case(seed)
    rng = random.Random(seed * 1009 + shard_count)

    baseline = BaselineEngine(case.database)
    bview = baseline.define_view("truth", case.view_text)

    single = KeywordSearchEngine(generate_case(seed).database)
    sview = single.define_view("single", case.view_text)

    doc_names = sorted(case.database.document_names())
    plan = _random_plan(rng, [doc_names], shard_count)
    # A deterministically identical corpus feeds the executors, so the
    # coordinator owns its documents like a real per-shard fleet would.
    shard_source = generate_case(seed).database
    documents = {
        name: shard_source.get(name).document for name in doc_names
    }
    coordinator = _coordinator_from_docs(documents, plan, case.view_text)
    with coordinator:
        for keywords in case.keyword_sets:
            for conjunctive in (True, False):
                context = (
                    f"seed={seed} shards={shard_count} "
                    f"kw={keywords} conj={conjunctive}"
                )
                bout = baseline.search_detailed(
                    bview, keywords, TOP_K, conjunctive
                )
                sout = single.search_detailed(
                    sview, keywords, TOP_K, conjunctive
                )
                out = coordinator.search_detailed(
                    "v", keywords, top_k=TOP_K, conjunctive=conjunctive
                )
                assert_outcomes_equivalent(
                    out, bout, keywords, f"{context} [sharded-vs-baseline]"
                )
                _assert_bit_identical(
                    out, sout, f"{context} [sharded-vs-single]"
                )


def _combined_corpus(seed_pair):
    """Two generated cases fused into one multi-fragment corpus.

    Document names get a per-case prefix so the corpora cannot collide;
    each rewritten view becomes one top-level sequence fragment, and
    the per-case doc groups are the colocation units.
    """
    fragments = []
    documents = {}
    groups = []
    keyword_sets = []
    for position, seed in enumerate(seed_pair):
        case = generate_case(seed)
        text = case.view_text
        group = []
        for name in sorted(case.database.document_names()):
            renamed = f"x{position}{name}"
            text = text.replace(f"fn:doc({name})", f"fn:doc({renamed})")
            documents[renamed] = case.database.get(name).document
            group.append(renamed)
        fragments.append("(" + text + ")")
        groups.append(group)
        keyword_sets.extend(case.keyword_sets[:2])
    view_text = "(" + ",\n".join(fragments) + ")"
    return view_text, documents, groups, keyword_sets


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
@pytest.mark.parametrize("seed_pair", _pair_matrix())
def test_sharded_multi_fragment_matches_baseline_and_engine(
    seed_pair, shard_count
):
    """Family (b): fragments scatter independently; gather re-unifies."""
    view_text, documents, groups, keyword_sets = _combined_corpus(seed_pair)
    rng = random.Random(sum(seed_pair) * 31 + shard_count)

    reference_db = XMLDatabase()
    for name in sorted(documents):
        reference_db.load_document(name, documents[name])
    baseline = BaselineEngine(reference_db)
    bview = baseline.define_view("truth", view_text)
    single = KeywordSearchEngine(reference_db)
    sview = single.define_view("single", view_text)

    plan = _random_plan(rng, groups, shard_count)
    coordinator = _coordinator_from_docs(
        documents, plan, view_text, shard_deadline=30.0
    )
    with coordinator:
        # With more shards than colocation groups the fragments usually
        # scatter; with one shard they must not (degenerate case).
        touched = coordinator.get_view("v").shards
        assert len(touched) <= min(shard_count, len(groups))
        for keywords in keyword_sets:
            for conjunctive in (True, False):
                context = (
                    f"seeds={seed_pair} shards={shard_count} "
                    f"kw={keywords} conj={conjunctive}"
                )
                bout = baseline.search_detailed(
                    bview, keywords, TOP_K, conjunctive
                )
                sout = single.search_detailed(
                    sview, keywords, TOP_K, conjunctive
                )
                out = coordinator.search_detailed(
                    "v", keywords, top_k=TOP_K, conjunctive=conjunctive
                )
                assert_outcomes_equivalent(
                    out, bout, keywords, f"{context} [sharded-vs-baseline]"
                )
                _assert_bit_identical(
                    out, sout, f"{context} [sharded-vs-single]"
                )


def test_one_shard_is_the_single_engine_degenerate_case():
    """shard_count=1 is byte-equivalent to the plain engine: the merge
    consumes exactly one stream and prunes nothing."""
    case = generate_case(_seed_matrix()[0])
    single = KeywordSearchEngine(case.database)
    sview = single.define_view("single", case.view_text)
    shard_source = generate_case(case.seed).database
    doc_names = sorted(shard_source.document_names())
    documents = {name: shard_source.get(name).document for name in doc_names}
    plan = ShardPlan.from_assignments({n: 0 for n in doc_names}, 1)
    coordinator = _coordinator_from_docs(documents, plan, case.view_text)
    with coordinator:
        for keywords in case.keyword_sets:
            out = coordinator.search_detailed("v", keywords, top_k=TOP_K)
            sout = single.search_detailed(sview, keywords, TOP_K, True)
            _assert_bit_identical(out, sout, f"kw={keywords}")
            assert out.merge_stats is not None
            assert out.merge_stats.shard_count == 1
            assert out.merge_stats.pruned == 0
