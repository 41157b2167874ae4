"""Differential checks on the skeleton's one form (the ``compressed`` config).

A skeleton is its v2 wire columns, whichever way it came to be, and the
routes must be indistinguishable — **bit identity**, not mere
equivalence: ranked outcomes exactly equal (``==`` on floats, ranks,
document-order indexes and serialized XML), skeleton-tier state
serializing to identical payloads, every engine also matching the naive
materialize-then-search baseline:

* built vs a cache-free engine (every query rebuilds, nothing is kept);
* restored from a snapshot store, eager and ``mmap_mode``, both serving
  first contact at ``snapshot`` depth;
* sharded scatter-gather at shard counts 1 and 2 vs one engine;
* ``mutations``-style edit streams: patched in place vs rebuilt.

``golden_skeletons.json`` pins the payloads themselves: the sha256 of
``to_bytes()`` for every skeleton of every ``VIEW_SHAPES`` x
``DIFFTEST_SEEDS`` case and of every seed's tier before and after each
step of its edit stream, recorded at the last commit that had three
skeleton classes — what they agreed on is what stores on disk hold.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines.naive import BaselineEngine
from repro.core.engine import KeywordSearchEngine
from repro.core.placement import ShardPlan
from repro.core.sharding import CorpusCoordinator, ShardExecutor
from repro.core.snapshot import SkeletonStore

from difftest.generators import (
    VIEW_SHAPES,
    apply_mutation,
    generate_case,
    generate_mutation_stream,
)
from difftest.harness import assert_outcomes_equivalent
from difftest.test_differential import _seed_matrix
from difftest.test_differential_sharded import _assert_bit_identical

TOP_K = 10
STREAM_LENGTH = 6
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_skeletons.json").read_text()
)


def _skeleton_digests(*engines) -> dict[str, str]:
    """Per-document sha256 of every skeleton-tier entry's wire bytes."""
    digests: dict[str, str] = {}
    for engine in engines:
        for key, skeleton in engine.cache.skeletons.items():
            digests[key[1]] = hashlib.sha256(skeleton.to_bytes()).hexdigest()
    return digests


def _warm(case, store=None):
    """An engine over ``case`` with the view's skeletons in its tier."""
    engine = KeywordSearchEngine(case.database, snapshot_store=store)
    view = engine.define_view("v", case.view_text)
    return engine, view, engine.warm_view(view)


def _restored(case, root: Path, mmap_mode: bool):
    engine, view, hits = _warm(
        case, SkeletonStore(root / "snapshots", mmap_mode=mmap_mode)
    )
    assert set(hits.values()) == {"snapshot"}, (mmap_mode, hits)
    return engine, view


# -- the recorded payloads, on every route -----------------------------------------


@pytest.mark.parametrize("shape", VIEW_SHAPES)
def test_golden_payload_digests_on_every_route(shape, tmp_path):
    for seed in GOLDEN["seeds"]:
        golden = GOLDEN["cases"][f"{shape}-{seed}"]
        root = tmp_path / str(seed)
        built, _, _ = _warm(
            generate_case(seed, shape), SkeletonStore(root / "snapshots")
        )
        assert _skeleton_digests(built) == golden, f"{shape}-{seed} built"
        for mmap_mode in (False, True):
            engine, _ = _restored(generate_case(seed, shape), root, mmap_mode)
            assert _skeleton_digests(engine) == golden, (
                f"{shape}-{seed} restored mmap={mmap_mode}"
            )


# -- built: tier-backed vs cache-free ----------------------------------------------


@pytest.mark.parametrize("seed", _seed_matrix())
def test_compressed_engine_is_bit_identical(seed):
    case = generate_case(seed)
    baseline = BaselineEngine(case.database)
    bview = baseline.define_view("truth", case.view_text)
    engine, view, _ = _warm(generate_case(seed))
    rebuilding = KeywordSearchEngine(
        generate_case(seed).database, enable_cache=False
    )
    rview = rebuilding.define_view("v", case.view_text)

    for keywords in case.keyword_sets:
        for conjunctive in (True, False):
            context = f"seed={seed} kw={keywords} conj={conjunctive}"
            cached = engine.search_detailed(view, keywords, TOP_K, conjunctive)
            _assert_bit_identical(
                cached,
                rebuilding.search_detailed(rview, keywords, TOP_K, conjunctive),
                f"{context} [cached-vs-rebuilt]",
            )
            assert_outcomes_equivalent(
                cached,
                baseline.search_detailed(bview, keywords, TOP_K, conjunctive),
                keywords,
                f"{context} [vs-baseline]",
            )


# -- snapshot restores -------------------------------------------------------------


@pytest.mark.parametrize("seed", _seed_matrix())
def test_restore_matrix_is_bit_identical(seed, tmp_path):
    """Built, eager-restored, mmap-restored: one payload, one answer."""
    case = generate_case(seed)
    baseline = BaselineEngine(case.database)
    bview = baseline.define_view("truth", case.view_text)
    builder, builder_view, _ = _warm(
        generate_case(seed), SkeletonStore(tmp_path / "snapshots")
    )
    keywords = case.keyword_sets[0]
    reference = builder.search_detailed(builder_view, keywords, TOP_K, True)
    for mmap_mode in (False, True):
        context = f"seed={seed} mmap={mmap_mode} kw={keywords}"
        engine, view = _restored(generate_case(seed), tmp_path, mmap_mode)
        assert _skeleton_digests(engine) == _skeleton_digests(builder), (
            f"{context}: restored skeleton state diverged"
        )
        out = engine.search_detailed(view, keywords, TOP_K, True)
        _assert_bit_identical(out, reference, f"{context} [vs-built]")
        assert_outcomes_equivalent(
            out,
            baseline.search_detailed(bview, keywords, TOP_K, True),
            keywords,
            f"{context} [vs-baseline]",
        )


# -- sharded -----------------------------------------------------------------------


@pytest.mark.parametrize("shard_count", (1, 2))
@pytest.mark.parametrize("seed", _seed_matrix())
def test_sharded_compressed_matches_uncompressed(seed, shard_count):
    """Scatter-gather vs one engine: same payloads, same answer."""
    case = generate_case(seed)
    doc_names = sorted(case.database.document_names())
    # One fragment, so its documents share a shard (a join cannot span two).
    plan = ShardPlan.from_assignments(
        {name: seed % shard_count for name in doc_names}, shard_count
    )
    source = generate_case(seed).database
    executors = [ShardExecutor(i) for i in range(shard_count)]
    for name in doc_names:
        executors[plan.shard_of(name)].load_document(
            name, source.get(name).document
        )
    baseline = BaselineEngine(case.database)
    bview = baseline.define_view("truth", case.view_text)
    single, view, _ = _warm(generate_case(seed))

    with CorpusCoordinator(executors, plan) as sharded:
        sharded.define_view("v", case.view_text)
        for keywords in case.keyword_sets:
            for conjunctive in (True, False):
                context = (
                    f"seed={seed} shards={shard_count} kw={keywords} "
                    f"conj={conjunctive}"
                )
                out = sharded.search_detailed(
                    "v", keywords, TOP_K, conjunctive
                )
                _assert_bit_identical(
                    out,
                    single.search_detailed(view, keywords, TOP_K, conjunctive),
                    f"{context} [sharded-vs-single]",
                )
                assert_outcomes_equivalent(
                    out,
                    baseline.search_detailed(
                        bview, keywords, TOP_K, conjunctive
                    ),
                    keywords,
                    f"{context} [vs-baseline]",
                )
        assert _skeleton_digests(
            *(executor.engine for executor in executors)
        ) == _skeleton_digests(single), f"seed={seed} shards={shard_count}"


# -- mutation streams --------------------------------------------------------------


def _mutation_stream_digests(seed, check) -> list[dict[str, str]]:
    """The default engine's skeleton-tier digests: warm, then after each
    edit of the seed's stream and the queries ``check(engine, view, op,
    keywords, context)`` runs after it (what was patchable was patched
    in place, the rest rebuilt)."""
    case = generate_case(seed)
    engine = KeywordSearchEngine(case.database)
    view = engine.define_view("v", case.view_text)
    ops = generate_mutation_stream(
        seed, generate_case(seed).database, count=STREAM_LENGTH
    )
    engine.search(view, case.priming_keywords, top_k=TOP_K)
    digests = [_skeleton_digests(engine)]
    for step, op in enumerate(ops):
        apply_mutation(engine.database, op)
        keywords = case.keyword_sets[step % len(case.keyword_sets)]
        check(
            engine, view, op, keywords,
            f"seed={seed} step={step} op={op.describe()}",
        )
        digests.append(_skeleton_digests(engine))
    return digests


@pytest.mark.parametrize("seed", _seed_matrix())
def test_mutations_preserve_bit_identity_under_compression(seed):
    """Patched in place vs rebuilt from the edited document."""
    view_text = generate_case(seed).view_text
    rebuilt_db = generate_case(seed).database
    rebuilding = KeywordSearchEngine(rebuilt_db, enable_cache=False)
    rview = rebuilding.define_view("v", view_text)
    baseline_db = generate_case(seed).database
    baseline = BaselineEngine(baseline_db)
    bview = baseline.define_view("truth", view_text)

    def check(engine, view, op, keywords, context):
        apply_mutation(rebuilt_db, op)
        apply_mutation(baseline_db, op)
        for conjunctive in (True, False):
            out = engine.search_detailed(view, keywords, TOP_K, conjunctive)
            _assert_bit_identical(
                out,
                rebuilding.search_detailed(rview, keywords, TOP_K, conjunctive),
                f"{context} conj={conjunctive} [patched-vs-rebuilt]",
            )
            assert_outcomes_equivalent(
                out,
                baseline.search_detailed(bview, keywords, TOP_K, conjunctive),
                keywords,
                f"{context} conj={conjunctive} [vs-baseline]",
            )

    digests = _mutation_stream_digests(seed, check)
    golden = GOLDEN["mutations"].get(str(seed))
    if golden is not None:
        assert digests == golden, f"seed={seed}: payloads left the record"
