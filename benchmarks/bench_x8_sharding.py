"""X8 (extension): corpus sharding — per-shard executors, streaming merge.

Not a paper figure — this locks down the scatter-gather layer the way
bench_x7 locks down the cold path.  Two deployments over the identical
96-document corpus (see ``repro.bench.experiments._sharding_corpus``):

* **single executor** — one :class:`KeywordSearchEngine`, one cache
  budget.  Every query sweeps 96 ``(view, doc)`` skeleton keys through
  a 64-entry tier; the tier's scan-resistant eviction keeps it full and
  serving (two lookups in three hit), but the third of the documents
  that does not fit is rebuilt by every query;
* **4 shard executors** — the same corpus hash-partitioned by the
  shared :class:`~repro.core.routing.ShardRouter`, each executor's
  slice fitting its own cache tiers, queries scattered by the
  :class:`~repro.core.sharding.CorpusCoordinator` and re-unified by the
  streaming top-k merge.

``test_sharding_buys_capacity_without_costing_time`` is the
self-enforcing acceptance criterion.  What N executors buy on one
machine is N times the aggregate tier capacity, so the evidence is a
count, not a clock:

* over one keyword-cycle sweep the single executor's skeleton tier
  serves **≥ 0.6** of its lookups (the tier is full, not flooded) and
  the four executors' tiers serve **≥ 0.95** (the whole working set is
  resident) — both repeat exactly;
* the sweep through 4 shard executors is **no slower** than the single
  executor (interleaved minimums via the shared
  ``repro.bench.experiments.measure_sharding`` protocol, so
  CPU-frequency drift cancels out).  Under one GIL the scatter buys no
  parallelism, so the rebuilds the shards skip are roughly what the
  scatter, per-fragment views and merge cost: the measured ratio is
  1.1-1.4x, and the floor pins no more than "not a slowdown".  (The
  ≥ 2x floor this file used to carry measured the single executor's
  tier being flooded to an 8% hit rate, not anything sharding does.);
* the streaming merge's early termination must have *done* something:
  the coordinator consumed strictly fewer per-shard results than the
  shards offered, and at least one stream was pruned against the
  running k-th-score bound.

Ranking equivalence is not re-proven here — that is the difftest
``sharded`` configuration's job (bit-for-bit against the single engine
and the naive baseline); this file owns the performance claim.
"""

from __future__ import annotations

from repro.bench.experiments import measure_sharding

SPEEDUP_FLOOR = 1.0
SINGLE_HIT_RATE_FLOOR = 0.6
SHARDED_HIT_RATE_FLOOR = 0.95
SHARD_COUNT = 4


# -- pytest-benchmark variants (the usual statistics tables) ------------------


def test_sweep_single_executor(benchmark):
    from repro.bench.experiments import _sharding_corpus
    from repro.core.engine import KeywordSearchEngine
    from repro.storage.database import XMLDatabase

    documents, view_text, keyword_sets = _sharding_corpus()
    database = XMLDatabase()
    for name in sorted(documents):
        database.load_document(name, documents[name])
    engine = KeywordSearchEngine(database)
    view = engine.define_view("v", view_text)
    engine.warm_view(view)

    def sweep():
        for keywords in keyword_sets:
            engine.search(view, keywords, top_k=5)

    sweep()  # steady state: every keyword set seen once
    benchmark(sweep)


def test_sweep_sharded(benchmark):
    from repro.bench.experiments import _sharding_corpus
    from repro.core.ingest import ingest_corpus

    documents, view_text, keyword_sets = _sharding_corpus()
    coordinator, _ = ingest_corpus(
        documents, {"v": view_text}, shard_count=SHARD_COUNT
    )

    def sweep():
        for keywords in keyword_sets:
            coordinator.search("v", keywords, top_k=5)

    with coordinator:
        sweep()
        benchmark(sweep)


# -- self-enforcing acceptance criteria ---------------------------------------


def test_sharding_buys_capacity_without_costing_time():
    """Acceptance: 4 shard executors hold the working set one executor
    cannot, at no cost in wall clock, with the streaming merge's early
    termination observably at work.

    Up to three measurement attempts: scheduler noise can only *lower*
    a measured ratio (it inflates whichever side the interruption lands
    on more), so the clock criterion passes if any attempt clears the
    floor and the failure report carries every attempt.  The hit rates
    and merge counters are deterministic — they are asserted on every
    attempt.
    """
    attempts = []
    for _ in range(3):
        numbers = measure_sharding(shard_count=SHARD_COUNT)
        assert numbers["single_skeleton_hit_rate"] >= SINGLE_HIT_RATE_FLOOR, (
            "the single executor's skeleton tier is being flooded: hit "
            f"rate {numbers['single_skeleton_hit_rate']:.2f} over one sweep"
        )
        assert numbers["sharded_skeleton_hit_rate"] >= SHARDED_HIT_RATE_FLOOR, (
            "the shard executors do not hold the working set: hit rate "
            f"{numbers['sharded_skeleton_hit_rate']:.2f} over one sweep"
        )
        # Early termination must cut the per-shard results consumed —
        # deterministic, so it holds on every attempt or the merge is
        # broken, not noisy.
        assert numbers["merge_consumed"] < numbers["merge_candidates"], (
            "streaming merge consumed every per-shard result: "
            f"{numbers['merge_consumed']:.0f} of "
            f"{numbers['merge_candidates']:.0f} (no early termination)"
        )
        assert numbers["merge_pruned"] >= 1, (
            "no shard stream was ever pruned against the k-th-score bound"
        )
        attempts.append(numbers)
        if numbers["speedup"] >= SPEEDUP_FLOOR:
            return
    summary = ", ".join(
        f"{n['speedup']:.2f}x (single {n['single_ms']:.1f} ms / "
        f"sharded {n['sharded_ms']:.1f} ms)"
        for n in attempts
    )
    raise AssertionError(
        f"sharded sweep slower than the single executor (floor "
        f"{SPEEDUP_FLOOR}x) in every attempt: {summary}"
    )
