"""Machine-readable perf-trajectory report (``BENCH_pr<N>.json``).

Times the three serving regimes of ``bench_x4_skeleton_reuse`` — cold /
skeleton-warm / fully-warm — plus the annotation microbench pair of
``bench_x5_annotation``, the cold-path trio of ``bench_x7_cold_path``
(legacy per-pattern build / batched array-swept build / snapshot
restore), the corpus-sharding pair of ``bench_x8_sharding`` (single
executor vs 4 shard executors over a corpus larger than one
executor's tiers, with each side's skeleton hit rate and the streaming
merge's early-termination counters), the update numbers
of ``bench_x9_updates`` (the edit itself, then the post-edit query under
delta maintenance vs the invalidation-storm cold rebuild), the memory pair of
``bench_x10_memory`` (the skeleton tier's columns vs the object graph they
replace, plus the mmap-vs-decode restore race), the fleet pair of ``bench_x11_fleet``
(peer-warmed first contact over HTTP vs the local cold build) and the
chaos numbers of ``bench_x12_chaos`` (degraded-mode p50 under a
one-shard outage, with the availability and recovery evidence), at one
or more data scales, and writes the latencies as JSON.  This is the artifact the CI
perf-smoke job uploads per commit, so the ROADMAP's "fast as the
hardware allows" goal has a recorded trajectory instead of docstring
folklore.

Run it directly (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_report.py \
        --scales 0 1 --pr 10 --out BENCH_pr10.json

Scale 0 is a degenerate near-empty database — it keeps the smoke run
fast and exercises the empty-document and zero-result edge paths.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import time
from pathlib import Path

from repro.bench.experiments import build_database
from repro.core.cache import QueryCache
from repro.core.engine import KeywordSearchEngine
from repro.workloads.params import ExperimentParams
from repro.workloads.views import view_for_params

# Disjoint keyword sets cycled by the skeleton-warm regime so the PDT
# tier (disabled anyway) could never serve an iteration.
KEYWORD_SETS = [
    ("thomas",),
    ("control",),
    ("search",),
    ("thomas", "control"),
    ("analysis",),
    ("control", "search"),
]


def _median_ms(fn, rounds: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2] * 1000.0


def _cold_ms(params: ExperimentParams, rounds: int) -> float:
    database = build_database(params)
    engine = KeywordSearchEngine(database, enable_cache=False)
    view = engine.define_view("bench", view_for_params(params))
    keywords = params.keywords()
    return _median_ms(
        lambda: engine.search(view, keywords, top_k=params.top_k), rounds
    )


def _skeleton_warm_ms(params: ExperimentParams, rounds: int) -> float:
    database = build_database(params)
    engine = KeywordSearchEngine(
        database, cache=QueryCache(pdt_capacity=0, prepared_capacity=0)
    )
    view = engine.define_view("bench", view_for_params(params))
    engine.search(view, params.keywords(), top_k=params.top_k)  # prime
    cycle = itertools.cycle(KEYWORD_SETS)
    return _median_ms(
        lambda: engine.search(view, next(cycle), top_k=params.top_k), rounds
    )


def _fully_warm_ms(params: ExperimentParams, rounds: int) -> float:
    database = build_database(params)
    engine = KeywordSearchEngine(database)
    view = engine.define_view("bench", view_for_params(params))
    keywords = params.keywords()
    engine.search(view, keywords, top_k=params.top_k)  # prime
    return _median_ms(
        lambda: engine.search(view, keywords, top_k=params.top_k), rounds
    )


def _annotation_us(rounds: int) -> dict[str, float]:
    """Median microseconds for the two annotation inner loops.

    Always measured at bench_x5's own configuration (scale 1, its
    keyword set) so the numbers are comparable across reports — the
    ``scale`` field in the output records this.
    """
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_x5_annotation import (
        PARAMS as X5_PARAMS,
        _merge_join,
        _per_node_bisect,
        _skeletons_and_lists,
    )

    skeletons, inv_lists = _skeletons_and_lists()

    def sweep():
        for doc, skeleton in skeletons.items():
            _merge_join(skeleton, inv_lists[doc])

    def bisect():
        for doc, skeleton in skeletons.items():
            _per_node_bisect(skeleton, inv_lists[doc])

    return {
        "scale": X5_PARAMS.data_scale,
        "merge_join_us": round(_median_ms(sweep, rounds) * 1000.0, 2),
        "per_node_bisect_us": round(_median_ms(bisect, rounds) * 1000.0, 2),
    }


def _cold_path_ms(params: ExperimentParams, rounds: int) -> dict[str, float]:
    """The bench_x7 trio at one scale: legacy / batched / snapshot restore.

    Delegates to :func:`repro.bench.experiments.measure_cold_path` —
    one measurement protocol shared with the X7 experiment table and the
    self-enforcing acceptance bench.
    """
    from repro.bench.experiments import measure_cold_path

    numbers = measure_cold_path(params, rounds)
    return {
        "legacy_cold_ms": round(numbers["legacy_ms"], 3),
        "batched_cold_ms": round(numbers["batched_ms"], 3),
        "speedup": round(numbers["speedup"], 2),
        "snapshot_restore_ms": round(numbers["snapshot_restore_ms"], 3),
    }


def _sharding_ms(rounds: int) -> dict[str, float]:
    """The bench_x8 pair: single executor vs 4 shard executors.

    Delegates to :func:`repro.bench.experiments.measure_sharding` — one
    measurement protocol shared with the X8 experiment table and the
    self-enforcing acceptance bench.  Always measured on bench_x8's own
    96-document corpus so the numbers are comparable across reports.
    """
    from repro.bench.experiments import measure_sharding

    numbers = measure_sharding(rounds=max(4, rounds // 6))
    return {
        "single_ms": round(numbers["single_ms"], 3),
        "sharded_ms": round(numbers["sharded_ms"], 3),
        "speedup": round(numbers["speedup"], 2),
        "single_skeleton_hit_rate": round(
            numbers["single_skeleton_hit_rate"], 3
        ),
        "sharded_skeleton_hit_rate": round(
            numbers["sharded_skeleton_hit_rate"], 3
        ),
        "merge_consumed": numbers["merge_consumed"],
        "merge_candidates": numbers["merge_candidates"],
        "merge_pruned": numbers["merge_pruned"],
    }


def _updates_ms(rounds: int) -> dict[str, float]:
    """The bench_x9 numbers: the edit itself, then the post-edit query,
    delta-maintained vs storm.

    Delegates to :func:`repro.bench.experiments.measure_updates` — one
    measurement protocol shared with the X9 experiment table and the
    self-enforcing acceptance bench.  Always measured on a fresh scale-1
    INEX database (updates mutate in place, so the shared build cache is
    never used) with the survival counters alongside the wall times.
    """
    from repro.bench.experiments import measure_updates

    numbers = measure_updates(rounds=max(4, rounds // 6))
    return {
        "edit_ms": round(numbers["edit_ms"], 3),
        "delta_ms": round(numbers["delta_ms"], 3),
        "storm_ms": round(numbers["storm_ms"], 3),
        "speedup": round(numbers["speedup"], 2),
        "delta_warm_rounds": numbers["delta_warm_rounds"],
        "delta_path_probes": numbers["delta_path_probes"],
        "storm_path_probes": numbers["storm_path_probes"],
        "delta_evaluated_misses": numbers["delta_evaluated_misses"],
        "delta_serialized_rounds": numbers["delta_serialized_rounds"],
    }


def _memory_numbers(rounds: int) -> dict[str, float]:
    """The bench_x10 pair: skeleton-tier columns vs the materialized
    object graph, and the mmap-vs-eager restore.

    Delegates to :func:`repro.bench.experiments.measure_memory` — one
    measurement protocol shared with the X10 experiment table and the
    self-enforcing acceptance bench.  Always measured on bench_x10's
    own repetitive 12-document corpus so the numbers are comparable
    across reports.
    """
    from repro.bench.experiments import measure_memory

    numbers = measure_memory(rounds=max(4, rounds // 6))
    return {
        "column_bytes": numbers["column_bytes"],
        "graph_bytes": numbers["graph_bytes"],
        "memory_reduction": round(numbers["memory_reduction"], 2),
        "eager_restore_ms": round(numbers["eager_restore_ms"], 3),
        "mmap_restore_ms": round(numbers["mmap_restore_ms"], 3),
        "restore_speedup": round(numbers["restore_speedup"], 2),
    }


def _fleet_numbers(rounds: int) -> dict[str, float]:
    """The bench_x11 pair: peer-warmed first contact vs local cold build.

    Delegates to :func:`repro.bench.experiments.measure_fleet` — one
    measurement protocol shared with the X11 experiment table and the
    self-enforcing acceptance bench.  Always measured on bench_x11's
    own 6-document corpus (items=768) so the numbers are comparable
    across reports.
    """
    from repro.bench.experiments import measure_fleet

    numbers = measure_fleet(rounds=max(4, rounds // 6))
    return {
        "cold_build_ms": round(numbers["cold_build_ms"], 3),
        "fleet_fetch_ms": round(numbers["fleet_fetch_ms"], 3),
        "speedup": round(numbers["speedup"], 2),
        "fetched": numbers["fetched"],
        "fetch_failed": numbers["fetch_failed"],
        "fell_back": numbers["fell_back"],
        "path_probes": numbers["path_probes"],
    }


def _chaos_numbers(rounds: int) -> dict[str, float]:
    """The bench_x12 numbers: degraded-mode serving under an outage.

    Delegates to :func:`repro.bench.experiments.measure_chaos` — one
    measurement protocol shared with the X12 experiment table and the
    self-enforcing acceptance bench.  Always measured on bench_x12's
    own 48-document / 4-shard deployment so the numbers are comparable
    across reports.
    """
    from repro.bench.experiments import measure_chaos

    numbers = measure_chaos(rounds=max(4, rounds // 6))
    return {
        "healthy_p50_ms": round(numbers["healthy_p50_ms"], 3),
        "degraded_p50_ms": round(numbers["degraded_p50_ms"], 3),
        "degraded_over_healthy": round(numbers["degraded_over_healthy"], 3),
        "availability": numbers["availability"],
        "untyped_errors": numbers["untyped_errors"],
        "quarantine_engaged": numbers["quarantine_engaged"],
        "recovered_identical": numbers["recovered_identical"],
        "injected_faults": numbers["injected_faults"],
    }


def build_report(scales: list[int], rounds: int, pr: int) -> dict:
    report: dict = {
        "pr": pr,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": rounds,
        "benchmarks": {},
        "cold_path": {},
    }
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        report["benchmarks"][f"scale_{scale}"] = {
            "cold_ms": round(_cold_ms(params, rounds), 3),
            "skeleton_warm_ms": round(_skeleton_warm_ms(params, rounds), 3),
            "fully_warm_ms": round(_fully_warm_ms(params, rounds), 3),
        }
        report["cold_path"][f"scale_{scale}"] = _cold_path_ms(params, rounds)
    # The annotation microbench only means something on real data; it
    # runs at bench_x5's fixed configuration (see _annotation_us).
    if any(scale >= 1 for scale in scales):
        report["annotation"] = _annotation_us(rounds)
    report["sharding"] = _sharding_ms(rounds)
    report["updates"] = _updates_ms(rounds)
    report["memory"] = _memory_numbers(rounds)
    report["fleet"] = _fleet_numbers(rounds)
    report["chaos"] = _chaos_numbers(rounds)
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scales", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--pr", type=int, default=10)
    parser.add_argument("--out", type=Path, default=Path("BENCH_pr10.json"))
    args = parser.parse_args()
    report = build_report(args.scales, args.rounds, args.pr)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for name, numbers in report["benchmarks"].items():
        print(f"  {name}: {numbers}")
    for name, numbers in report["cold_path"].items():
        print(f"  cold_path {name}: {numbers}")
    if "annotation" in report:
        print(f"  annotation: {report['annotation']}")
    print(f"  sharding: {report['sharding']}")
    print(f"  updates: {report['updates']}")
    print(f"  memory: {report['memory']}")
    print(f"  fleet: {report['fleet']}")
    print(f"  chaos: {report['chaos']}")


if __name__ == "__main__":
    main()
