"""The experiments of Section 5, one function per table/figure.

Every function returns an :class:`ExperimentTable` with the same series the
paper plots.  Databases are cached per configuration so sweeps that share a
dataset (keywords, joins, nesting, top-k) reuse one build.

Scale note: the paper's x-axis is 100..500MB on a C++ engine; ours is a
scale factor on the synthetic INEX generator running on a pure-Python
substrate.  The claims under test are *shape* claims — who wins, by
roughly what factor, what grows linearly — as recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.baselines.gtp import GTPEngine
from repro.baselines.naive import BaselineEngine
from repro.baselines.projection import project_serialized
from repro.bench.harness import ExperimentTable, timed
from repro.core.engine import KeywordSearchEngine
from repro.storage.database import XMLDatabase
from repro.workloads.inex import INEXConfig, generate_inex_database
from repro.workloads.params import (
    ExperimentParams,
    KEYWORDS_BY_SELECTIVITY,
    PARAMETER_TABLE,
)
from repro.workloads.views import view_for_params

_DB_CACHE: dict[tuple, XMLDatabase] = {}


def build_database(params: ExperimentParams) -> XMLDatabase:
    """The (cached) synthetic INEX database for a configuration."""
    key = (
        params.data_scale,
        params.element_size,
        round(params.join_selectivity, 3),
        params.seed,
    )
    database = _DB_CACHE.get(key)
    if database is None:
        database = generate_inex_database(
            INEXConfig(
                scale=params.data_scale,
                element_size=params.element_size,
                join_selectivity=params.join_selectivity,
                seed=params.seed,
            )
        )
        _DB_CACHE[key] = database
    return database


def clear_database_cache() -> None:
    _DB_CACHE.clear()


def build_engines(
    database: XMLDatabase,
) -> tuple[KeywordSearchEngine, BaselineEngine, GTPEngine]:
    # Query cache off throughout: the paper figures time the per-query
    # pipeline; repeated measurement runs must not hit warm-cache serving.
    return (
        KeywordSearchEngine(database, enable_cache=False),
        BaselineEngine(database),
        GTPEngine(database),
    )


def _efficient_time(
    params: ExperimentParams, repeats: int
) -> tuple[float, KeywordSearchEngine]:
    database = build_database(params)
    engine = KeywordSearchEngine(database, enable_cache=False)
    view = engine.define_view("bench", view_for_params(params))
    keywords = params.keywords()
    elapsed, _ = timed(
        lambda: engine.search(view, keywords, top_k=params.top_k), repeats
    )
    return elapsed, engine


def _breakdown_row(table: ExperimentTable, label, engine: KeywordSearchEngine,
                   total: float) -> None:
    timings = engine.last_timings
    table.add_row(
        label,
        pdt=timings.pdt,
        evaluator=timings.evaluator,
        post_processing=timings.post_processing,
        total=total,
    )


# -- Table 1 -------------------------------------------------------------------


def run_params_table() -> ExperimentTable:
    """Table 1: the experimental parameter grid (values and defaults)."""
    defaults = ExperimentParams()
    table = ExperimentTable(
        experiment_id="T1",
        title="Experimental parameters",
        parameter="parameter",
        columns=["values", "default"],
    )
    for name, values in PARAMETER_TABLE.items():
        table.add_row(
            name,
            values=", ".join(str(v) for v in values),
            default=str(getattr(defaults, name)),
        )
    return table


# -- Figure 13: varying size of data, all four systems ---------------------------


def run_fig13_data_size(
    scales: Optional[Sequence[int]] = None, repeats: int = 1
) -> ExperimentTable:
    """Figure 13: run time of Baseline/GTP/Proj/Efficient vs data size."""
    scales = list(scales or PARAMETER_TABLE["data_scale"])
    table = ExperimentTable(
        experiment_id="F13",
        title="Varying size of data (seconds)",
        parameter="scale",
        columns=["baseline", "gtp", "proj", "efficient"],
    )
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        database = build_database(params)
        view_text = view_for_params(params)
        keywords = params.keywords()

        efficient = KeywordSearchEngine(database, enable_cache=False)
        eview = efficient.define_view("bench", view_text)
        # materialize=True: Baseline and GTP expand every winner inside
        # their timed region, so the cross-system comparison must charge
        # Efficient for top-k materialization too (as the paper does).
        efficient_time, _ = timed(
            lambda: efficient.search(
                eview, keywords, top_k=params.top_k, materialize=True
            ),
            repeats,
        )

        baseline = BaselineEngine(database)
        bview = baseline.define_view("bench", view_text)
        baseline_time, _ = timed(
            lambda: baseline.search(bview, keywords, top_k=params.top_k), repeats
        )

        gtp = GTPEngine(database)
        gview = gtp.define_view("bench", view_text)
        gtp_time, _ = timed(
            lambda: gtp.search(gview, keywords, top_k=params.top_k), repeats
        )

        # Proj characterizes only the cost of generating the projected
        # documents (paper Section 5.2.1): a full parse-and-project scan
        # of each serialized document.
        serialized = {doc: database.get(doc).serialized for doc in eview.qpts}
        proj_time, _ = timed(
            lambda: [
                project_serialized(qpt, serialized[doc])
                for doc, qpt in eview.qpts.items()
            ],
            repeats,
        )

        table.add_row(
            scale,
            baseline=baseline_time,
            gtp=gtp_time,
            proj=proj_time,
            efficient=efficient_time,
        )
    table.note(
        "paper shape: Efficient is ~an order of magnitude faster than the "
        "alternatives and grows roughly linearly with data size"
    )
    return table


def run_fig13b_module_comparison(
    scales: Optional[Sequence[int]] = None, repeats: int = 1
) -> ExperimentTable:
    """F13b: module-to-module comparison underlying Figure 13's claims.

    The paper's GTP series times only its structural joins + base accesses,
    and its Proj series only projected-document generation; the directly
    comparable module on our side is PDT generation.  This table isolates
    that comparison (Section 4's ">10x faster than PROJ" claim).
    """
    scales = list(scales or PARAMETER_TABLE["data_scale"])
    table = ExperimentTable(
        experiment_id="F13b",
        title="Pruned-document generation cost per strategy (seconds)",
        parameter="scale",
        columns=["gtp_joins", "proj_generation", "pdt_generation"],
    )
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        database = build_database(params)
        view_text = view_for_params(params)
        keywords = params.keywords()

        efficient = KeywordSearchEngine(database, enable_cache=False)
        eview = efficient.define_view("bench", view_text)
        timed(lambda: efficient.search(eview, keywords, top_k=params.top_k), repeats)
        pdt_time = efficient.last_timings.pdt

        gtp = GTPEngine(database)
        gview = gtp.define_view("bench", view_text)
        timed(lambda: gtp.search(gview, keywords, top_k=params.top_k), repeats)
        gtp_join_time = gtp.last_timings.pdt

        serialized = {doc: database.get(doc).serialized for doc in eview.qpts}
        proj_time, _ = timed(
            lambda: [
                project_serialized(qpt, serialized[doc])
                for doc, qpt in eview.qpts.items()
            ],
            repeats,
        )
        table.add_row(
            scale,
            gtp_joins=gtp_join_time,
            proj_generation=proj_time,
            pdt_generation=pdt_time,
        )
    table.note(
        "paper shape: index-only PDT generation beats structural joins and "
        "full-scan projection by roughly an order of magnitude"
    )
    return table


# -- Figure 14: module cost breakdown ---------------------------------------------


def run_fig14_module_cost(
    scales: Optional[Sequence[int]] = None, repeats: int = 1
) -> ExperimentTable:
    """Figure 14: PDT / Evaluator / Post-processing overhead vs data size."""
    scales = list(scales or PARAMETER_TABLE["data_scale"])
    table = ExperimentTable(
        experiment_id="F14",
        title="Cost of modules (seconds)",
        parameter="scale",
        columns=["pdt", "evaluator", "post_processing", "total"],
    )
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        elapsed, engine = _efficient_time(params, repeats)
        _breakdown_row(table, scale, engine, elapsed)
    table.note(
        "paper shape: PDT cost scales gracefully; the evaluator dominates as "
        "data grows; post-processing is negligible"
    )
    return table


# -- Figures 15-20: one-parameter sweeps -----------------------------------------


def _sweep(
    experiment_id: str,
    title: str,
    parameter: str,
    values: Iterable,
    repeats: int = 1,
) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=experiment_id,
        title=title,
        parameter=parameter,
        columns=["pdt", "evaluator", "post_processing", "total"],
    )
    for value in values:
        params = ExperimentParams().with_(**{parameter: value})
        elapsed, engine = _efficient_time(params, repeats)
        _breakdown_row(table, value, engine, elapsed)
    return table


def run_fig15_num_keywords(repeats: int = 1) -> ExperimentTable:
    """Figure 15: varying the number of keywords (1-5)."""
    table = _sweep(
        "F15",
        "Varying # of keywords (seconds)",
        "num_keywords",
        PARAMETER_TABLE["num_keywords"],
        repeats,
    )
    table.note("paper shape: mild growth — more inverted lists to read")
    return table


def run_fig16_keyword_selectivity(repeats: int = 1) -> ExperimentTable:
    """Figure 16: varying keyword selectivity (low/medium/high)."""
    table = _sweep(
        "F16",
        "Varying selectivity of keywords (seconds)",
        "keyword_selectivity",
        PARAMETER_TABLE["keyword_selectivity"],
        repeats,
    )
    table.note(
        "paper shape: run time increases slightly as selectivity decreases "
        "(longer inverted lists; 'low' = frequent terms)"
    )
    return table


def run_fig17_num_joins(repeats: int = 1) -> ExperimentTable:
    """Figure 17: varying the number of value joins (0-4)."""
    table = _sweep(
        "F17",
        "Varying # of joins (seconds)",
        "num_joins",
        PARAMETER_TABLE["num_joins"],
        repeats,
    )
    table.note(
        "paper shape: grows with joins; the largest step is 0 -> 1 (a second "
        "PDT plus a value join instead of a selection)"
    )
    return table


def run_fig18_join_selectivity(repeats: int = 1) -> ExperimentTable:
    """Figure 18: varying join selectivity (1X .. 0.1X)."""
    table = _sweep(
        "F18",
        "Varying the selectivity of joins (seconds)",
        "join_selectivity",
        PARAMETER_TABLE["join_selectivity"],
        repeats,
    )
    table.note("paper shape: mild growth as the selectivity decreases")
    return table


def run_fig19_nesting(repeats: int = 1) -> ExperimentTable:
    """Figure 19: varying the level of nestings (1-4)."""
    table = _sweep(
        "F19",
        "Varying the level of nestings (seconds)",
        "nesting_level",
        PARAMETER_TABLE["nesting_level"],
        repeats,
    )
    table.note(
        "paper shape: roughly linear in nesting level, evaluator share grows "
        "fastest"
    )
    return table


def run_fig20_topk(repeats: int = 1) -> ExperimentTable:
    """Figure 20: varying the number of results (K in top-K)."""
    table = _sweep(
        "F20",
        "Varying the number of results (seconds)",
        "top_k",
        PARAMETER_TABLE["top_k"],
        repeats,
    )
    table.note(
        "paper shape: flat — materializing extra winners is nearly free"
    )
    return table


# -- Section 5.2.3 'other results' -------------------------------------------------


def run_x1_element_size(repeats: int = 1) -> ExperimentTable:
    """X1: varying the average size of view elements (1X-5X)."""
    table = _sweep(
        "X1",
        "Varying avg. size of view elements (seconds)",
        "element_size",
        PARAMETER_TABLE["element_size"],
        repeats,
    )
    table.note(
        "paper shape: efficient and scalable as element size grows (content "
        "is pruned, so only index lists grow)"
    )
    return table


def run_x2_pdt_size(
    scales: Optional[Sequence[int]] = None,
) -> ExperimentTable:
    """X2: PDT size vs data size (pruning effectiveness; paper: ~2MB of 500MB)."""
    scales = list(scales or PARAMETER_TABLE["data_scale"])
    table = ExperimentTable(
        experiment_id="X2",
        title="PDT size vs data size (element counts)",
        parameter="scale",
        columns=["data_elements", "pdt_elements", "ratio_percent"],
    )
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        database = build_database(params)
        engine = KeywordSearchEngine(database, enable_cache=False)
        view = engine.define_view("bench", view_for_params(params))
        outcome = engine.search_detailed(
            view, params.keywords(), top_k=params.top_k
        )
        data_elements = sum(
            len(database.get(doc).store) for doc in view.qpts
        )
        pdt_elements = sum(p.node_count for p in outcome.pdts.values())
        table.add_row(
            scale,
            data_elements=data_elements,
            pdt_elements=pdt_elements,
            ratio_percent=100.0 * pdt_elements / data_elements,
        )
    table.note("paper shape: PDTs are a small fraction of the base data")
    return table


def measure_cold_path(
    params: ExperimentParams, rounds: int = 40
) -> dict[str, float]:
    """The cold-path trio at one parameter point, in milliseconds.

    ``legacy_ms`` / ``batched_ms``: one full cold ``build_skeleton``
    pass over the bench view's documents for the frozen pre-overhaul
    per-pattern path (:mod:`repro.core.pdt_legacy`) and the shipped
    batched/array-swept path — interleaved so CPU-frequency drift hits
    both sides equally, garbage collector paused, reported as the
    minimum (the :func:`repro.bench.harness.timed` statistic).
    ``snapshot_restore_ms``: restoring the same skeletons from a
    :class:`repro.core.snapshot.SkeletonStore` snapshot.  The single
    measurement protocol behind ``run_x7_cold_path``, the
    ``bench_report.py`` artifact and ``bench_x7_cold_path.py``'s
    acceptance check.
    """
    import gc
    import tempfile
    import time as _time

    from repro.core.pdt import build_skeleton
    from repro.core.pdt_legacy import legacy_build_skeleton
    from repro.core.snapshot import SkeletonStore

    database = build_database(params)
    engine = KeywordSearchEngine(database, enable_cache=False)
    view = engine.define_view("bench", view_for_params(params))

    def cold(build):
        # Both sides end with the shared tree the first query needs (the
        # legacy finalization builds it eagerly, the columns on demand).
        for doc_name in view.document_names:
            build(view.qpts[doc_name], database.get(doc_name).path_index).tree

    for _ in range(3):
        cold(build_skeleton)
        cold(legacy_build_skeleton)
    batched_samples: list[float] = []
    legacy_samples: list[float] = []
    restore_samples: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            start = _time.perf_counter()
            cold(build_skeleton)
            batched_samples.append(_time.perf_counter() - start)
            start = _time.perf_counter()
            cold(legacy_build_skeleton)
            legacy_samples.append(_time.perf_counter() - start)
        with tempfile.TemporaryDirectory() as tmp:
            store = SkeletonStore(tmp)
            pairs = []
            for doc_name in view.document_names:
                indexed = database.get(doc_name)
                qpt = view.qpts[doc_name]
                store.save(
                    indexed.fingerprint,
                    qpt.content_hash,
                    build_skeleton(qpt, indexed.path_index),
                )
                pairs.append((indexed.fingerprint, qpt.content_hash))
            for _ in range(rounds):
                start = _time.perf_counter()
                for fingerprint, qpt_hash in pairs:
                    store.load(fingerprint, qpt_hash).tree
                restore_samples.append(_time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    legacy_ms = min(legacy_samples) * 1000.0
    batched_ms = min(batched_samples) * 1000.0
    return {
        "legacy_ms": legacy_ms,
        "batched_ms": batched_ms,
        "speedup": legacy_ms / batched_ms if batched_ms else float("inf"),
        "snapshot_restore_ms": min(restore_samples) * 1000.0,
    }


def run_x7_cold_path(
    scales: Optional[Sequence[int]] = None, repeats: int = 1
) -> ExperimentTable:
    """X7: the cold-path overhaul — legacy vs batched builds, snapshot
    restore (see :func:`measure_cold_path` for the protocol).

    The self-enforcing ≥3x acceptance check at scale 1 lives in
    ``benchmarks/bench_x7_cold_path.py``; this table records the
    trajectory across scales.
    """
    scales = list(scales or [1, 2])
    rounds = max(20, 20 * repeats)
    table = ExperimentTable(
        experiment_id="X7",
        title="Cold-path overhaul (milliseconds per cold skeleton set)",
        parameter="scale",
        columns=["legacy_ms", "batched_ms", "speedup", "snapshot_restore_ms"],
    )
    for scale in scales:
        numbers = measure_cold_path(
            ExperimentParams(data_scale=scale), rounds
        )
        table.add_row(scale, **numbers)
    table.note(
        "acceptance floor: batched >= 3x legacy at scale 1 "
        "(self-enforced by benchmarks/bench_x7_cold_path.py)"
    )
    return table


def _sharding_corpus(
    doc_count: int = 96, seed: int = 7
) -> tuple[dict[str, str], str, list[tuple[str, ...]]]:
    """Documents, a per-document-fragment view and cycled keyword sets.

    Sized to separate the two deployments by *cache capacity*, which is
    what corpus sharding actually buys on one machine: ``doc_count``
    ``(view, doc)`` skeleton keys swept in the same order by every query
    against the single engine's 64-entry skeleton tier (8 slots per
    cache shard).  The tier's scan-resistant eviction keeps it full and
    serving — 64 of 96 lookups hit — but a third of the documents are
    rebuilt by every query, while each of four shard executors owns
    ``doc_count / 4`` keys, comfortably inside its own tier.  Keyword
    sets are cycled so the PDT tier cannot mask the skeleton tier: the
    single engine's ``doc_count x len(sets)`` PDT keys overflow its
    128-entry tier too, while a shard's slice fits.
    """
    import random as _random

    rng = _random.Random(seed)
    topics = [
        "xml", "query", "index", "search", "ranking", "views",
        "dewey", "cache", "stream", "shard", "keyword", "join",
    ]
    documents: dict[str, str] = {}
    for number in range(doc_count):
        books = []
        for _ in range(rng.randint(4, 8)):
            hot = rng.choice(topics)
            words = [rng.choice(topics) for _ in range(rng.randint(6, 30))]
            words += [hot] * rng.randint(0, 6)
            rng.shuffle(words)
            title = " ".join(rng.choice(topics) for _ in range(3))
            books.append(
                f"<book><title>{title}</title>"
                f"<body>{' '.join(words)}</body></book>"
            )
        documents[f"doc{number:03d}"] = f"<lib>{''.join(books)}</lib>"
    fragments = [
        f"(for $b in fn:doc({name})//book "
        f"return <hit>{{$b/title}}{{$b/body}}</hit>)"
        for name in sorted(documents)
    ]
    view_text = "(" + ",\n".join(fragments) + ")"
    keyword_sets: list[tuple[str, ...]] = [
        ("xml",),
        ("query", "index"),
        ("search",),
        ("ranking", "views"),
    ]
    return documents, view_text, keyword_sets


def measure_sharding(
    doc_count: int = 96,
    shard_count: int = 4,
    rounds: int = 8,
    top_k: int = 5,
) -> dict[str, float]:
    """Scatter-gather over shard executors vs one engine, in milliseconds.

    One sample is a full keyword-cycle sweep (every keyword set once).
    Both deployments are pre-warmed and measured interleaved with the
    garbage collector paused, minimum statistic — the protocol of
    :func:`measure_cold_path`.  Alongside the wall times the dict
    carries two kinds of deterministic evidence, both read over one
    further sweep: each deployment's skeleton-tier hit rate
    (``single_skeleton_hit_rate`` / ``sharded_skeleton_hit_rate`` —
    what N executors buy is N times the aggregate tier capacity, and
    this is where it shows), and the streaming merge's counters
    (``merge_candidates`` / ``merge_consumed`` / ``merge_pruned``), so
    the self-enforcing bench can check early termination actually cut
    the per-shard results consumed, not just that the clock was kind.
    """
    import gc
    import time as _time

    from repro.core.ingest import ingest_corpus

    documents, view_text, keyword_sets = _sharding_corpus(doc_count)

    database = XMLDatabase()
    for name in sorted(documents):
        database.load_document(name, documents[name])
    single = KeywordSearchEngine(database)
    view = single.define_view("v", view_text)
    single.warm_view(view)

    coordinator, _ = ingest_corpus(
        documents, {"v": view_text}, shard_count=shard_count
    )

    def single_sweep() -> None:
        for keywords in keyword_sets:
            single.search(view, keywords, top_k=top_k)

    def sharded_sweep() -> None:
        for keywords in keyword_sets:
            coordinator.search("v", keywords, top_k=top_k)

    def skeleton_traffic(engines) -> tuple[int, int]:
        tiers = [engine.cache.skeletons.stats for engine in engines]
        return (
            sum(tier.hits for tier in tiers),
            sum(tier.lookups for tier in tiers),
        )

    shard_engines = [executor.engine for executor in coordinator.executors]

    try:
        # Steady state: both sides have served every keyword set once.
        single_sweep()
        sharded_sweep()
        single_samples: list[float] = []
        sharded_samples: list[float] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(rounds):
                start = _time.perf_counter()
                single_sweep()
                single_samples.append(_time.perf_counter() - start)
                start = _time.perf_counter()
                sharded_sweep()
                sharded_samples.append(_time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()
        hits, lookups = skeleton_traffic([single])
        single_sweep()
        after_hits, after_lookups = skeleton_traffic([single])
        single_hit_rate = (after_hits - hits) / (after_lookups - lookups)
        hits, lookups = skeleton_traffic(shard_engines)
        candidates = consumed = pruned = 0
        for keywords in keyword_sets:
            outcome = coordinator.search_detailed(
                "v", keywords, top_k=top_k
            )
            candidates += outcome.merge_stats.candidates
            consumed += outcome.merge_stats.consumed
            pruned += outcome.merge_stats.pruned
        after_hits, after_lookups = skeleton_traffic(shard_engines)
        sharded_hit_rate = (after_hits - hits) / (after_lookups - lookups)
    finally:
        coordinator.close()
    single_ms = min(single_samples) * 1000.0
    sharded_ms = min(sharded_samples) * 1000.0
    return {
        "single_ms": single_ms,
        "sharded_ms": sharded_ms,
        "speedup": single_ms / sharded_ms if sharded_ms else float("inf"),
        "single_skeleton_hit_rate": single_hit_rate,
        "sharded_skeleton_hit_rate": sharded_hit_rate,
        "merge_candidates": float(candidates),
        "merge_consumed": float(consumed),
        "merge_pruned": float(pruned),
    }


def run_x8_sharding(repeats: int = 1) -> ExperimentTable:
    """X8: corpus sharding — per-shard executors + streaming top-k merge.

    The self-enforcing acceptance check at 4 shards lives in
    ``benchmarks/bench_x8_sharding.py``; this table records the
    trajectory across shard counts (1 is the degenerate case: one
    executor with the same cache budget as the single engine, so its
    row shows the coordinator's overhead and the same hit rate).
    """
    rounds = max(6, 6 * repeats)
    table = ExperimentTable(
        experiment_id="X8",
        title="Corpus sharding (ms per keyword-cycle sweep, 96 documents)",
        parameter="shards",
        columns=[
            "single_ms",
            "sharded_ms",
            "speedup",
            "single_skeleton_hit_rate",
            "sharded_skeleton_hit_rate",
            "merge_consumed",
            "merge_candidates",
            "merge_pruned",
        ],
    )
    for shard_count in (1, 2, 4):
        numbers = measure_sharding(shard_count=shard_count, rounds=rounds)
        table.add_row(shard_count, **numbers)
    table.note(
        "acceptance: 4 shards hold the whole working set (skeleton hit "
        "rate >= 0.95 vs >= 0.6 on one executor) and are no slower than "
        "the single executor, with the streaming merge consuming fewer "
        "results than the shards offered "
        "(self-enforced by benchmarks/bench_x8_sharding.py)"
    )
    return table


def measure_updates(
    scale: int = 1,
    rounds: int = 8,
    top_k: int = 5,
) -> dict[str, float]:
    """One small subtree edit: delta maintenance vs the invalidation storm.

    Two engines share ONE freshly generated INEX database — never the
    ``_DB_CACHE`` copy, because updates mutate the database in place and
    would poison every other experiment's cached build:

    * **delta** — the default engine: the update hook migrates patchable
      skeletons across the generation bump and re-warms the view;
    * **storm** — the same engine with its update hook detached:
      correctness comes from the generation-keyed self-invalidation
      alone, so every edit strands the entire cached state and the next
      query pays the full cold build (the pre-delta write-path behavior).

    Each round applies one patchable edit (alternating insert/delete of a
    ``<zaux>`` aside under the articles root — a tag no view references),
    timed as ``edit_ms`` (storage surgery plus the delta engine's hook,
    snapshot forwarding included: the delta engine runs on a snapshot
    store, so the edit pays everything a serving deployment's does),
    resets the probe counters, and times the next query on each engine.
    Minimum statistic over interleaved rounds with the garbage collector
    paused.  Alongside the wall times the dict reports what survived, as
    counts that repeat exactly: warm-tier hit rounds and path-index
    probes per side, the evaluated-tier misses the delta rounds added
    (zero: the entry is migrated, never re-evaluated) and the rounds
    after which the edited document had been serialized (zero: the
    fingerprint is maintained, never recomputed from text) — so the
    self-enforcing bench can assert the speedup came from surviving
    cache tiers and an O(touched) edit, not a kind clock.
    """
    import gc
    import tempfile
    import time as _time

    from repro.core.snapshot import SkeletonStore
    from repro.workloads.views import authors_articles_view

    database = generate_inex_database(INEXConfig(scale=scale))
    view_text = authors_articles_view()
    keywords = KEYWORDS_BY_SELECTIVITY["medium"]

    snapshot_dir = tempfile.TemporaryDirectory(prefix="x9-snapshots-")
    delta_engine = KeywordSearchEngine(
        database, snapshot_store=SkeletonStore(snapshot_dir.name)
    )
    delta_view = delta_engine.define_view("v", view_text)
    storm_engine = KeywordSearchEngine(database)
    database.remove_update_hook(storm_engine._on_document_update)
    storm_view = storm_engine.define_view("v", view_text)

    delta_engine.search(delta_view, keywords, top_k=top_k)
    storm_engine.search(storm_view, keywords, top_k=top_k)

    def path_probes() -> int:
        return sum(
            database.get(name).path_index.probe_count
            for name in database.document_names()
        )

    articles = database.get("articles.xml")
    root_id = articles.document.root.dewey
    edit_samples: list[float] = []
    delta_samples: list[float] = []
    storm_samples: list[float] = []
    delta_warm_rounds = storm_miss_rounds = 0
    delta_probes = storm_probes = 0
    serialized_rounds = 0
    evaluated_misses = delta_engine.cache.stats()["evaluated"]["misses"]
    inserted = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            start = _time.perf_counter()
            if inserted is None:
                edit = database.insert_subtree(
                    "articles.xml", root_id, "<zaux>editorial aside</zaux>"
                )
                inserted = edit.edit_id
            else:
                database.delete_subtree("articles.xml", inserted)
                inserted = None
            edit_samples.append(_time.perf_counter() - start)
            serialized_rounds += articles._serialized is not None
            database.reset_access_counters()
            start = _time.perf_counter()
            delta_out = delta_engine.search_detailed(
                delta_view, keywords, top_k=top_k
            )
            delta_samples.append(_time.perf_counter() - start)
            delta_probes += path_probes()
            if delta_out.evaluated_hit or delta_out.cache_hits.get(
                "articles.xml"
            ) in ("pdt", "skeleton", "snapshot"):
                delta_warm_rounds += 1
            database.reset_access_counters()
            start = _time.perf_counter()
            storm_out = storm_engine.search_detailed(
                storm_view, keywords, top_k=top_k
            )
            storm_samples.append(_time.perf_counter() - start)
            storm_probes += path_probes()
            if storm_out.cache_hits.get("articles.xml") == "miss":
                storm_miss_rounds += 1
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
        snapshot_dir.cleanup()
    evaluated_misses = (
        delta_engine.cache.stats()["evaluated"]["misses"] - evaluated_misses
    )
    delta_ms = min(delta_samples) * 1000.0
    storm_ms = min(storm_samples) * 1000.0
    return {
        "edit_ms": min(edit_samples) * 1000.0,
        "delta_ms": delta_ms,
        "storm_ms": storm_ms,
        "speedup": storm_ms / delta_ms if delta_ms else float("inf"),
        "delta_warm_rounds": float(delta_warm_rounds),
        "storm_miss_rounds": float(storm_miss_rounds),
        "delta_path_probes": float(delta_probes),
        "storm_path_probes": float(storm_probes),
        "delta_evaluated_misses": float(evaluated_misses),
        "delta_serialized_rounds": float(serialized_rounds),
        "rounds": float(rounds),
    }


def run_x9_updates(repeats: int = 1) -> ExperimentTable:
    """X9: sub-document updates — delta maintenance vs invalidation storm.

    The self-enforcing ≥5x acceptance check lives in
    ``benchmarks/bench_x9_updates.py``; this table records the gap at two
    database scales.
    """
    rounds = max(6, 6 * repeats)
    table = ExperimentTable(
        experiment_id="X9",
        title="Sub-document updates (ms per edit / per post-edit query)",
        parameter="scale",
        columns=[
            "edit_ms",
            "delta_ms",
            "storm_ms",
            "speedup",
            "delta_warm_rounds",
            "storm_miss_rounds",
            "delta_path_probes",
            "storm_path_probes",
            "delta_evaluated_misses",
            "delta_serialized_rounds",
            "rounds",
        ],
    )
    for scale in (1, 2):
        numbers = measure_updates(scale=scale, rounds=rounds)
        table.add_row(scale, **numbers)
    table.note(
        "acceptance floor: after one patchable subtree edit the "
        "delta-maintained engine answers >= 5x faster than the "
        "storm baseline's cold rebuild, with zero path-index probes, "
        "zero new evaluated-tier misses and the document never "
        "serialized (self-enforced by benchmarks/bench_x9_updates.py)"
    )
    return table


def _repetitive_corpus(
    doc_count: int, items: int, pool: Sequence[str]
) -> dict[str, str]:
    """``doc_count`` structurally identical feed documents.

    Every document carries the same ``<feed><entry>...`` element tree —
    only the text values differ per document — which is the shape a
    syndicated corpus's per-source mirrors have (and the one sharing
    structure across skeletons would gain most on: see README,
    *Memory*).  Every document contains every keyword of
    ``pool``, so rotating the probe keyword never short-circuits the
    annotation path.
    """
    docs: dict[str, str] = {}
    for d in range(doc_count):
        parts = ["<feed>"]
        for i in range(items):
            word = pool[i % len(pool)]
            partner = pool[(i + d) % len(pool)]
            parts.append(
                "<entry>"
                f"<title>{word} brief {d}-{i}</title>"
                f"<body>{partner} article text {d * items + i}</body>"
                "</entry>"
            )
        parts.append("</feed>")
        docs[f"feed{d:02d}.xml"] = "".join(parts)
    return docs


def _feed_view(name: str) -> str:
    return (
        f"for $e in fn:doc({name})/feed/entry\n"
        "return <hit>{ $e/title }</hit>"
    )


def deep_sizeof(roots: tuple) -> int:
    """Estimate the resident bytes of an object graph (id-deduplicated).

    Walks the containers and model objects a materialized skeleton owns
    — record table, decoded ids, tree; shared sub-objects (interned
    strings, shared tuples) are counted once.  The reference the
    skeleton tier's arithmetic ``memory_bytes`` gauge is held to, and
    the size of the eager object graph its columns replaced.
    """
    import sys

    from repro.core.pdt import PDTRecord
    from repro.dewey import DeweyID
    from repro.xmlmodel.node import NodeAnnotations, XMLNode

    getsizeof = sys.getsizeof
    seen: set[int] = set()
    total = 0
    stack: list = list(roots)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        total += getsizeof(obj)
        if type(obj) is dict:
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif type(obj) in (tuple, list, set, frozenset):
            stack.extend(obj)
        elif type(obj) is PDTRecord:
            stack += (obj.key, obj.tag, obj.value)
        elif type(obj) is XMLNode:
            stack += (obj.tag, obj.text, obj.children, obj.anno)
        elif type(obj) is NodeAnnotations:
            stack += (obj.dewey, obj.term_frequencies, obj.doc)
        elif type(obj) is DeweyID:
            stack += (obj.components, obj._packed)
    return total


def eager_graph_bytes(graph) -> int:
    """:func:`deep_sizeof` of everything a
    :class:`repro.core.pdt_legacy.LegacySkeleton` holds — what a
    skeleton-tier entry was before it was columns."""
    return deep_sizeof(
        (
            graph.records,
            graph.ordered,
            graph.dewey_ids,
            graph.parents,
            graph.slots,
            graph.bounds,
            graph.slot_bounds,
            graph.tree,
        )
    )


def measure_memory(
    doc_count: int = 12,
    items: int = 48,
    rounds: int = 6,
    top_k: int = 5,
) -> dict[str, float]:
    """The columnar skeleton tier and mmap snapshots, on one repetitive
    corpus (:func:`_repetitive_corpus`).

    * **memory** — the skeleton tier's ``memory_bytes`` (every column of
      every skeleton; nothing is shared, so nothing is left out)
      against :func:`deep_sizeof` of the materialized object graph the
      columns replace: per skeleton the record table, decoded ids,
      parent/slot arrays, bounds and the assembled tree, as
      :mod:`repro.core.pdt_legacy`'s finalization still builds them;
    * **restore** — loading every snapshot of the corpus through
      ``SkeletonStore(mmap_mode=True)`` (header-validated page mapping)
      against the eager decode-everything load.

    Alongside, the deterministic evidence: exact ranked-outcome equality
    between the tier-backed engine and a cache-free one, and byte
    equality between the mapped and eager restore payloads — the
    self-enforcing bench asserts these on every attempt.
    """
    import gc
    import tempfile
    import time as _time
    from pathlib import Path

    from repro.core.pdt_legacy import legacy_build_skeleton
    from repro.core.snapshot import SkeletonStore

    pool = [f"mem{i:02d}" for i in range(max(rounds + 3, 8))]
    docs = _repetitive_corpus(doc_count, items, pool)
    names = sorted(docs)
    database = XMLDatabase()
    for name in names:
        database.load_document(name, docs[name])

    with tempfile.TemporaryDirectory() as raw:
        store_root = Path(raw) / "snapshots"
        engine = KeywordSearchEngine(
            database, snapshot_store=SkeletonStore(store_root)
        )
        rebuilding = KeywordSearchEngine(database, enable_cache=False)
        identical = 1.0
        graph_bytes = 0
        entries = []
        for i, name in enumerate(names):
            view = engine.define_view(f"v{i}", _feed_view(name))
            engine.warm_view(view)
            reference = rebuilding.define_view(f"v{i}", _feed_view(name))
            # Exact ranked-outcome equality — sizing a wrong answer
            # means nothing.
            if [
                (r.rank, r.score, r.scored.index)
                for r in engine.search(view, pool[:2], top_k=top_k)
            ] != [
                (r.rank, r.score, r.scored.index)
                for r in rebuilding.search(reference, pool[:2], top_k=top_k)
            ]:
                identical = 0.0
            indexed = database.get(name)
            graph_bytes += eager_graph_bytes(
                legacy_build_skeleton(view.qpts[name], indexed.path_index)
            )
            entries.append((indexed.fingerprint, view.qpts[name].content_hash))
        column_bytes = engine.cache.skeletons.memory_bytes

        eager_store = SkeletonStore(store_root)
        mapped_store = SkeletonStore(store_root, mmap_mode=True)
        bit_identical = 1.0
        for fingerprint, qpt_hash in entries:
            eager_skel = eager_store.load(fingerprint, qpt_hash)
            mapped_skel = mapped_store.load(fingerprint, qpt_hash)
            if (
                eager_skel is None
                or mapped_skel is None
                or eager_skel.to_bytes() != mapped_skel.to_bytes()
            ):
                bit_identical = 0.0
        eager_restore: list[float] = []
        mapped_restore: list[float] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(rounds):
                start = _time.perf_counter()
                for fingerprint, qpt_hash in entries:
                    eager_store.load(fingerprint, qpt_hash)
                eager_restore.append(_time.perf_counter() - start)
                start = _time.perf_counter()
                for fingerprint, qpt_hash in entries:
                    mapped_store.load(fingerprint, qpt_hash).close()
                mapped_restore.append(_time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()

    eager_restore_ms = min(eager_restore) * 1000.0
    mapped_restore_ms = min(mapped_restore) * 1000.0
    return {
        "column_bytes": float(column_bytes),
        "graph_bytes": float(graph_bytes),
        "memory_reduction": (
            graph_bytes / column_bytes if column_bytes else float("inf")
        ),
        "eager_restore_ms": eager_restore_ms,
        "mmap_restore_ms": mapped_restore_ms,
        "restore_speedup": (
            eager_restore_ms / mapped_restore_ms
            if mapped_restore_ms
            else float("inf")
        ),
        "skeletons": float(len(entries)),
        "identical_results": identical,
        "snapshot_bit_identical": bit_identical,
    }


def run_x10_memory(repeats: int = 1) -> ExperimentTable:
    """X10: memory at scale — columnar skeletons and zero-copy restores.

    The self-enforcing floors (≥3x fewer bytes than the object graph the
    columns replace, tier bytes within 5% of the last DAG-compressed
    figure, mmap restore ≥2x) live in
    ``benchmarks/bench_x10_memory.py``; this table records the gap at
    two corpus widths.
    """
    rounds = max(5, 5 * repeats)
    table = ExperimentTable(
        experiment_id="X10",
        title="Memory at scale (skeleton tier bytes, restore ms)",
        parameter="doc_count",
        columns=[
            "column_bytes",
            "graph_bytes",
            "memory_reduction",
            "eager_restore_ms",
            "mmap_restore_ms",
            "restore_speedup",
            "skeletons",
            "identical_results",
            "snapshot_bit_identical",
        ],
    )
    for doc_count in (8, 16):
        numbers = measure_memory(doc_count=doc_count, rounds=rounds)
        table.add_row(doc_count, **numbers)
    table.note(
        "acceptance floors: the skeleton tier's columns take >= 3x fewer "
        "bytes than the materialized object graph on the repetitive "
        "corpus, mmap restore >= 2x faster than the eager decode "
        "(self-enforced by benchmarks/bench_x10_memory.py)"
    )
    return table


def measure_fleet(
    doc_count: int = 6,
    items: int = 768,
    rounds: int = 6,
    top_k: int = 5,
) -> dict[str, float]:
    """Peer-warmed first contact vs the local cold build, in milliseconds.

    The unit under test is skeleton *acquisition* — the only part of
    first contact the networked tier changes (the protocol of
    :func:`measure_cold_path`, across hosts):

    * **cold_build_ms** — one full ``build_skeleton`` pass over the
      corpus views' documents from the path indexes;
    * **fleet_fetch_ms** — the same skeleton set acquired through a
      :class:`~repro.core.snapshot_net.NetworkedSkeletonStore` with a
      *fresh, empty* local directory each round: every load misses
      locally, fetches the v2 wire bytes over HTTP from a live peer
      process' serving endpoint, validates, writes through and serves
      the mmap-mode restore.

    Both sides are measured interleaved with the garbage collector
    paused, minimum statistic.  Alongside the wall times the dict
    carries deterministic evidence that the fast path really was the
    network path: the fetch counters (``fetched`` must equal targets x
    sweeps with zero ``fetch_failed`` / ``fell_back``), a full
    engine-level warm-up through the networked store (every target
    ``"snapshot"``, **zero** path-index probes) and exact
    ranked-outcome equality between the peer-warmed engine and the
    peer itself.
    """
    import gc
    import tempfile
    import time as _time
    from pathlib import Path

    from repro.core.pdt import build_skeleton
    from repro.core.snapshot import SkeletonStore
    from repro.core.snapshot_net import (
        HTTPSnapshotPeer,
        NetworkedSkeletonStore,
    )
    from repro.serving import BackgroundHTTPServing, ServerConfig

    pool = [f"fleet{i:02d}" for i in range(8)]
    docs = _repetitive_corpus(doc_count, items, pool)
    names = sorted(docs)

    def fresh_database() -> XMLDatabase:
        database = XMLDatabase()
        for name in names:
            database.load_document(name, docs[name])
        return database

    with tempfile.TemporaryDirectory() as raw:
        tmp = Path(raw)
        # The warm peer: cold-builds once, persists every skeleton,
        # serves /snapshots/<key> over its HTTP endpoint.
        peer_engine = KeywordSearchEngine(
            fresh_database(), snapshot_store=SkeletonStore(tmp / "peer")
        )
        peer_views = [
            peer_engine.define_view(f"v{i}", _feed_view(name))
            for i, name in enumerate(names)
        ]
        for view in peer_views:
            peer_engine.warm_view(view)
        serving = BackgroundHTTPServing(
            peer_engine, ServerConfig(workers=2)
        )
        serving.start()
        try:
            # The cold fleet member: identical content, no warmth.
            database = fresh_database()
            member = KeywordSearchEngine(database)
            views = [
                member.define_view(f"v{i}", _feed_view(name))
                for i, name in enumerate(names)
            ]
            keys = [
                (
                    database.get(name).fingerprint,
                    views[i].qpts[name].content_hash,
                )
                for i, name in enumerate(names)
            ]

            def cold_sweep() -> None:
                for i, name in enumerate(names):
                    build_skeleton(
                        views[i].qpts[name], database.get(name).path_index
                    )

            sweeps = 0
            fetched = fetch_failed = fell_back = 0

            def fleet_sweep(local_dir: Path) -> None:
                nonlocal sweeps, fetched, fetch_failed, fell_back
                net = NetworkedSkeletonStore(
                    SkeletonStore(local_dir, mmap_mode=True),
                    HTTPSnapshotPeer(serving.url, timeout=30.0),
                )
                for fingerprint, qpt_hash in keys:
                    if net.load(fingerprint, qpt_hash) is None:
                        raise AssertionError(
                            "fleet fetch fell back mid-measurement"
                        )
                counts = net.net_stats()
                sweeps += 1
                fetched += counts["fetched"]
                fetch_failed += counts["fetch_failed"]
                fell_back += counts["fell_back"]

            cold_sweep()
            fleet_sweep(tmp / "warmup")
            cold_samples: list[float] = []
            fleet_samples: list[float] = []
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                for r in range(rounds):
                    start = _time.perf_counter()
                    cold_sweep()
                    cold_samples.append(_time.perf_counter() - start)
                    local_dir = tmp / f"member{r}"
                    start = _time.perf_counter()
                    fleet_sweep(local_dir)
                    fleet_samples.append(_time.perf_counter() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
                    gc.collect()

            # End-to-end evidence: a member engine warmed *through* the
            # networked store restores every target with zero probes
            # and ranks exactly like the peer.
            evidence_db = fresh_database()
            evidence_store = NetworkedSkeletonStore(
                SkeletonStore(tmp / "evidence", mmap_mode=True),
                HTTPSnapshotPeer(serving.url, timeout=30.0),
            )
            evidence = KeywordSearchEngine(
                evidence_db, snapshot_store=evidence_store
            )
            evidence_views = [
                evidence.define_view(f"v{i}", _feed_view(name))
                for i, name in enumerate(names)
            ]
            evidence_db.reset_access_counters()
            restored = 1.0
            for view in evidence_views:
                outcomes = evidence.warm_view(view)
                if set(outcomes.values()) != {"snapshot"}:
                    restored = 0.0
            probes = float(
                sum(
                    evidence_db.get(name).path_index.probe_count
                    for name in names
                )
            )
            identical = 1.0
            probe_keywords = [pool[0], pool[1]]
            for fleet_view, peer_view in zip(evidence_views, peer_views):
                fleet_out = evidence.search_detailed(
                    fleet_view, probe_keywords, top_k=top_k
                )
                peer_out = peer_engine.search_detailed(
                    peer_view, probe_keywords, top_k=top_k
                )
                if [
                    (r.rank, r.score, r.scored.index)
                    for r in fleet_out.results
                ] != [
                    (r.rank, r.score, r.scored.index)
                    for r in peer_out.results
                ]:
                    identical = 0.0
        finally:
            serving.stop()

    cold_ms = min(cold_samples) * 1000.0
    fleet_ms = min(fleet_samples) * 1000.0
    return {
        "cold_build_ms": cold_ms,
        "fleet_fetch_ms": fleet_ms,
        "speedup": cold_ms / fleet_ms if fleet_ms else float("inf"),
        "targets": float(len(keys)),
        "fetched": float(fetched),
        "fetch_failed": float(fetch_failed),
        "fell_back": float(fell_back),
        "expected_fetches": float(sweeps * len(keys)),
        "snapshot_restored": restored,
        "path_probes": probes,
        "identical_results": identical,
    }


def run_x11_fleet(repeats: int = 1) -> ExperimentTable:
    """X11: fleet serving — peer-warmed first contact over HTTP.

    The self-enforcing floor (peer-warmed skeleton acquisition >= 3x
    faster than the local cold build, with the counters proving the
    bytes really crossed the wire) lives in
    ``benchmarks/bench_x11_fleet.py``; this table records the gap at
    two document sizes — the fixed per-fetch HTTP cost amortizes as
    documents grow, the build cost does not.
    """
    rounds = max(6, 6 * repeats)
    table = ExperimentTable(
        experiment_id="X11",
        title="Fleet serving (peer-warmed first contact, milliseconds)",
        parameter="items",
        columns=[
            "cold_build_ms",
            "fleet_fetch_ms",
            "speedup",
            "targets",
            "fetched",
            "fetch_failed",
            "fell_back",
            "expected_fetches",
            "snapshot_restored",
            "path_probes",
            "identical_results",
        ],
    )
    for items in (256, 768):
        numbers = measure_fleet(items=items, rounds=rounds)
        table.add_row(items, **numbers)
    table.note(
        "acceptance floor: peer-warmed first contact >= 3x faster than "
        "the local cold build at items=768, zero fetch failures and "
        "fallbacks, warm-up fully restored with zero path probes "
        "(self-enforced by benchmarks/bench_x11_fleet.py)"
    )
    return table


def measure_chaos(
    doc_count: int = 48,
    shard_count: int = 4,
    rounds: int = 6,
    top_k: int = 5,
) -> dict[str, float]:
    """Degraded-mode serving under a hard single-shard outage.

    The protocol exercises the full failure-domain story on one
    coordinator (``partial_results=True`` with a quarantining
    :class:`~repro.core.health.FleetHealth` on an injected clock) over
    the cache-thrashing corpus of :func:`_sharding_corpus`:

    1. **healthy** — seeded :class:`~repro.core.faults.FaultInjector`
       armed on ``shard0.collect`` but *disabled*; per-query p50 over
       ``rounds`` keyword-cycle sweeps;
    2. **outage** — injector enabled (every shard-0 statistics call
       errors).  Every query must come back as a degraded-flagged
       outcome missing exactly shard 0 — the dict counts untyped
       exceptions, unflagged responses, and whether quarantine engaged
       (after the breaker trips, shard 0 is skipped without a call);
       per-query p50 again;
    3. **recovery** — injector disabled, the injected clock jumped past
       the quarantine cooldown.  The half-open probe must heal shard 0
       and every keyword set's outcome must be *bit-identical* (exact
       ``==`` on idf floats, scores, indexes and serialized XML) to a
       pristine coordinator that never saw a fault.

    Wall times are measured with the garbage collector paused, median
    statistic (p50 is the availability claim, not a best case).
    """
    import gc
    import statistics
    import time as _time

    from repro.core.faults import FAULT_ERROR, FaultInjector, FaultPlan
    from repro.core.health import FleetHealth
    from repro.errors import ReproError
    from repro.core.sharding import (
        CorpusCoordinator,
        ShardExecutor,
        ShardPlan,
    )

    documents, view_text, keyword_sets = _sharding_corpus(doc_count)
    names = sorted(documents)
    plan = ShardPlan.from_assignments(
        {name: i % shard_count for i, name in enumerate(names)}, shard_count
    )

    def build(injector, health):
        executors = [
            ShardExecutor(i, fault_injector=injector)
            for i in range(shard_count)
        ]
        for name in names:
            executors[plan.shard_of(name)].load_document(
                name, documents[name]
            )
        coordinator = CorpusCoordinator(
            executors,
            plan,
            partial_results=injector is not None,
            health=health,
        )
        coordinator.define_view("v", view_text)
        return coordinator

    def canonical(outcome) -> tuple:
        return (
            outcome.degraded,
            outcome.missing_shards,
            outcome.view_size,
            outcome.matching_count,
            tuple(sorted(outcome.idf.items())),
            tuple((r.rank, r.score, r.scored.index) for r in outcome.results),
            tuple(r.to_xml() for r in outcome.results),
        )

    clock = [0.0]
    health = FleetHealth(
        shard_count,
        failure_threshold=2,
        reset_after=5.0,
        clock=lambda: clock[0],
    )
    injector = FaultInjector(
        FaultPlan.single(7, "shard0.collect", FAULT_ERROR)
    )
    injector.disable()
    chaos = build(injector, health)
    pristine = build(None, None)
    try:
        # Steady state before any clock starts.
        for keywords in keyword_sets:
            chaos.search("v", keywords, top_k=top_k)
            pristine.search("v", keywords, top_k=top_k)

        def timed_sweeps() -> list[float]:
            samples: list[float] = []
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                for _ in range(rounds):
                    for keywords in keyword_sets:
                        start = _time.perf_counter()
                        chaos.search_detailed("v", keywords, top_k=top_k)
                        samples.append(_time.perf_counter() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
                    gc.collect()
            return samples

        healthy_samples = timed_sweeps()

        # Outage: the availability sweep is counted un-timed first (the
        # claim is typed behaviour, not the clock), then timed.
        injector.enable()
        queries = degraded_flagged = untyped = unflagged = 0
        for _ in range(rounds):
            for keywords in keyword_sets:
                queries += 1
                try:
                    outcome = chaos.search_detailed(
                        "v", keywords, top_k=top_k
                    )
                except ReproError:
                    unflagged += 1  # typed, but the shard loss escaped
                except Exception:  # noqa: BLE001 — the counted claim
                    untyped += 1
                else:
                    if outcome.degraded and outcome.missing_shards == (0,):
                        degraded_flagged += 1
                    else:
                        unflagged += 1
        quarantined = 1.0 if 0 in health.quarantined() else 0.0
        degraded_samples = timed_sweeps()

        # Recovery: faults clear, cooldown elapses, the probe heals.
        injector.disable()
        clock[0] += 5.0
        recovered = 1.0
        for keywords in keyword_sets:
            out = chaos.search_detailed("v", keywords, top_k=top_k)
            ref = pristine.search_detailed("v", keywords, top_k=top_k)
            if canonical(out) != canonical(ref):
                recovered = 0.0
        healed = 1.0 if health.quarantined() == () else 0.0
    finally:
        chaos.close()
        pristine.close()

    healthy_p50 = statistics.median(healthy_samples) * 1000.0
    degraded_p50 = statistics.median(degraded_samples) * 1000.0
    return {
        "healthy_p50_ms": healthy_p50,
        "degraded_p50_ms": degraded_p50,
        "degraded_over_healthy": (
            degraded_p50 / healthy_p50 if healthy_p50 else float("inf")
        ),
        "outage_queries": float(queries),
        "degraded_flagged": float(degraded_flagged),
        "availability": (
            degraded_flagged / queries if queries else 0.0
        ),
        "unflagged_responses": float(unflagged),
        "untyped_errors": float(untyped),
        "quarantine_engaged": quarantined,
        "quarantine_healed": healed,
        "recovered_identical": recovered,
        "injected_faults": float(len(injector.schedule())),
    }


def run_x12_chaos(repeats: int = 1) -> ExperimentTable:
    """X12: failure domains — degraded serving under a one-shard outage.

    The self-enforcing floors (100% degraded-flagged availability with
    zero untyped errors, degraded p50 <= 1.5x healthy p50, bit-identical
    post-recovery outcomes) live in ``benchmarks/bench_x12_chaos.py``;
    this table records the degraded-over-healthy latency ratio across
    fleet widths — losing 1-of-2 shards halves the work, losing 1-of-4
    trims a quarter, so the ratio should sit *below* 1 once quarantine
    stops the coordinator from even calling the dead shard.
    """
    rounds = max(6, 6 * repeats)
    table = ExperimentTable(
        experiment_id="X12",
        title="Failure domains (one shard hard-failed, ms per query)",
        parameter="shards",
        columns=[
            "healthy_p50_ms",
            "degraded_p50_ms",
            "degraded_over_healthy",
            "availability",
            "untyped_errors",
            "quarantine_engaged",
            "recovered_identical",
            "injected_faults",
        ],
    )
    for shard_count in (2, 4):
        numbers = measure_chaos(shard_count=shard_count, rounds=rounds)
        table.add_row(
            shard_count,
            **{k: numbers[k] for k in table.columns},
        )
    table.note(
        "acceptance floors: availability 1.0 with zero untyped errors, "
        "degraded p50 <= 1.5x healthy p50, quarantine engaged and healed, "
        "post-recovery outcomes bit-identical to a never-failed "
        "coordinator (self-enforced by benchmarks/bench_x12_chaos.py)"
    )
    return table


ALL_EXPERIMENTS = {
    "T1": run_params_table,
    "F13": run_fig13_data_size,
    "F13b": run_fig13b_module_comparison,
    "F14": run_fig14_module_cost,
    "F15": run_fig15_num_keywords,
    "F16": run_fig16_keyword_selectivity,
    "F17": run_fig17_num_joins,
    "F18": run_fig18_join_selectivity,
    "F19": run_fig19_nesting,
    "F20": run_fig20_topk,
    "X1": run_x1_element_size,
    "X2": run_x2_pdt_size,
    "X7": run_x7_cold_path,
    "X8": run_x8_sharding,
    "X9": run_x9_updates,
    "X10": run_x10_memory,
    "X11": run_x11_fleet,
    "X12": run_x12_chaos,
}
