"""Count floors no other test holds, as one table.

The retired ``bench_x3…x12`` files asserted wall-clock ratios — nothing
asserts those any more; their last values are in ``BENCH_history.json``
— and counts.  Almost every count was already a tier-1 test or a CI
ratchet on a layered metric (README *Benchmarks*: floor → holder); the
rows below are the ones that were not.  A row reads one counter off one
scenario and holds it to a number or to another counter of the scenario.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import itertools
import operator
import tempfile
import threading
import time
from collections import Counter
from unittest import mock

import pytest

from benchmarks.layered import workloads
from repro.baselines import records
from repro.core.cache import LRUCache, QueryCache
from repro.core.engine import KeywordSearchEngine
from repro.core.ingest import ingest_corpus
from repro.core import scoring
from repro.core.pdt import PDTResult
from repro.core.qpt import QPT
from repro.core.skeleton import PDTSkeleton
from repro.core.scoring import ScoredResult, StatisticsPlan
from repro.core.snapshot import SkeletonStore
from repro.serving import SearchServer, ServerConfig
from repro.storage.database import XMLDatabase
from repro.storage.inverted_index import PostingList
from repro.workloads.inex import INEXConfig, generate_inex_database
from repro.workloads.views import authors_articles_view
from repro.xmlmodel.node import XMLNode
from tests.test_cache import three_library_views

FLOORS = [  # id, scenario, counter, relation, bound
    ("edit-never-serialises", "patchable_edits", "serialized_rounds", "==", 0),
    ("hookless-engine-misses", "patchable_edits", "hookless_miss_rounds", "==", 8),
    ("hookless-engine-reprobes", "patchable_edits", "hookless_path_probes", ">=", 8),
    ("merge-consumes-less", "sharded_sweep", "consumed", "<", "candidates"),
    ("merge-prunes-a-stream", "sharded_sweep", "pruned", ">=", 1),
    # 177 968 B held this corpus as a hash-consed shape DAG (Böttcher et
    # al.), retired for saving less than 5% over plain columns.
    ("tier-bytes", "repetitive_tier", "memory_bytes", "<=", 177_968 * 1.05),
    ("all-admitted", "eight_clients", "submitted", "==", 200),
    ("none-failed", "eight_clients", "failed", "==", 0),
    ("none-shed", "eight_clients", "rejected_total", "==", 0),
    ("ledger-closes", "eight_clients", "completed", "==", "submitted"),
    # Default ServerConfig: the one bound on concurrent engine calls.
    ("two-engine-calls-at-once", "eight_clients", "peak_engine_calls", "==", 2),
    # The evaluated entry's statistics plan is built once, by the warm-up;
    # pointing collect_view_statistics back at a per-query plan fails both.
    ("one-plan-per-entry", "fifty_keyword_sets", "plans_built", "==", 1),
    ("sum-never-walks", "fifty_keyword_sets", "nodes_walked_after_first", "==", 0),
    # 150 sweeps over these 17 lists while the PDT tier cached whole
    # keyword sets: each (document, keyword) re-swept by every set
    # naming it.
    ("one-sweep-per-keyword", "fifty_keyword_sets", "posting_sweeps", "==", "distinct_lists_swept"),
    # A ScoredResult per view result per query until the ranking became
    # column arithmetic: 50 x 30 = 1 500 against 392 winners here, and
    # 2 372 against the shards' 80 survivors.
    ("objects-only-for-winners", "fifty_keyword_sets", "scored_results_built", "<=", "winners_returned"),
    ("shard-objects-only-for-survivors", "sharded_sweep", "scored_results_built", "==", "candidates"),
    # 3 per search while the evaluated key embedded the expression itself
    # (114 us each on this view: the dataclass hash is structural).
    ("key-never-hashes-the-view", "hundred_warm_searches", "expression_hashes", "==", 0),
    # 1 while an evaluated entry survived an edit only if its skeleton's
    # live tree was, by identity, the one it had been evaluated over.
    ("edit-builds-no-tree", "rebuilt_skeleton_edit", "trees_built", "==", 0),
    # 32.0 while every annotated PDT carried its skeleton's tree: the
    # sweep rebuilds 32 of its 96 skeletons per query and no evaluated
    # hit reads a tree.
    ("no-tree-on-evaluated-hit", "cold_sweep", "trees_per_query", "==", 0),
    # 96 and 172.8 while each document read the skeleton tier, and each
    # (document, keyword) pair the PDT tier, by its own get.
    ("one-read-per-tier-skeleton", "cold_sweep", "skeleton_reads_per_query", "==", 1),
    ("one-read-per-tier-pdt", "cold_sweep", "pdt_reads_per_query", "==", 1),
    # 32.0 while every skeleton derived its subtree bounds as it was
    # built: none of the 32 rebuilt per query is annotated (the PDT tier
    # holds every column) or admitted (the sweep keeps its 64 residents).
    ("no-bounds-on-evaluated-hit", "cold_sweep", "bound_derivations_per_query", "==", 0),
    # 268.8 (96 documents x (lengths + 1.8 keywords)) while every sum
    # re-added each document's columns, though the repeated pass hands
    # the plan the same columns it summed on the first.
    ("no-picks-on-repeated-keywords", "cold_sweep", "picks_per_query", "==", 0),
    # 96.0 while the engine wrapped each document's two tier reads in a
    # PDTResult that the sum unpacked straight away.
    ("no-pdt-object-per-warm-document", "cold_sweep", "pdt_results_per_query", "==", 0),
    # 32.0 while the structural sweep emitted PDTRecords for
    # from_records to sort into columns: one per rebuild.
    ("sweep-builds-no-records", "cold_sweep", "records_finalized_per_query", "==", 0),
    # 96.0 while each rebuild re-derived its prefix plans from
    # QPT.match_table: three paths per skeleton, 32 rebuilds per query.
    ("one-prefix-plan-per-path", "cold_sweep", "match_tables_per_query", "==", 0),
    # 57.6 while each of the 32 skeletons rebuilt per query re-probed
    # every keyword to fill a prepared-lists tier that never hit, though
    # the PDT tier held every column.
    ("no-inverted-probe-on-held-columns", "cold_sweep", "inverted_probes_per_query", "==", 0),
    # 0.0 while every fragment was its own engine view: 96 evaluated
    # entries per query against 64 slots, each evicting the next.
    ("one-shard-is-the-lone-engine", "one_shard_sweep", "evaluated_hit_rate", "==", 1.0),
    # 96 per query (one per fragment view) before a shard's fragments
    # became one sequence view.
    ("one-engine-call-per-shard", "sharded_sweep", "engine_calls_per_query", "==", "shard_count"),
]
RELATIONS = {"==": operator.eq, "<": operator.lt, "<=": operator.le, ">=": operator.ge}
KEYWORD_SETS = [("thomas",), ("control",), ("search",), ("thomas", "control")]


def patchable_edits():
    """8 alternating patchable insert / delete rounds, a query after each,
    on a snapshot-forwarding engine (so fingerprints are live): rounds
    after which the document's text had been rebuilt.  Beside it, an
    engine with its update hook detached: generation keys alone strand it."""
    database = generate_inex_database(INEXConfig())
    articles = database.get("articles.xml")
    counters, inserted = Counter(), None
    with tempfile.TemporaryDirectory() as snapshots:
        engine = KeywordSearchEngine(database, snapshot_store=SkeletonStore(snapshots))
        hookless = KeywordSearchEngine(database)
        database.remove_update_hook(hookless._on_document_update)
        for each in (engine, hookless):
            each.search(each.define_view("v", authors_articles_view()), ("thomas",))
        for _ in range(8):
            if inserted is None:
                inserted = database.insert_subtree(
                    "articles.xml", articles.document.root.dewey, "<zaux>aside</zaux>"
                ).edit_id
            else:
                database.delete_subtree("articles.xml", inserted)
                inserted = None
            engine.search("v", ("thomas",))
            counters["serialized_rounds"] += articles._serialized is not None
            database.reset_access_counters()
            hits = hookless.search_detailed("v", ("thomas",)).cache_hits
            counters["hookless_miss_rounds"] += hits["articles.xml"] == "miss"
            counters["hookless_path_probes"] += articles.path_index.probe_count
    return counters


def sharded_sweep():
    """The layered ``sharded_fanout`` corpus (96 libraries, one view
    fragment each; bench_x8's, document for document) through 4 shard
    executors: the streaming merge's counters over bench_x8's four
    queries (80 results offered, 65 consumed, 15 streams pruned), and
    the ``ScoredResult`` objects the shards built to offer them, and the
    ``collect_view_statistics`` calls each query made."""
    corpus, totals = workloads.generate("sharded_fanout"), Counter()
    coordinator, _ = ingest_corpus(
        corpus.documents, {"v": corpus.view_text}, shard_count=4
    )
    queries = ("xml",), ("query", "index"), ("search",), ("ranking", "views")
    collect = KeywordSearchEngine.collect_view_statistics

    def counted_collect(engine, *args, **kwargs):
        totals["engine_calls"] += 1
        return collect(engine, *args, **kwargs)

    with coordinator, _counting_scored_results(totals), mock.patch.object(
        KeywordSearchEngine, "collect_view_statistics", counted_collect
    ):
        for keywords in queries:
            outcome = coordinator.search_detailed("v", keywords, top_k=5)
            totals.update(outcome.merge_stats.as_dict())
    totals["engine_calls_per_query"] = totals["engine_calls"] / len(queries)
    totals["shard_count"] = len(outcome.shards)
    return totals


def one_shard_sweep():
    """The layered ``sharded_fanout`` corpus through a 1-shard
    ``ingest_corpus`` (default tiers): the evaluated tier's hit rate
    over 24 of its requests, after one warm pass over the same 24."""
    corpus = workloads.generate("sharded_fanout")
    coordinator, _ = ingest_corpus(
        corpus.documents, {"v": corpus.view_text}, shard_count=1
    )
    requests = corpus.requests[:24]
    with coordinator:
        for request in requests:
            coordinator.search("v", request.keywords, conjunctive=request.conjunctive)
        before = coordinator.stats()["cache"]["evaluated"]
        for request in requests:
            coordinator.search("v", request.keywords, conjunctive=request.conjunctive)
        after = coordinator.stats()["cache"]["evaluated"]
    hits = after["hits"] - before["hits"]
    return {"evaluated_hit_rate": hits / (hits + after["misses"] - before["misses"])}


def _counting_scored_results(counters):
    """Count ``ScoredResult`` constructions as ``scored_results_built``."""
    build = ScoredResult.__init__

    def counted_build(result, *args, **kwargs):
        counters["scored_results_built"] += 1
        build(result, *args, **kwargs)

    return mock.patch.object(ScoredResult, "__init__", counted_build)


def repetitive_tier():
    """12 structurally identical 48-entry feeds, one warmed view each:
    the skeleton tier's exact ``memory_bytes`` sum."""
    pool = [f"mem{i:02d}" for i in range(9)]
    engine = KeywordSearchEngine(XMLDatabase())
    for d in range(12):
        entries = "".join(
            f"<entry><title>{pool[i % 9]} brief {d}-{i}</title>"
            f"<body>{pool[(i + d) % 9]} article text {d * 48 + i}</body></entry>"
            for i in range(48)
        )
        name = f"feed{d:02d}.xml"
        engine.database.load_document(name, f"<feed>{entries}</feed>")
        engine.warm_view(engine.define_view(
            f"v{d}", f"for $e in fn:doc({name})/feed/entry return <f>{{$e/title}}</f>"
        ))
    return {"memory_bytes": engine.cache.skeletons.memory_bytes}


def eight_clients():
    """8 concurrent closed-loop clients x 25 requests, 70% on the hot of
    two pre-warmed views, the PDT tier off, limits far above the
    offered load: the server's request ledger after drain, and the most
    engine calls that were ever executing at once."""
    engine = KeywordSearchEngine(
        generate_inex_database(INEXConfig()),
        cache=QueryCache(pdt_capacity=0),
    )
    engine.define_view("hot", authors_articles_view())
    engine.define_view("side", authors_articles_view())
    config = ServerConfig(
        max_queue_depth=256, max_inflight_per_view=256, warm_views=("hot", "side")
    )
    calls, lock, search_detailed = Counter(), threading.Lock(), engine.search_detailed

    def counted_search(*args, **kwargs):
        with lock:
            calls["executing"] += 1
            calls["peak"] = max(calls["peak"], calls["executing"])
        try:
            time.sleep(0.002)  # hold the call open: a warm search is shorter than a GIL slice
            return search_detailed(*args, **kwargs)
        finally:
            with lock:
                calls["executing"] -= 1

    engine.search_detailed = counted_search

    async def client(server, offset):
        for index in range(offset, offset + 25):
            view = "hot" if index % 10 < 7 else "side"
            await server.search(view, KEYWORD_SETS[index % 4], top_k=5)

    async def scenario():
        async with SearchServer(engine, config) as server:
            await asyncio.gather(*[client(server, c) for c in range(8)])
            return server.snapshot()["requests"]

    ledger = asyncio.run(asyncio.wait_for(scenario(), 120))
    return {**ledger, "peak_engine_calls": calls["peak"]}


def fifty_keyword_sets():
    """50 distinct keyword sets over one warmed view: ``StatisticsPlan``
    constructions, and result-tree nodes the statistics pass looked at
    (every unpruned node costs the walk one ``XMLNode.value`` read) once
    the first query had been answered, ``ScoredResult``\\ s built
    against the winners the 50 searches returned, and posting-list
    sweeps (``PostingList.cumulative_below`` calls) against the distinct
    lists they swept."""
    words = ["thomas", "control", "moore", "ieee", "query", "index", "search",
             "ranking", "cache", "graph"]
    keyword_sets = [(word,) for word in words]
    keyword_sets += list(itertools.combinations(words, 2))[:40]
    counters, swept = Counter(), set()
    build, value = StatisticsPlan.__init__, XMLNode.value.fget
    sweep = PostingList.cumulative_below

    def counted_build(plan, *args, **kwargs):
        counters["plans_built"] += 1
        build(plan, *args, **kwargs)

    def counted_value(node):
        counters["nodes_walked"] += 1
        return value(node)

    def counted_sweep(plist, bounds):
        counters["posting_sweeps"] += 1
        swept.add((id(plist), plist.keyword))
        return sweep(plist, bounds)

    engine = KeywordSearchEngine(generate_inex_database(INEXConfig()))
    engine.define_view("v", authors_articles_view())
    with mock.patch.object(StatisticsPlan, "__init__", counted_build), \
            mock.patch.object(XMLNode, "value", property(counted_value)), \
            mock.patch.object(PostingList, "cumulative_below", counted_sweep), \
            _counting_scored_results(counters):
        engine.warm_view("v")
        assert counters["posting_sweeps"] == 0
        counters["winners_returned"] += len(engine.search("v", keyword_sets[0]))
        walked_by_first = counters["nodes_walked"]
        for keywords in keyword_sets[1:]:
            outcome = engine.search_detailed("v", keywords)
            assert outcome.view_size > 0
            counters["winners_returned"] += len(outcome.results)
    assert len(set(keyword_sets)) == 50 and walked_by_first > 0 and swept
    counters["nodes_walked_after_first"] = counters["nodes_walked"] - walked_by_first
    counters["distinct_lists_swept"] = len(swept)
    return counters


def _warmed_cold_corpus():
    """The layered ``cold_corpus`` view (96 fragments in one expression)
    on one warmed engine with default tiers."""
    corpus = workloads.generate("cold_corpus")
    database = XMLDatabase()
    for name, text in corpus.documents.items():
        database.load_document(name, text)
    engine = KeywordSearchEngine(database)
    view = engine.define_view("v", corpus.view_text)
    engine.warm_view(view)
    return corpus, engine, view


def hundred_warm_searches():
    """100 searches over the warmed ``cold_corpus`` view: ``hash()``
    calls that reached the view expression."""
    corpus, engine, view = _warmed_cold_corpus()
    counters = Counter()
    structural_hash = type(view.expr).__hash__

    def counted_hash(expr):
        counters["expression_hashes"] += expr is view.expr
        return structural_hash(expr)

    with mock.patch.object(type(view.expr), "__hash__", counted_hash):
        for request in (corpus.requests * 2)[:100]:
            outcome = engine.search_detailed("v", request.keywords)
            counters["evaluated_hits"] += outcome.evaluated_hit
    assert counters["evaluated_hits"] == 100
    return counters


def cold_sweep():
    """50 searches over the warmed ``cold_corpus`` view, every one an
    evaluated-tier hit while the 64-slot skeleton tier overflows, then
    the same 50 again.  Per first-pass search (the PDT tier is empty, so
    every rebuilt skeleton is annotated): the ``PDTSkeleton._build_tree``
    calls.  Per repeated search (the PDT tier holds every column): the
    reads of the skeleton tier and of the PDT tier (``get_many`` calls;
    a ``get`` is one), the ``PDTSkeleton._derive_bounds`` calls, the
    calls of the plan's per-document pickers (``scoring._picker``'s),
    the ``PDTResult`` constructions, the
    ``repro.baselines.records.from_records`` calls, the
    ``QPT.match_table`` calls and the inverted-index probes."""
    counters = Counter()
    picker = scoring._picker

    def counted_picker(indexes):
        pick = picker(indexes)

        def counted(values):
            counters["picks"] += 1
            return pick(values)

        return counted

    with mock.patch.object(scoring, "_picker", counted_picker):
        corpus, engine, _view = _warmed_cold_corpus()
    tiers = {id(engine.cache.skeletons): "skeleton_reads", id(engine.cache.pdts): "pdt_reads"}

    def counting(owner, name, counter=None):
        method = getattr(owner, name)

        def counted(*args, **kwargs):
            counters[counter or tiers.get(id(args[0]))] += 1
            return method(*args, **kwargs)

        return mock.patch.object(owner, name, counted)

    def sweep():
        for request in (corpus.requests * 2)[:50]:
            outcome = engine.search_detailed("v", request.keywords)
            counters["evaluated_hits"] += outcome.evaluated_hit

    with counting(PDTSkeleton, "_build_tree", "trees"):
        sweep()
    first_pass_picks = counters["picks"]
    database = engine.database
    database.reset_access_counters()
    with counting(PDTSkeleton, "_derive_bounds", "bound_derivations"), \
            counting(LRUCache, "get_many"), \
            counting(PDTResult, "__init__", "pdt_results"), \
            counting(records, "from_records", "records_finalized"), \
            counting(QPT, "match_table", "match_tables"):
        sweep()
    counters["picks"] -= first_pass_picks
    counters["inverted_probes"] = sum(
        database.get(name).inverted_index.probe_count
        for name in database.document_names()
    )
    assert counters["evaluated_hits"] == 100
    for name in (
        "trees", "skeleton_reads", "pdt_reads", "bound_derivations", "picks",
        "pdt_results", "records_finalized", "match_tables", "inverted_probes",
    ):
        counters[f"{name}_per_query"] = counters[name] / 50
    return counters


def rebuilt_skeleton_edit():
    """Three one-document views behind a two-slot skeleton tier, PDT
    tier off: v0 is evaluated, its skeleton evicted and rebuilt under
    the evaluated entry, and once nothing holds the rebuilt skeleton's
    tree a patchable edit reaches v0's document — the
    ``PDTSkeleton._build_tree`` calls ``QueryCache.apply_document_delta``
    made (the re-warm after it is not counted)."""
    database, engine = three_library_views(QueryCache(skeleton_capacity=2, pdt_capacity=0))
    counters, inside = Counter(), []
    for view, keywords in (("v0", "xml"), ("v1", "xml"), ("v2", "xml"), ("v0", "query")):
        engine.search(view, (keywords,))
    gc.collect()  # a tree is a reference cycle: only a collection frees it
    apply, build = QueryCache.apply_document_delta, PDTSkeleton._build_tree

    def counted_apply(cache, *args):
        inside.append(cache)
        try:
            return apply(cache, *args)
        finally:
            inside.pop()

    def counted_build(skeleton):
        counters["trees_built"] += bool(inside)
        return build(skeleton)

    with mock.patch.object(QueryCache, "apply_document_delta", counted_apply), \
            mock.patch.object(PDTSkeleton, "_build_tree", counted_build):
        database.insert_subtree("doc0", "1.1.2", "<zaux>xml xml aside</zaux>")
    return counters


_counters = functools.cache(lambda scenario: globals()[scenario]())


@pytest.mark.parametrize(
    "scenario, counter, relation, bound",
    [row[1:] for row in FLOORS],
    ids=[row[0] for row in FLOORS],
)
def test_floor(scenario, counter, relation, bound):
    counters = _counters(scenario)
    limit = counters[bound] if isinstance(bound, str) else bound
    assert RELATIONS[relation](counters[counter], limit), (
        f"{scenario}: {counter} = {counters[counter]}, floor {relation} {bound}"
    )
