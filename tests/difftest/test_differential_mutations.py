"""Differential tests for sub-document updates (the ``mutations`` config).

Each seed interleaves a deterministic stream of real subtree edits
(:func:`difftest.generators.generate_mutation_stream`) with queries, and
checks the delta-maintained engine three ways after every edit:

* **vs the naive baseline** — a replica database replaying the same ops,
  searched by :class:`repro.baselines.naive.BaselineEngine` (which
  evaluates the live trees per query, so it is mutation-truthful by
  construction);
* **vs rebuild-from-scratch** — a fresh :class:`XMLDatabase` re-indexing
  the mutated trees, compared **bit-for-bit**: ranked outcomes *and*
  digests of every derived structure (document-store rows, posting
  lists, Path-Values rows keyed by path tuple);
* **delta quality** — the stream's forced step-0 patchable edit must
  leave the warm tiers alive: the next query is served at skeleton
  depth or better with **zero path-index probes**.

A served-page configuration checks the HTTP page writer's per-node XML
memo: after every edit, patchable or structural, the ``results`` bytes
a warm engine serves through :class:`SearchAPI` equal the ones encoded
from a cache-free engine's outcome with ``serialize`` and ``json``.

A snapshot-store configuration checks fingerprint forwarding (the
patched snapshot is addressable under the *new* fingerprint, the old
one is reclaimed, and a restarted engine restores from it), and a
sharded configuration replays the same streams through the
:class:`CorpusCoordinator` routing layer at shard counts 1 and 2.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest

from repro.baselines.naive import BaselineEngine
from repro.core.cache import QueryCache
from repro.core.engine import KeywordSearchEngine
from repro.core.placement import ShardPlan
from repro.core.sharding import CorpusCoordinator, ShardExecutor
from repro.core.snapshot import SkeletonStore
from repro.serving import SearchAPI, SearchServer
from repro.storage.database import XMLDatabase
from repro.xmlmodel.serializer import serialize

from difftest.generators import (
    MutationOp,
    apply_mutation,
    generate_case,
    generate_mutation_stream,
)
from difftest.harness import assert_outcomes_equivalent
from difftest.test_differential import _seed_matrix

TOP_K = 10
STREAM_LENGTH = 8
PAGE_SIZE = 10  # SearchAPI's default page size


# -- state digests --------------------------------------------------------------
#
# Bit-level fingerprints of every derived structure, keyed by stable
# identities (Dewey components, keywords, path *tuples* — never interned
# ids, which legitimately differ between a patched index and a rebuilt
# one).


def _store_digest(store):
    return tuple(
        (record.dewey, record.tag, record.value, record.byte_length)
        for record in store.iter_records()
    )


def _postings_digest(index):
    """``(dewey, tf, ())`` per posting: the layout the golden digests
    were recorded in, when a posting still had a positions field."""
    return {
        keyword: tuple((posting.dewey, posting.tf, ()) for posting in plist.postings)
        for keyword, plist in index._lists.items()
        if len(plist)
    }


def _path_rows_digest(index):
    """The Path-Values rows: a path's elements grouped by their own
    value, in document order, as ``(packed key, byte length)`` pairs."""
    rows = {}
    for path_id, (keys, values, lengths, *_) in index._path_arrays.items():
        path = index.data_paths[path_id]
        for key, value, length in zip(keys, values, lengths):
            rows.setdefault((path, value), []).append((key, length))
    return {row_key: tuple(pairs) for row_key, pairs in rows.items()}


def _rebuild_database(db: XMLDatabase) -> XMLDatabase:
    """Re-index the mutated trees from scratch (Dewey IDs are kept, so
    the rebuild is the ground truth the delta-patched state must match
    bit-for-bit).  The fresh database is never mutated, so sharing the
    live trees is safe."""
    fresh = XMLDatabase()
    for name in db.document_names():
        fresh.load_document(name, db.get(name).document)
    return fresh


def _assert_state_matches_rebuild(db: XMLDatabase, context: str) -> None:
    rebuilt = _rebuild_database(db)
    for name in db.document_names():
        live, fresh = db.get(name), rebuilt.get(name)
        where = f"{context} doc={name}"
        assert _store_digest(live.store) == _store_digest(fresh.store), (
            f"{where}: document-store rows diverged from rebuild"
        )
        assert _postings_digest(live.inverted_index) == _postings_digest(
            fresh.inverted_index
        ), f"{where}: posting lists diverged from rebuild"
        assert _path_rows_digest(live.path_index) == _path_rows_digest(
            fresh.path_index
        ), f"{where}: path-index rows diverged from rebuild"


def _path_probes(db: XMLDatabase) -> int:
    return sum(
        db.get(name).path_index.probe_count for name in db.document_names()
    )


# -- the mutations configuration ------------------------------------------------


@pytest.mark.parametrize("seed", _seed_matrix())
def test_mutations_delta_matches_rebuild_and_baseline(seed):
    case = generate_case(seed)
    db = case.database
    engine = KeywordSearchEngine(db)  # default cache, delta maintenance on
    view = engine.define_view("v", case.view_text)

    baseline_db = generate_case(seed).database
    baseline = BaselineEngine(baseline_db)
    bview = baseline.define_view("truth", case.view_text)

    ops = generate_mutation_stream(
        seed, generate_case(seed).database, count=STREAM_LENGTH
    )

    # Warm every tier before the first edit so step 0 demonstrates
    # survival rather than a cold build.
    engine.search(view, case.priming_keywords, top_k=TOP_K)

    for step, op in enumerate(ops):
        apply_mutation(db, op)
        apply_mutation(baseline_db, op)
        if step == 0:
            db.reset_access_counters()
        keywords = case.keyword_sets[step % len(case.keyword_sets)]
        context = f"seed={seed} step={step} op={op.describe()}"
        for conjunctive in (True, False):
            eout = engine.search_detailed(view, keywords, TOP_K, conjunctive)
            bout = baseline.search_detailed(bview, keywords, TOP_K, conjunctive)
            assert_outcomes_equivalent(
                eout,
                bout,
                keywords,
                f"{context} conj={conjunctive} [delta-vs-naive]",
            )
            if step == 0:
                assert (
                    eout.evaluated_hit
                    or eout.cache_hits.get(op.doc)
                    in ("pdt", "skeleton", "snapshot")
                ), (
                    f"{context}: patchable edit should leave warm tiers "
                    f"alive, got {eout.cache_hits}"
                )
        if step == 0:
            assert _path_probes(db) == 0, (
                f"{context}: patchable edit re-probed the path index"
            )
        _assert_state_matches_rebuild(db, context)
        rebuilt_engine = KeywordSearchEngine(
            _rebuild_database(db), enable_cache=False
        )
        rview = rebuilt_engine.define_view("rebuilt", case.view_text)
        rout = rebuilt_engine.search_detailed(rview, keywords, TOP_K, True)
        eout = engine.search_detailed(view, keywords, TOP_K, True)
        assert_outcomes_equivalent(
            eout, rout, keywords, f"{context} [delta-vs-rebuild]"
        )


async def _served_page(api: SearchAPI, keywords) -> bytes:
    """One ``POST /search`` through the ASGI app: the raw body bytes."""
    body = json.dumps({"view": "v", "keywords": list(keywords)}).encode()
    sent = []

    async def receive():
        return {"type": "http.request", "body": body}

    async def send(message):
        sent.append(message)

    scope = {"type": "http", "method": "POST", "path": "/search"}
    await api(scope, receive, send)
    assert sent[0]["status"] == 200, sent[1]["body"]
    return sent[1]["body"]


def _results_section(raw: bytes) -> bytes:
    """A page's ``results`` member as served, byte for byte (inside a
    JSON string every quote is escaped, so the first unescaped
    ``"results":[`` and the ``],"serving":`` after it are the keys)."""
    start = raw.index(b'"results":[')
    return raw[start : raw.index(b'],"serving":{', start) + 1]


def _rendered_results(engine: KeywordSearchEngine, keywords) -> bytes:
    """The ``results`` member a first page of ``engine``'s outcome
    should carry, serialized and encoded here, apart from the page
    writer and its memo."""
    outcome = engine.search_detailed("v", keywords, PAGE_SIZE)
    results = [
        {
            "index": result.scored.index,
            "rank": result.rank,
            "score": result.score,
            "xml": serialize(result.pruned),
        }
        for result in outcome.results
    ]
    encoded = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return b'"results":' + encoded.encode()


def _evaluated_plan(engine: KeywordSearchEngine):
    ((_key, plan),) = engine.cache.evaluated.items()
    return plan


def _structural_delete(plan) -> MutationOp:
    """A delete no byte-length patch absorbs: the base element behind
    the first non-root PDT node of a view result (every PDT node
    matches its QPT, so removing one changes the view)."""
    for result in plan.nodes:
        for node in result.iter():
            dewey = node.anno.dewey if node.anno is not None else None
            if dewey is not None and len(dewey.components) > 1:
                return MutationOp("delete", node.anno.doc, dewey.components)
    raise AssertionError("no view result stands for a non-root element")


@pytest.mark.parametrize("seed", _seed_matrix())
def test_mutations_served_pages_match_a_cache_free_engine(seed):
    """Each served result's XML is memoized per result node, so a stale
    memo would show as a page that differs from one rendered afresh.
    The warm engine's first page fills the memo; after every edit the
    priming keywords and the step's keyword set are served through
    :class:`SearchAPI`, and its ``results`` bytes must equal the ones
    serialized and encoded here from a cache-free engine's outcome.  A patchable
    edit keeps the evaluated entry (and so the memoized nodes); a
    structural one replaces it.  The stream's op 0 is patchable, and
    a last delete of an element some result stands for is structural."""
    case = generate_case(seed)
    db = case.database
    warm = KeywordSearchEngine(db)
    warm.define_view("v", case.view_text)
    fresh = KeywordSearchEngine(db, enable_cache=False)
    fresh.define_view("v", case.view_text)
    ops = generate_mutation_stream(
        seed, generate_case(seed).database, count=STREAM_LENGTH
    )
    kinds = Counter()

    async def run():
        async with SearchServer(warm) as server:
            api = SearchAPI(server)
            await _served_page(api, case.priming_keywords)
            for step, op in enumerate(ops + [None]):
                plan = _evaluated_plan(warm)
                op = op or _structural_delete(plan)
                apply_mutation(db, op)
                keyword_sets = (
                    case.priming_keywords,
                    case.keyword_sets[step % len(case.keyword_sets)],
                )
                for keywords in keyword_sets:
                    served = _results_section(await _served_page(api, keywords))
                    expected = _rendered_results(fresh, keywords)
                    assert served == expected, (
                        f"seed={seed} step={step} op={op.describe()} "
                        f"keywords={keywords}: served results diverged"
                    )
                kinds["patchable" if _evaluated_plan(warm) is plan else "structural"] += 1

    asyncio.run(asyncio.wait_for(run(), 120))
    assert kinds["patchable"] >= 1 and kinds["structural"] >= 1, kinds


def test_mutation_streams_are_deterministic():
    first = generate_mutation_stream(42, generate_case(42).database)
    second = generate_mutation_stream(42, generate_case(42).database)
    assert first == second


def test_mutations_snapshot_store_forwards_patched_snapshots(tmp_path):
    seed = _seed_matrix()[0]
    case = generate_case(seed, shape="selection")
    db = case.database
    store = SkeletonStore(tmp_path)
    engine = KeywordSearchEngine(db, cache=QueryCache(), snapshot_store=store)
    view = engine.define_view("v", case.view_text)
    engine.search(view, case.priming_keywords, top_k=TOP_K)

    old_fp = db.get("items.xml").fingerprint
    delta = db.insert_subtree("items.xml", "1", "<zaux>forwarded</zaux>")
    new_fp = db.get("items.xml").fingerprint
    assert delta.old_fingerprint == old_fp
    qpt_hash = view.qpts["items.xml"].content_hash
    # The patched snapshot was written under the new fingerprint and the
    # orphaned old-fingerprint file reclaimed.
    assert (new_fp, qpt_hash) in store
    assert (old_fp, qpt_hash) not in store

    # A restarted engine (fresh cache, same directory) restores the
    # forwarded snapshot: first query at snapshot depth, no path probes.
    restarted_db = _rebuild_database(db)
    restarted = KeywordSearchEngine(
        restarted_db, cache=QueryCache(), snapshot_store=store
    )
    rview = restarted.define_view("v", case.view_text)
    keywords = case.keyword_sets[0]
    out = restarted.search_detailed(rview, keywords, TOP_K, True)
    assert out.cache_hits == {"items.xml": "snapshot"}
    assert _path_probes(restarted_db) == 0

    baseline = BaselineEngine(db)
    bview = baseline.define_view("truth", case.view_text)
    bout = baseline.search_detailed(bview, keywords, TOP_K, True)
    assert_outcomes_equivalent(
        out, bout, keywords, f"seed={seed} [snapshot-restore-after-update]"
    )


def _two_copies(seed):
    """The case's documents twice, renamed ``x0…`` and ``x1…``, and its
    view over each copy as one fragment of a two-fragment view:
    ``(view text, documents)``."""
    fragments, documents = [], {}
    for copy in range(2):
        case = generate_case(seed)
        text = case.view_text
        for name in sorted(case.database.document_names()):
            text = text.replace(f"fn:doc({name})", f"fn:doc(x{copy}{name})")
            documents[f"x{copy}{name}"] = case.database.get(name).document
        fragments.append("(" + text + ")")
    return "(" + ",\n".join(fragments) + ")", documents


@pytest.mark.parametrize("shard_count", (1, 2))
@pytest.mark.parametrize("seed", _seed_matrix())
def test_mutations_sharded_matches_single_engine(seed, shard_count):
    """The coordinator routes each edit to the owning shard; ranked
    output stays bit-identical to a single delta-maintained engine
    replaying the same stream.  The view is the case's twice over two
    copies of its documents, one fragment per copy and, at two shards,
    one copy per shard; the stream edits copy 0 only, so each edit moves
    the global idf under the other shard's unchanged columns, and every
    keyword set is asked again after every edit."""
    case = generate_case(seed)
    view_text, documents = _two_copies(seed)
    rng = random.Random(seed * 31 + shard_count)
    home = rng.randrange(shard_count)
    plan = ShardPlan.from_assignments(
        {
            name: home if name.startswith("x0") else shard_count - 1 - home
            for name in documents
        },
        shard_count,
    )
    executors = [ShardExecutor(i) for i in range(shard_count)]
    for name in sorted(documents):
        executors[plan.shard_of(name)].load_document(name, documents[name])
    coordinator = CorpusCoordinator(executors, plan)
    coordinator.define_view("v", view_text)

    # Documents of its own: an edit rewrites the trees it reaches.
    reference = XMLDatabase()
    for name, document in _two_copies(seed)[1].items():
        reference.load_document(name, document)
    single = KeywordSearchEngine(reference)
    sview = single.define_view("v", view_text)

    ops = generate_mutation_stream(
        seed, generate_case(seed).database, count=6
    )
    try:
        for step, op in enumerate(ops):
            # apply_mutation works on anything exposing the update API —
            # here the coordinator, which must route to the owning shard.
            op = dataclasses.replace(op, doc=f"x0{op.doc}")
            apply_mutation(coordinator, op)
            apply_mutation(reference, op)
            for keywords, conjunctive in itertools.product(
                case.keyword_sets, (True, False)
            ):
                context = (
                    f"seed={seed} shards={shard_count} step={step} "
                    f"op={op.describe()} kw={keywords} conj={conjunctive} "
                    "[sharded]"
                )
                cout = coordinator.search_detailed(
                    "v", keywords, TOP_K, conjunctive
                )
                sout = single.search_detailed(
                    sview, keywords, TOP_K, conjunctive
                )
                assert_outcomes_equivalent(cout, sout, keywords, context)
                assert cout.idf == sout.idf, f"{context}: idf not bit-identical"
                for cres, sres in zip(cout.results, sout.results):
                    assert cres.score == sres.score, (
                        f"{context}: merged score not bit-identical"
                    )
                    assert cres.scored.index == sres.scored.index, context
    finally:
        coordinator.close()
