"""The four-tier query cache: LRU mechanics, engine integration, the
skeleton tier, and randomized invalidation properties."""

import random
import sys
import threading
import time

import pytest

from repro.core.cache import LRUCache, QueryCache
from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import build_skeleton
from tests.conftest import REVIEWS_XML


def accounted_keys(cache: LRUCache) -> set:
    """The keys whose slot carries a value, its bytes and a use stamp,
    once the byte gauge is checked to be the sum of the slots' bytes."""
    assert cache.memory_bytes == sum(slot[1] for slot in cache._data.values())
    return {key for key, slot in cache._data.items() if len(slot) == 3}


class TestLRUCache:
    def test_get_put_and_stats(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_put_existing_key_updates(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_invalidate_where(self):
        cache = LRUCache(8)
        cache.put(("x", 1), "a")
        cache.put(("y", 2), "b")
        assert cache.invalidate_where(lambda k: k[0] == "x") == 1
        assert ("x", 1) not in cache and ("y", 2) in cache

    def test_clear(self):
        cache = LRUCache(8)
        cache.put("a", 1)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_rekey_overwrite_leaves_the_moved_entry_most_recent(self):
        cache = LRUCache(8)
        cache.put(("d", 2), "displaced")
        cache.put(("x", 0), "other")
        cache.put(("d", 1), "migrating")
        moved = cache.rekey_where(
            lambda key: key == ("d", 1), lambda key: ("d", 2)
        )
        assert moved == [(("d", 2), "migrating")]
        # Not at the displaced key's LRU-end slot: the next victim is
        # the untouched entry.
        assert cache.items() == [
            (("x", 0), "other"),
            (("d", 2), "migrating"),
        ]

    @staticmethod
    def _twins(capacity):
        """Two caches with the same entries, puts and LRU order."""
        pair = LRUCache(capacity), LRUCache(capacity)
        for cache in pair:
            for key in "abcde":
                cache.put(key, key.upper())
        return pair

    @pytest.mark.parametrize("capacity", [-1, 0, 3, 8])
    def test_get_many_is_that_sequence_of_gets(self, capacity):
        # Hits, misses, a repeated key and a key evicted before the read.
        keys = ["c", "x", "a", "c", "e", "b"]
        batched, single = self._twins(capacity)
        assert batched.get_many(keys) == [single.get(key) for key in keys]
        assert batched.stats() == single.stats()
        assert batched.items() == single.items()
        assert batched.get_many([]) == [] and batched.stats() == single.stats()

    def test_get_many_stamps_every_hit_with_one_use(self):
        cache = LRUCache(4)
        for key in "abc":
            cache.put(key, key)
        before = time.perf_counter()
        cache.get_many(["c", "a", "x"])
        stamps = {key: cache._data[key][2] for key in "abc"}
        assert stamps["a"] == stamps["c"] >= before > stamps["b"]
        # Within a scan that began before the read, the unread entry is
        # evictable and the read ones are protected, exactly as after
        # per-key gets.
        cache.put("d", "d", before)
        cache.put("e", "e", before)  # evicts b
        cache.put("f", "f", before)  # would evict c: turned away
        assert [key for key, _ in cache.items()] == ["c", "a", "d", "e"]
        assert cache.evictions == 1 and cache.bypassed == 1


class TestShardedLRUCache:
    """The query cache's tiers once were hash-partitioned into slices; a
    tier is now one LRU, so whatever keys are hot may use its whole
    capacity."""

    def test_get_put_across_shards(self):
        # 32 (view, doc) coordinates in a 32-slot tier: all resident,
        # however their names hash.
        tier = QueryCache(skeleton_capacity=32).skeletons
        keys = [("v", f"d{i}.xml", 1, "h") for i in range(32)]
        for key in keys:
            tier.put(key, key)
        assert len(tier) == 32
        assert all(tier.get(key) == key for key in keys)
        assert tier.evictions == 0

    def test_zero_capacity_disables(self):
        qc = QueryCache(skeleton_capacity=0)
        qc.skeletons.put(("v", "d.xml", 1, "h"), "skel")
        assert qc.skeletons.get(("v", "d.xml", 1, "h")) is None
        assert len(qc.skeletons) == 0

    def test_invalidate_where_visits_every_shard(self):
        qc = QueryCache()
        for i in range(16):
            qc.skeletons.put(("v", f"d{i % 2}.xml", i, "h"), i)
        assert qc.invalidate_document("d1.xml") == 8
        assert len(qc.skeletons) == 8
        assert qc.stats()["skeleton"]["invalidations"] == 8


class _Sized:
    """A value reporting its own resident footprint (like skeletons)."""

    def __init__(self, memory_bytes: int):
        self.memory_bytes = memory_bytes


class TestByteBudgets:
    def test_gauge_tracks_puts_overwrites_and_evictions(self):
        cache = LRUCache(2)
        cache.put("a", _Sized(100))
        cache.put("b", _Sized(50))
        assert cache.memory_bytes == 150
        cache.put("a", _Sized(10))  # overwrite re-measures
        assert cache.memory_bytes == 60
        cache.put("c", _Sized(5))  # evicts b (LRU)
        assert cache.memory_bytes == 15

    def test_byte_budget_evicts_lru_until_under(self):
        cache = LRUCache(100, byte_budget=100)
        cache.put("a", _Sized(40))
        cache.put("b", _Sized(40))
        cache.get("a")  # refresh: b is now least recent
        cache.put("c", _Sized(40))
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.memory_bytes == 80
        assert cache.evictions == 1

    def test_oversized_entry_is_never_retained(self):
        cache = LRUCache(100, byte_budget=10)
        cache.put("huge", _Sized(1000))
        assert len(cache) == 0
        assert cache.memory_bytes == 0

    def test_unsized_values_cost_nothing(self):
        cache = LRUCache(100, byte_budget=10)
        cache.put("a", "plain string")
        cache.put("b", _Sized(3))
        assert "a" in cache and "b" in cache
        assert cache.memory_bytes == 3

    def test_gauge_through_invalidate_and_clear(self):
        cache = LRUCache(8)
        cache.put(("x", 1), _Sized(10))
        cache.put(("y", 2), _Sized(20))
        cache.invalidate_where(lambda k: k[0] == "x")
        assert cache.memory_bytes == 20
        cache.clear()
        assert cache.memory_bytes == 0

    def test_gauge_follows_rekeyed_entries(self):
        cache = LRUCache(8)
        cache.put(("doc", 1), _Sized(10))
        cache.put(("doc", 2), _Sized(7))  # will be overwritten by the move
        moved = cache.rekey_where(
            lambda k: k[1] == 1, lambda k: (k[0], 2)
        )
        assert [key for key, _ in moved] == [("doc", 2)]
        # The moved entry keeps its original measurement; the
        # overwritten entry's bytes are forgotten.
        assert cache.memory_bytes == 10

    def test_sharded_capacity_sums_exactly_to_bound(self):
        # A tier holds exactly its capacity — never more, and (unlike a
        # tier split into hash slices) never less because of how the
        # resident keys happen to hash.
        for capacity in (8, 10, 7, 5, 1, 0):
            tier = QueryCache(skeleton_capacity=capacity).skeletons
            for i in range(capacity * 3 + 5):
                tier.put(("v", f"d{i}", 1, "h"), i)
            assert len(tier) == capacity

    def test_sharded_memory_bytes_aggregates(
        self, bookrev_db, bookrev_view_text
    ):
        # A coordinator's byte gauge is its shard engines' tiers, summed.
        from repro.core.ingest import ingest_corpus

        documents = {
            name: bookrev_db.get(name).serialized
            for name in bookrev_db.document_names()
        }
        coordinator, _ = ingest_corpus(
            documents, {"v": bookrev_view_text}, shard_count=2
        )
        with coordinator:
            gauge = coordinator.stats()["cache"]["skeleton"]["memory_bytes"]
            slices = [
                executor.engine.cache.skeletons.memory_bytes
                for executor in coordinator.executors
            ]
        assert gauge == sum(slices) > 0

    def test_query_cache_threads_budgets_through(self):
        qc = QueryCache(
            skeleton_byte_budget=80,
            pdt_byte_budget=160,
        )
        assert qc.skeletons.byte_budget == 80
        assert qc.pdts.byte_budget == 160
        assert qc.evaluated.byte_budget is None
        for i in range(20):
            qc.skeletons.put(("v", f"d{i}", 1, "h"), _Sized(10))
        # The whole budget, whichever documents the entries belong to.
        assert qc.skeletons.memory_bytes == 80
        assert qc.stats()["skeleton"]["memory_bytes"] == 80


def _stepped_scanner(
    cache, keys, cycles, hits_per_cycle, value=lambda key: key
):
    """``cycles`` queries each sweeping ``keys`` in order — get, build
    and put on a miss, every put carrying its sweep's start — yielding
    after every key so two scanners can be interleaved step by step
    without threads.  Appends each cycle's hit count."""
    for _ in range(cycles):
        started = time.perf_counter()
        hits_per_cycle.append(0)
        for key in keys:
            if cache.get(key) is None:
                cache.put(key, value(key), started)
            else:
                hits_per_cycle[-1] += 1
            yield


def _scan(cache, keys, value=lambda key: key):
    """One uninterrupted sweep; returns its hits."""
    hits = []
    for _ in _stepped_scanner(cache, keys, 1, hits, value):
        pass
    return hits[0]


class TestScanResistance:
    """A put never evicts an entry used since its query began."""

    def test_cyclic_scan_keeps_capacity_hits_per_cycle(self):
        # Plain LRU serves zero hits here at any capacity below the
        # sweep (sequential flooding).
        keys = [("k", i) for i in range(12)]
        cache = LRUCache(8)
        assert _scan(cache, keys) == 0
        for _ in range(4):
            assert _scan(cache, keys) == 8
        assert cache.evictions == 0
        assert cache.bypassed == 5 * 4
        assert [key for key in keys if key in cache] == keys[:8]

    def test_two_interleaved_scanners_keep_capacity_hits_each(self):
        # The second scanner starts later and trails the first by five
        # keys, so each one's start stamp lies in the middle of the
        # other's sweep; a per-query *token* stamp collapses here.
        keys = [("k", i) for i in range(12)]
        cache = LRUCache(8)
        first_hits, second_hits = [], []
        first = _stepped_scanner(cache, keys, 5, first_hits)
        for _ in range(5):
            next(first)
        second = _stepped_scanner(cache, keys, 5, second_hits)
        live = [first, second]
        while live:
            for scanner in list(live):
                if next(scanner, "done") == "done":
                    live.remove(scanner)
        assert first_hits[1:] == [8] * 4
        assert second_hits[1:] == [8] * 4
        assert cache.evictions == 0

    def test_arbitrary_residents_converge_to_the_prefix_in_one_cycle(self):
        keys = [("k", i) for i in range(12)]
        rng = random.Random(3)
        for _ in range(20):
            cache = LRUCache(8)
            for key in rng.sample(keys, 8):
                cache.put(key, key)
            _scan(cache, keys)
            assert [key for key in keys if key in cache] == keys[:8]
            assert _scan(cache, keys) == 8

    def test_a_later_scan_still_evicts_idle_entries(self):
        # Recency survives: protection lasts one query, not forever.
        cache = LRUCache(4)
        first = [("a", i) for i in range(4)]
        second = [("b", i) for i in range(4)]
        _scan(cache, first)
        _scan(cache, second)
        assert all(key in cache for key in second)
        assert not any(key in cache for key in first)
        assert cache.evictions == 4
        assert cache.bypassed == 0

    def test_never_seen_key_evicts_the_lru_tail(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3, time.perf_counter())
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_byte_budget_obeys_the_same_rule(self):
        keys = [("k", i) for i in range(6)]
        cache = LRUCache(100, byte_budget=40)
        sized = lambda key: _Sized(10)
        assert _scan(cache, keys, sized) == 0
        for _ in range(3):
            assert _scan(cache, keys, sized) == 4
        assert cache.memory_bytes == 40
        assert cache.evictions == 0
        assert cache.bypassed == 2 * 4

    def test_admits_predicts_put_and_counts_the_refusal(self):
        cache = LRUCache(2)
        started = time.perf_counter()
        assert cache.admits("a", started)
        cache.put("a", 1, started)
        cache.put("b", 2, started)
        assert cache.admits("a", started)  # resident: a replacement
        assert not cache.admits("c", started)
        assert cache.bypassed == 1
        assert cache.admits("c")  # no scan start: plain LRU
        assert cache.admits("c", time.perf_counter())  # a later query
        assert not LRUCache(0).admits("a")

    def test_use_stamps_live_and_die_with_their_entries(self):
        cache = LRUCache(3)
        for i in range(5):  # two evictions
            cache.put(("doc", 1, i), i)
        assert accounted_keys(cache) == set(cache._data)
        before = {key: slot[1:] for key, slot in cache._data.items()}
        moved = cache.rekey_where(
            lambda k: k[2] == 4, lambda k: (k[0], 2, k[2])
        )
        assert [key for key, _ in moved] == [("doc", 2, 4)]
        assert cache._data[("doc", 2, 4)][1:] == before[("doc", 1, 4)]
        assert accounted_keys(cache) == set(cache._data)
        cache.invalidate_where(lambda k: k[2] == 3)
        assert accounted_keys(cache) == set(cache._data)
        cache.clear()
        assert cache._data == {} and cache.memory_bytes == 0

    def test_rekeyed_entry_stays_protected_within_its_scan(self):
        cache = LRUCache(2)
        started = time.perf_counter()
        cache.put(("doc", 1), "a", started)
        cache.put(("other", 1), "b", started)
        cache.rekey_where(lambda k: k[0] == "doc", lambda k: (k[0], 2))
        cache.get(("other", 1))  # the moved entry is now the LRU victim
        cache.put(("new", 1), "c", started)
        assert ("doc", 2) in cache and ("new", 1) not in cache


class TestQueryCache:
    def test_invalidate_document_hits_all_tiers(self):
        qc = QueryCache()
        qpt = object()
        qc.skeletons.put(qc.skeleton_key("v", "d.xml", 1, qpt), "skel")
        qc.pdts.put(qc.pdt_key("v", "d.xml", 1, qpt, "k"), "pdt")
        qc.pdts.put(qc.pdt_key("v", "other.xml", 2, qpt, "k"), "pdt2")
        assert qc.invalidate_document("d.xml") == 2
        assert len(qc.skeletons) == 0
        assert len(qc.pdts) == 1

    def test_invalidate_view_drops_skeletons_and_pdts(self):
        qc = QueryCache()
        qpt = object()
        qc.skeletons.put(qc.skeleton_key("v", "d.xml", 1, qpt), "skel")
        qc.pdts.put(qc.pdt_key("v", "d.xml", 1, qpt, "k"), "pdt")
        qc.pdts.put(qc.pdt_key("w", "d.xml", 1, qpt, "k"), "pdt-w")
        assert qc.invalidate_view("v") == 2
        assert len(qc.pdts) == 1
        assert len(qc.skeletons) == 0

    def test_reload_generation_makes_stale_writes_unreadable(self):
        # A write that raced with a document reload is keyed by the dead
        # generation: even if invalidation missed it, it can never hit.
        qc = QueryCache()
        qpt = object()
        qc.skeletons.put(qc.skeleton_key("v", "d.xml", 1, qpt), "stale")
        assert qc.skeletons.get(qc.skeleton_key("v", "d.xml", 2, qpt)) is None

    def test_stats_shape(self):
        stats = QueryCache().stats()
        assert set(stats) == {"prepared", "skeleton", "pdt", "evaluated"}
        assert stats["pdt"] == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
            "bypassed": 0,
            "memory_bytes": 0,
            "hit_rate": 0.0,
        }

    def test_retired_prepared_entry_reads_all_zero(self, bookrev_db, bookrev_view_text):
        # No tier stands behind "prepared" any more; the entry stays for
        # the readers of its hit rate and never counts anything.
        engine = KeywordSearchEngine(bookrev_db)
        view = engine.define_view("bookrevs", bookrev_view_text)
        for keywords in (["xml"], ["xml"], ["search", "xml"]):
            engine.search(view, keywords)
        stats = engine.cache.stats()
        assert stats["pdt"]["hits"] > 0
        assert stats["prepared"] == QueryCache().stats()["pdt"]

    def test_tier_totals(self):
        qc = QueryCache()
        assert [
            tier.capacity for tier in (qc.skeletons, qc.pdts, qc.evaluated)
        ] == [64, 4096, 64]
        assert [
            tier.byte_budget for tier in (qc.skeletons, qc.pdts, qc.evaluated)
        ] == [None, 1 << 20, None]


@pytest.fixture()
def engine(bookrev_db):
    return KeywordSearchEngine(bookrev_db)


@pytest.fixture()
def view(engine, bookrev_view_text):
    return engine.define_view("bookrevs", bookrev_view_text)


def assert_zero_probes(db):
    for name in db.document_names():
        indexed = db.get(name)
        assert indexed.path_index.probe_count == 0
        assert indexed.inverted_index.probe_count == 0


def path_probes(db):
    return sum(
        db.get(name).path_index.probe_count for name in db.document_names()
    )


def inv_probes(db):
    return sum(
        db.get(name).inverted_index.probe_count
        for name in db.document_names()
    )


class TestEngineCaching:
    def test_repeat_query_issues_zero_probes(self, engine, view):
        first = engine.search_detailed(view, ["xml", "search"], top_k=10)
        assert set(first.cache_hits.values()) == {"miss"}
        engine.database.reset_access_counters()
        second = engine.search_detailed(view, ["xml", "search"], top_k=10)
        assert_zero_probes(engine.database)
        assert set(second.cache_hits.values()) == {"pdt"}

    def test_a_keyword_repeated_in_another_set_is_never_reprobed(
        self, engine, view
    ):
        # The PDT tier holds one tf column per (document, keyword), so a
        # never-seen set whose keywords were all swept before does no PDT
        # work; a document is "pdt" only when every keyword hit.
        engine.warm_view(view)
        engine.database.reset_access_counters()
        first = engine.search_detailed(view, ["xml", "search"])
        assert inv_probes(engine.database) == 2 * len(view.qpts)
        assert set(first.cache_hits.values()) == {"skeleton"}
        engine.database.reset_access_counters()
        second = engine.search_detailed(view, ["xml", "engines"])
        assert inv_probes(engine.database) == len(view.qpts)  # "engines"
        assert set(second.cache_hits.values()) == {"skeleton"}
        engine.database.reset_access_counters()
        third = engine.search_detailed(view, ["engines", "search"])
        assert_zero_probes(engine.database)
        assert set(third.cache_hits.values()) == {"pdt"}

    def test_cached_results_identical(self, engine, view):
        first = engine.search(view, ["xml", "search"], top_k=10)
        second = engine.search(view, ["xml", "search"], top_k=10)
        assert [(r.rank, r.score) for r in first] == [
            (r.rank, r.score) for r in second
        ]
        assert [r.to_xml() for r in first] == [r.to_xml() for r in second]

    def test_disjoint_keywords_hit_skeleton_tier(self, engine, view):
        # The acceptance-criterion scenario: a second query on the same
        # (view, doc) with a *disjoint* keyword set reuses the cached
        # structural skeleton — zero path-index probes, only the
        # per-keyword inverted-list probes.
        engine.search(view, ["xml"], top_k=5)
        engine.database.reset_access_counters()
        outcome = engine.search_detailed(view, ["search"], top_k=5)
        assert set(outcome.cache_hits.values()) == {"skeleton"}
        assert path_probes(engine.database) == 0
        assert inv_probes(engine.database) > 0
        assert engine.stats()["cache"]["skeleton"]["hits"] == len(view.qpts)
        # Phase attribution: the keyword half is paid, not the structural.
        assert outcome.timings.pdt_postings > 0
        assert outcome.timings.pdt_skeleton < outcome.timings.pdt

    def test_skeleton_reuse_results_identical_to_cold(
        self, bookrev_db, bookrev_view_text
    ):
        cold = KeywordSearchEngine(bookrev_db, enable_cache=False)
        warm = KeywordSearchEngine(bookrev_db)
        cv = cold.define_view("bookrevs", bookrev_view_text)
        wv = warm.define_view("bookrevs", bookrev_view_text)
        warm.search(wv, ["intelligence"], top_k=10)  # warm the skeletons
        for keywords in (["xml"], ["search"], ["xml", "search"]):
            got = warm.search(wv, keywords, top_k=10)
            want = cold.search(cv, keywords, top_k=10)
            assert [(r.rank, r.score) for r in got] == [
                (r.rank, r.score) for r in want
            ]
            assert [r.to_xml() for r in got] == [r.to_xml() for r in want]

    def test_skeleton_tier_disabled_falls_back(self, bookrev_db, bookrev_view_text):
        engine = KeywordSearchEngine(
            bookrev_db, cache=QueryCache(skeleton_capacity=0)
        )
        view = engine.define_view("bookrevs", bookrev_view_text)
        engine.search(view, ["xml"], top_k=5)
        outcome = engine.search_detailed(view, ["search"], top_k=5)
        # No skeleton tier: a disjoint keyword set is a full miss again.
        assert set(outcome.cache_hits.values()) == {"miss"}

    def test_skeleton_and_pdt_tiers_together_avoid_all_probes(
        self, bookrev_db, bookrev_view_text
    ):
        # Evaluated tier off: a repeat query finds the skeleton and every
        # keyword's tf column in cache — no probe of any kind.
        engine = KeywordSearchEngine(
            bookrev_db, cache=QueryCache(evaluated_capacity=0)
        )
        view = engine.define_view("bookrevs", bookrev_view_text)
        engine.search(view, ["xml", "search"])
        bookrev_db.reset_access_counters()
        outcome = engine.search_detailed(view, ["xml", "search"])
        assert set(outcome.cache_hits.values()) == {"pdt"}
        assert_zero_probes(bookrev_db)

    def test_skeleton_miss_under_held_columns_probes_no_inverted_list(
        self, bookrev_db, bookrev_view_text
    ):
        # Skeleton tier off: every query rebuilds every skeleton from its
        # path probes, but the PDT tier already holds each keyword's tf
        # column, so the keyword half has nothing to probe.
        engine = KeywordSearchEngine(
            bookrev_db, cache=QueryCache(skeleton_capacity=0)
        )
        view = engine.define_view("bookrevs", bookrev_view_text)
        first = engine.search(view, ["xml", "search"], top_k=10)
        bookrev_db.reset_access_counters()
        outcome = engine.search_detailed(view, ["xml", "search"], top_k=10)
        assert set(outcome.cache_hits.values()) == {"miss"}
        assert inv_probes(bookrev_db) == 0
        assert all(
            bookrev_db.get(doc).path_index.probe_count > 0
            for doc in view.document_names
        )
        assert [(r.rank, r.score) for r in outcome.results] == [
            (r.rank, r.score) for r in first
        ]

    def test_skeleton_miss_probes_exactly_the_missing_keyword(
        self, bookrev_db, bookrev_view_text, monkeypatch
    ):
        engine = KeywordSearchEngine(
            bookrev_db, cache=QueryCache(skeleton_capacity=0)
        )
        view = engine.define_view("bookrevs", bookrev_view_text)
        engine.search(view, ["xml"])
        probed = []
        for doc in view.document_names:
            index = bookrev_db.get(doc).inverted_index
            lookup = index.lookup
            monkeypatch.setattr(
                index, "lookup",
                lambda keyword, doc=doc, lookup=lookup: (
                    probed.append((doc, keyword)) or lookup(keyword)
                ),
            )
        outcome = engine.search_detailed(view, ["xml", "search"])
        assert set(outcome.cache_hits.values()) == {"miss"}
        assert sorted(probed) == sorted(
            (doc, "search") for doc in view.document_names
        )

    def test_disabled_cache_probes_every_time(self, bookrev_db, bookrev_view_text):
        engine = KeywordSearchEngine(bookrev_db, enable_cache=False)
        assert engine.cache is None
        view = engine.define_view("bookrevs", bookrev_view_text)
        engine.search(view, ["xml"])
        bookrev_db.reset_access_counters()
        outcome = engine.search_detailed(view, ["xml"])
        assert set(outcome.cache_hits.values()) == {"miss"}
        assert engine.stats()["cache"] == {}
        probes = path_probes(bookrev_db) + inv_probes(bookrev_db)
        assert probes > 0

    def test_reload_invalidates_document_entries(
        self, engine, view, bookrev_db
    ):
        engine.search(view, ["xml", "search"])
        reviews_text = bookrev_db.get("reviews.xml").serialized
        bookrev_db.drop_document("reviews.xml")
        bookrev_db.load_document("reviews.xml", reviews_text)
        outcome = engine.search_detailed(view, ["xml", "search"])
        # Rebuilt for the reloaded document, still cached for the other.
        assert outcome.cache_hits["reviews.xml"] == "miss"
        assert outcome.cache_hits["books.xml"] == "pdt"
        assert len(outcome.results) == 2

    def test_redefining_view_invalidates_pdts_and_skeletons(
        self, engine, view, bookrev_view_text
    ):
        engine.search(view, ["xml", "search"])
        assert len(engine.cache.skeletons) > 0
        fresh = engine.define_view("bookrevs", bookrev_view_text)
        assert len(engine.cache.skeletons) == 0
        outcome = engine.search_detailed(fresh, ["xml", "search"])
        assert outcome.cache_hits["books.xml"] not in ("pdt", "skeleton")

    def test_inline_views_do_not_alias_in_pdt_tier(self, engine, bookrev_db):
        # Two different inline queries share the "<inline>" view name; the
        # PDT/skeleton tiers must not serve one the other's trees.
        q1 = (
            "for $b in fn:doc(books.xml)/books//book "
            "where $b/year > 1995 and $b ftcontains('xml') return $b"
        )
        q2 = (
            "for $b in fn:doc(books.xml)/books//book "
            "where $b ftcontains('xml') return $b"
        )
        assert len(engine.execute(q2, top_k=10)) > len(engine.execute(q1, top_k=10))
        # Run q1 again after q2: results must match the first q1 run.
        assert len(engine.execute(q1, top_k=10)) == 1

    def test_execute_does_not_populate_cache(self, engine, bookrev_db):
        # Inline views build throwaway QPTs; caching them would only fill
        # the LRU with identity-keyed entries that can never hit.
        engine.execute(
            "for $b in fn:doc(books.xml)/books//book "
            "where $b ftcontains('xml') return $b"
        )
        assert len(engine.cache.skeletons) == 0
        assert len(engine.cache.pdts) == 0

    def test_discarded_engine_is_garbage_collected(self, bookrev_db):
        import gc
        import weakref

        engine = KeywordSearchEngine(bookrev_db)
        ref = weakref.ref(engine)
        del engine
        gc.collect()
        assert ref() is None  # the database hook holds it only weakly

    def test_cache_stats_accumulate(self, engine, view):
        engine.search(view, ["xml"])
        engine.search(view, ["xml"])
        stats = engine.cache.stats()
        assert stats["pdt"]["hits"] > 0
        assert stats["pdt"]["misses"] > 0
        assert stats["skeleton"]["misses"] > 0


class TestInvalidationProperties:
    """Hypothesis-style interleavings of load/drop/redefine/search.

    A seeded random walk drives the mutation surface of the system —
    document reloads (with *changed* content), view redefinitions (with
    *changed* predicates), and searches with varying keyword sets —
    against a cached engine.  After every step the cached engine's
    results must match a fresh cache-less engine on the same database:
    any stale skeleton, tf column or evaluated result surfaces as a
    mismatch.
    """

    KEYWORD_SETS = [
        ("xml",),
        ("search",),
        ("xml", "search"),
        ("intelligence",),
        ("engines", "read"),
    ]

    @staticmethod
    def _books_xml(year_of_book3):
        return f"""<books>
<book isbn="111-11-1111"><title>XML Web Services</title>
  <publisher>Prentice Hall</publisher><year>2004</year></book>
<book isbn="222-22-2222"><title>Artificial Intelligence</title>
  <publisher>Prentice Hall</publisher><year>2002</year></book>
<book isbn="333-33-3333"><title>Old XML Book</title>
  <year>{year_of_book3}</year></book>
</books>"""

    @staticmethod
    def _view_text(year):
        return f"""
for $book in fn:doc(books.xml)/books//book
where $book/year > {year}
return <bookrevs>
   <book> {{$book/title}} </book>,
   {{for $rev in fn:doc(reviews.xml)/reviews//review
    where $rev/isbn = $book/isbn
    return $rev/content}}
</bookrevs>
"""

    def _assert_fresh_equivalent(self, db, engine, view, keywords):
        fresh = KeywordSearchEngine(db, enable_cache=False)
        fresh_view = fresh.define_view("oracle", view.text)
        got = engine.search(view, keywords, top_k=10)
        want = fresh.search(fresh_view, keywords, top_k=10)
        assert [(r.rank, r.score) for r in got] == [
            (r.rank, r.score) for r in want
        ]
        assert [r.to_xml() for r in got] == [r.to_xml() for r in want]

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_random_interleavings_never_serve_stale_state(
        self, bookrev_db, seed
    ):
        rng = random.Random(seed)
        db = bookrev_db
        engine = KeywordSearchEngine(db)
        year = 1995
        view = engine.define_view("bookrevs", self._view_text(year))
        book3_year = 1990
        for _ in range(25):
            op = rng.choice(
                ["search", "search", "reload_books", "redefine", "reload_reviews"]
            )
            if op == "reload_books":
                # Changed content: book 3's year flips across the view's
                # predicate threshold, so a stale skeleton would change
                # the result set, not just annotations.
                book3_year = 2001 if book3_year == 1990 else 1990
                db.drop_document("books.xml")
                db.load_document("books.xml", self._books_xml(book3_year))
            elif op == "reload_reviews":
                text = db.get("reviews.xml").serialized
                db.drop_document("reviews.xml")
                db.load_document("reviews.xml", text)
            elif op == "redefine":
                year = rng.choice([1989, 1995, 2003])
                view = engine.define_view("bookrevs", self._view_text(year))
            keywords = rng.choice(self.KEYWORD_SETS)
            self._assert_fresh_equivalent(db, engine, view, keywords)

    @pytest.mark.parametrize("seed", [3, 9])
    def test_drop_document_always_rejects_stale_views(self, bookrev_db, seed):
        from repro.errors import StaleViewError

        rng = random.Random(seed)
        engine = KeywordSearchEngine(bookrev_db)
        view = engine.define_view("bookrevs", self._view_text(1995))
        engine.search(view, ["xml"])
        dropped = rng.choice(["books.xml", "reviews.xml"])
        text = bookrev_db.get(dropped).serialized
        bookrev_db.drop_document(dropped)
        with pytest.raises(StaleViewError):
            engine.search(view, ["xml"])
        bookrev_db.load_document(dropped, text)
        self._assert_fresh_equivalent(bookrev_db, engine, view, ("xml",))


class TestEvaluatedTier:
    """The fourth tier: keyword-independent evaluated view results."""

    def test_second_keyword_set_hits_evaluated_tier(self, engine, view):
        first = engine.search_detailed(view, ["xml"], top_k=5)
        assert first.evaluated_hit is False
        second = engine.search_detailed(view, ["search"], top_k=5)
        assert second.evaluated_hit is True
        assert engine.stats()["cache"]["evaluated"]["hits"] == 1

    def test_evaluated_results_identical_to_cold(
        self, bookrev_db, bookrev_view_text
    ):
        cold = KeywordSearchEngine(bookrev_db, enable_cache=False)
        warm = KeywordSearchEngine(bookrev_db)
        cv = cold.define_view("bookrevs", bookrev_view_text)
        wv = warm.define_view("bookrevs", bookrev_view_text)
        warm.search(wv, ["intelligence"], top_k=10)  # fill the tier
        for keywords in (["xml"], ["search"], ["xml", "search"]):
            got = warm.search_detailed(wv, keywords, top_k=10)
            want = cold.search_detailed(cv, keywords, top_k=10)
            assert got.evaluated_hit is True
            assert got.view_size == want.view_size
            assert [(r.rank, r.score) for r in got.results] == [
                (r.rank, r.score) for r in want.results
            ]
            assert [r.to_xml() for r in got.results] == [
                r.to_xml() for r in want.results
            ]

    def test_threads_racing_a_cold_entry_end_with_one_plan(
        self, engine, view, bookrev_db, bookrev_view_text
    ):
        """8 threads x 50 searches start on a cold entry: racing misses
        may each evaluate and put, but one entry — one plan — is left,
        every later search sums over it, and no ranking differs from a
        cache-free engine's."""
        keyword_sets = [("xml",), ("search",), ("xml", "search"), ("web",)]
        cold = KeywordSearchEngine(bookrev_db, enable_cache=False)
        cold_view = cold.define_view("bookrevs", bookrev_view_text)
        expected = {k: _ranking(cold, cold_view, k) for k in keyword_sets}
        barrier = threading.Barrier(8)
        wrong: list = []

        def client(offset):
            barrier.wait(timeout=30)
            for step in range(50):
                keywords = keyword_sets[(offset + step) % len(keyword_sets)]
                if _ranking(engine, view, keywords) != expected[keywords]:
                    wrong.append((offset, step, keywords))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        [(_, plan)] = engine.cache.evaluated.items()
        hits = engine.cache.stats()["evaluated"]["hits"]
        outcome = engine.search_detailed(view, ["xml"], top_k=10)
        assert outcome.evaluated_hit is True
        assert engine.cache.stats()["evaluated"]["hits"] == hits + 1
        [(_, served)] = engine.cache.evaluated.items()
        assert served is plan

    def test_reload_invalidates_evaluated_entries(
        self, engine, view, bookrev_db
    ):
        engine.search(view, ["xml"], top_k=5)
        reviews_text = bookrev_db.get("reviews.xml").serialized
        bookrev_db.drop_document("reviews.xml")
        bookrev_db.load_document("reviews.xml", reviews_text)
        outcome = engine.search_detailed(view, ["search"], top_k=5)
        assert outcome.evaluated_hit is False

    def test_redefining_view_invalidates_evaluated_entries(
        self, engine, view, bookrev_view_text
    ):
        engine.search(view, ["xml"], top_k=5)
        new_view = engine.define_view("bookrevs", bookrev_view_text)
        outcome = engine.search_detailed(new_view, ["search"], top_k=5)
        assert outcome.evaluated_hit is False

    def test_evaluated_tier_disabled_falls_back(
        self, bookrev_db, bookrev_view_text
    ):
        engine = KeywordSearchEngine(
            bookrev_db, cache=QueryCache(evaluated_capacity=0)
        )
        view = engine.define_view("bookrevs", bookrev_view_text)
        engine.search(view, ["xml"], top_k=5)
        outcome = engine.search_detailed(view, ["search"], top_k=5)
        assert outcome.evaluated_hit is False
        # Results are still correct without the tier.
        assert outcome.results

    def test_racing_put_under_old_expression_is_unreachable(self):
        """The evaluated key embeds the view *definition's* identity
        (its token): a put that races a same-QPT-structure redefinition
        (identical content hash, different return clause) lands under
        the dead definition and can never be served — the tier-level
        guarantee the content-hash rekeying must not lose."""
        from repro.storage.database import XMLDatabase

        db = XMLDatabase()
        db.load_document("d.xml", "<r><a><b>x</b></a></r>")
        engine = KeywordSearchEngine(db)
        text_one = 'for $a in fn:doc(d.xml)/r/a return <one>{ $a/b }</one>'
        text_two = 'for $a in fn:doc(d.xml)/r/a return <two>{ $a/b }</two>'
        first = engine.define_view("v", text_one)
        stale_nodes = tuple(engine.evaluate_view("v", materialize=False))
        assert all(node.tag == "one" for node in stale_nodes)
        second = engine.define_view("v", text_two)
        # Identical QPTs: only the constructor tag differs.
        qpt_hash = second.qpts["d.xml"].content_hash
        assert first.qpts["d.xml"].content_hash == qpt_hash
        # Simulate the racing put: re-insert the old definition's result
        # under the *old expression's* key after the redefinition.
        generation = db.get("d.xml").generation
        stale_key = engine.cache.evaluated_key(
            "v", first.token, (("d.xml", generation, qpt_hash),)
        )
        engine.cache.evaluated.put(stale_key, stale_nodes)
        results = engine.evaluate_view("v", materialize=False)
        assert results and all(node.tag == "two" for node in results)

    def test_inline_views_never_cached(self, engine, bookrev_db):
        text = (
            "for $book in fn:doc(books.xml)/books//book\n"
            "where $book ftcontains('xml')\n"
            "return $book"
        )
        engine.execute(text, top_k=5)
        engine.execute(text, top_k=5)
        assert len(engine.cache.evaluated) == 0


def _library_engine(doc_count, **cache_options):
    """A view of ``doc_count`` one-document fragments, swept in document
    order by every query."""
    from repro.storage.database import XMLDatabase

    database = XMLDatabase()
    fragments = []
    for number in range(doc_count):
        name = f"doc{number}"
        database.load_document(
            name,
            f"<lib><book><title>xml {number}</title>"
            f"<body>query index {'xml ' * number}</body></book></lib>",
        )
        fragments.append(
            f"(for $b in fn:doc({name})//book "
            "return <hit>{$b/title}{$b/body}</hit>)"
        )
    engine = KeywordSearchEngine(
        database, cache=QueryCache(**cache_options)
    )
    engine.define_view("lib", "(" + ",\n".join(fragments) + ")")
    return engine


class TestSweepLargerThanTier:
    """A view with more documents than the skeleton tier holds."""

    KEYWORD_SETS = [("xml",), ("query",), ("index", "xml"), ("query", "xml")]

    def test_every_query_hits_a_full_tier(self):
        engine = _library_engine(6, skeleton_capacity=4)
        engine.warm_view("lib")
        for keywords in self.KEYWORD_SETS:
            outcome = engine.search_detailed("lib", keywords)
            hits = list(outcome.cache_hits.values())
            # "pdt": the skeleton hit and so did every keyword's column.
            assert sum(hit in {"skeleton", "pdt"} for hit in hits) == 4
            assert hits.count("miss") == 2
        stats = engine.cache.stats()["skeleton"]
        assert stats["evictions"] == 0
        assert stats["hits"] == 4 * len(self.KEYWORD_SETS)
        assert stats["bypassed"] == 2 * (1 + len(self.KEYWORD_SETS))
        assert engine.resident_documents("lib") == [
            "doc0", "doc1", "doc2", "doc3"
        ]

    def test_bypassed_skeletons_are_never_compressed_and_rank_the_same(self):
        # A skeleton the tier turns away is built, used and dropped: it
        # is never put, so never measured (the one per-entry cost left
        # now that nothing is compressed on the way in).
        engine = _library_engine(6, skeleton_capacity=4)
        ample = _library_engine(6)
        put = engine.cache.skeletons.put
        kept = []
        engine.cache.skeletons.put = lambda key, skeleton, scan_started: (
            kept.append(skeleton.doc_name) or put(key, skeleton, scan_started)
        )
        for keywords in self.KEYWORD_SETS:
            ranked = [
                (r.rank, r.score, r.scored.index)
                for r in engine.search("lib", keywords)
            ]
            assert ranked == [
                (r.rank, r.score, r.scored.index)
                for r in ample.search("lib", keywords)
            ]
        assert kept == ["doc0", "doc1", "doc2", "doc3"]
        assert engine.resident_documents("lib") == kept

    def test_shard_fragments_share_one_scan_start(self):
        # Six one-document fragments on one executor are one engine view,
        # so one sweep with one start: stamped per fragment, each put
        # would evict the previous fragment's skeleton and the tier would
        # serve nothing.
        from repro.core.placement import view_fragments
        from repro.core.sharding import ShardExecutor
        from repro.xquery.functions import inline_functions
        from repro.xquery.parser import parse_query

        source = _library_engine(6)
        executor = ShardExecutor(
            0, cache=QueryCache(skeleton_capacity=4)
        )
        for name in source.database.document_names():
            executor.adopt_document(source.database.get(name))
        expr = inline_functions(parse_query(source.get_view("lib").text))
        executor.register_view("lib", view_fragments(expr))
        executor.warm_view("lib")
        assert len(executor.resident_documents("lib")) == 4
        for keywords in self.KEYWORD_SETS:
            harvest = executor.collect("lib", keywords)
            hits = harvest.cache_hits.values()
            assert sum(hit in {"skeleton", "pdt"} for hit in hits) == 4
        assert executor.engine.cache.stats()["skeleton"]["evictions"] == 0

    def test_a_tier_as_large_as_the_view_keeps_every_skeleton(self):
        # Split into eight hash slices (four of one slot, four of none),
        # a 4-entry tier kept 3 of these 4 documents: d3 hashed to a
        # slice with no slot.
        from repro.storage.database import XMLDatabase

        database = XMLDatabase()
        fragments = []
        for name in ("d0", "d1", "d2", "d3"):
            database.load_document(
                name, f"<lib><book><title>xml {name}</title></book></lib>"
            )
            fragments.append(
                f"(for $b in fn:doc({name})//book return <hit>{{$b/title}}</hit>)"
            )
        engine = KeywordSearchEngine(
            database, cache=QueryCache(skeleton_capacity=4)
        )
        engine.define_view("lib", "(" + ",\n".join(fragments) + ")")
        engine.warm_view("lib")
        assert engine.resident_documents("lib") == ["d0", "d1", "d2", "d3"]

    def test_warmup_report_tells_small_tier_from_cold(self):
        from repro.serving.warmup import execute_warmup, plan_warmup

        engine = _library_engine(6, skeleton_capacity=4)
        report = execute_warmup(engine, plan_warmup(engine, ["lib"]))
        assert report.built_count == 6
        assert report.views == {"lib": {"warmed": 6, "resident": 4}}
        assert report.as_dict()["views"]["lib"]["resident"] == 4


def three_library_views(cache):
    """Three one-document views ``v0``–``v2`` over ``doc0``–``doc2``, on
    an engine with ``cache``: ``(database, engine)``."""
    from repro.storage.database import XMLDatabase

    database = XMLDatabase()
    for number in range(3):
        database.load_document(
            f"doc{number}",
            f"<lib><book><title>xml {number}</title>"
            f"<body>query index {'xml ' * number}</body></book>"
            f"<book><title>query {number}</title><body>xml</body></book>"
            "</lib>",
        )
    engine = KeywordSearchEngine(database, cache=cache)
    for number in range(3):
        engine.define_view(
            f"v{number}",
            f"for $b in fn:doc(doc{number})//book "
            "return <hit>{$b/title}{$b/body}</hit>",
        )
    return database, engine


def _ranking(engine, view, keywords):
    return [
        (r.rank, r.score, r.scored.statistics.byte_length)
        for r in engine.search(view, keywords, top_k=10)
    ]


class TestEvaluatedTierAcrossEdits:
    """A patchable edit migrates the evaluated entry of every patchable
    view — whichever skeleton serves its document next reads the entry's
    byte lengths at unchanged record positions."""

    # Under a <content>, a content node: no QPT node matches the new
    # element's path, yet the lengths scoring reads all shift.
    PATCHABLE = ("reviews.xml", "1.1.3", "<zaux>an aside on xml search</zaux>")

    def test_patchable_edit_keeps_the_cached_tuple(
        self, engine, view, bookrev_db, bookrev_view_text
    ):
        engine.search(view, ["xml"], top_k=10)
        [(old_key, cached)] = engine.cache.evaluated.items()
        misses = engine.cache.stats()["evaluated"]["misses"]

        delta = bookrev_db.insert_subtree(*self.PATCHABLE)
        assert delta.length_delta > 0

        # The entry's value is its statistics plan: the same object, so
        # no query after the edit walks a result tree again.
        [(new_key, kept)] = engine.cache.evaluated.items()
        assert kept is cached
        # A two-document view: only the edited coordinate moved on.
        assert new_key[:2] == old_key[:2]
        old_coords = {name: (gen, h) for name, gen, h in old_key[2]}
        new_coords = {name: (gen, h) for name, gen, h in new_key[2]}
        assert new_coords["books.xml"] == old_coords["books.xml"]
        assert new_coords["reviews.xml"] == (
            delta.new_generation, old_coords["reviews.xml"][1]
        )
        # The re-warm and the next query are hits: nothing re-evaluated.
        outcome = engine.search_detailed(view, ["search"], top_k=10)
        assert outcome.evaluated_hit is True
        assert engine.cache.stats()["evaluated"]["misses"] == misses

        cold = KeywordSearchEngine(bookrev_db, enable_cache=False)
        cold_view = cold.define_view("bookrevs", bookrev_view_text)
        for keywords in (["search"], ["xml"], ["xml", "search"]):
            assert _ranking(engine, view, keywords) == _ranking(
                cold, cold_view, keywords
            )
        # Every byte length the surviving plan reads — each cached result
        # node's, in this query's skeleton column at its record position —
        # is the cold one.
        engine.search_detailed(view, ["xml"], top_k=10)
        warm_skeletons = {
            key[1]: skeleton
            for key, skeleton in engine.cache.skeletons.items()
            if key[2] == bookrev_db.get(key[1]).generation
        }
        assert set(warm_skeletons) == set(view.qpts)
        cold_nodes = cold.evaluate_view(cold_view, materialize=False)
        cold_skeletons = {
            doc: build_skeleton(qpt, bookrev_db.get(doc).path_index)
            for doc, qpt in cold_view.qpts.items()
        }
        assert len(cold_nodes) == len(kept.nodes)

        def lengths(node, skeletons):
            return [
                (n.tag, skeletons[n.anno.doc].byte_lengths[n.anno.position])
                for n in node.iter()
                if n.anno
            ]

        for kept_node, cold_node in zip(kept.nodes, cold_nodes):
            assert lengths(kept_node, warm_skeletons) == lengths(
                cold_node, cold_skeletons
            )
        [(_, served)] = engine.cache.evaluated.items()
        assert served is cached
        warm_stats = engine.collect_view_statistics(view, ("xml",))
        cold_stats = cold.collect_view_statistics(cold_view, ("xml",))
        assert warm_stats.evaluated_hit is True
        assert [r.statistics for r in warm_stats.scored] == [
            r.statistics for r in cold_stats.scored
        ]

    def test_edit_then_undo_keeps_the_same_tuple_throughout(
        self, engine, view, bookrev_db
    ):
        before = _ranking(engine, view, ["xml"])
        [(_, cached)] = engine.cache.evaluated.items()
        delta = bookrev_db.insert_subtree(*self.PATCHABLE)
        assert _ranking(engine, view, ["xml"]) != before
        bookrev_db.delete_subtree("reviews.xml", delta.edit_id)
        assert _ranking(engine, view, ["xml"]) == before
        [(_, kept)] = engine.cache.evaluated.items()
        assert kept is cached
        assert engine.cache.stats()["evaluated"]["misses"] == 1

    def test_structural_edit_still_drops_and_re_evaluates(
        self, engine, view, bookrev_db, bookrev_view_text
    ):
        engine.search(view, ["xml"], top_k=10)
        [(_, cached)] = engine.cache.evaluated.items()
        misses = engine.cache.stats()["evaluated"]["misses"]
        bookrev_db.insert_subtree(
            "reviews.xml",
            "1",
            "<review><isbn>111-11-1111</isbn><content>more xml</content></review>",
        )
        # Re-warmed already, by one fresh evaluation — and one fresh
        # plan over its nodes, built with the entry.
        [(_, fresh)] = engine.cache.evaluated.items()
        assert fresh is not cached
        assert fresh.nodes and not set(fresh.nodes) & set(cached.nodes)
        assert engine.cache.stats()["evaluated"]["misses"] == misses + 1
        cold = KeywordSearchEngine(bookrev_db, enable_cache=False)
        cold_view = cold.define_view("bookrevs", bookrev_view_text)
        assert _ranking(engine, view, ["xml"]) == _ranking(
            cold, cold_view, ["xml"]
        )

    def test_entry_over_a_rebuilt_skeleton_survives_an_edit(self):
        """The skeleton was evicted and rebuilt *after* the evaluation, so
        the entry's result nodes point into a tree no skeleton holds: the
        edit still migrates the entry, and the lengths it reads come from
        whichever skeleton serves the document — patched or rebuilt."""
        database, engine = three_library_views(QueryCache(skeleton_capacity=2))
        engine.search("v0", ["xml"])  # evaluate v0 over skeleton tree T
        [(_, cached)] = engine.cache.evaluated.items()
        engine.search("v1", ["xml"])
        engine.search("v2", ["xml"])  # two slots: v0's skeleton is evicted
        assert engine.resident_documents("v0") == []
        outcome = engine.search_detailed("v0", ["query"])  # rebuilt: tree T'
        assert outcome.cache_hits == {"doc0": "miss"}
        assert outcome.evaluated_hit is True  # still the nodes over T

        misses = engine.cache.stats()["evaluated"]["misses"]
        database.insert_subtree("doc0", "1.1.2", "<zaux>xml xml aside</zaux>")
        survivors = [
            value for key, value in engine.cache.evaluated.items()
            if key[0] == "v0"
        ]
        assert survivors == [cached]
        assert engine.cache.stats()["evaluated"]["misses"] == misses

        cold = KeywordSearchEngine(database, enable_cache=False)
        cold.define_view(
            "v0",
            "for $b in fn:doc(doc0)//book return <hit>{$b/title}{$b/body}</hit>",
        )
        for keywords in (["xml"], ["query"]):
            assert _ranking(engine, "v0", keywords) == _ranking(
                cold, "v0", keywords
            )
        assert engine.cache.stats()["evaluated"]["misses"] == misses

    def test_apply_document_delta_migrates_patchable_entries(self):
        """Every patchable view's entry migrates, resident skeleton or
        not; unpatchable views' entries and entries over an older
        generation of the document are dropped."""
        cache = QueryCache()
        cache.skeletons.put(cache.skeleton_key("v", "d.xml", 1, "qh"), "skel")
        expr = object()
        coords = (("d.xml", 1, "qh"), ("e.xml", 7, "qe"))
        resident = cache.evaluated_key("v", expr, coords)
        not_resident = cache.evaluated_key("w", expr, coords)
        unpatchable = cache.evaluated_key("x", expr, coords)
        old_generation = cache.evaluated_key(
            "v", expr, (("d.xml", 0, "qh"), ("e.xml", 7, "qe"))
        )
        elsewhere = cache.evaluated_key("v", expr, (("e.xml", 7, "qe"),))
        for key in (
            resident, not_resident, unpatchable, old_generation, elsewhere
        ):
            cache.evaluated.put(key, key)
        cache.apply_document_delta("d.xml", 1, 2, {"v", "w"})
        migrated = (("d.xml", 2, "qh"), ("e.xml", 7, "qe"))
        assert dict(cache.evaluated.items()) == {
            cache.evaluated_key("v", expr, migrated): resident,
            cache.evaluated_key("w", expr, migrated): not_resident,
            elsewhere: elsewhere,
        }


def _reload_reviews(database):
    database.drop_document("reviews.xml")
    database.load_document(
        "reviews.xml", REVIEWS_XML.replace("all about search", "all about xml")
    )


def _tf_ranking(engine, view):
    return [
        (r.rank, r.score, r.tf("xml"), r.to_xml())
        for r in engine.search(view, ["xml"], top_k=10)
    ]


class TestTfColumnsAcrossEdits:
    """An edit that moves a keyword's tf inside a content subtree drops
    the document's cached tf columns: the next search of the keyword
    ranks, and reports tfs, exactly as a cache-free engine does."""

    EDITS = {
        # Under review 1's <content>: no QPT node matches the new element.
        "patchable-insert": lambda database: database.insert_subtree(
            "reviews.xml", "1.1.3", "<zaux>xml xml aside</zaux>"
        ),
        # Review 3's <content> is a view node: the skeleton is rebuilt.
        "in-view-replace": lambda database: database.replace_subtree(
            "reviews.xml", "1.3.3", "<content>xml xml search</content>"
        ),
        "reload": _reload_reviews,
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_next_search_reads_the_edited_tfs(
        self, engine, view, bookrev_db, bookrev_view_text, edit
    ):
        cold = KeywordSearchEngine(bookrev_db, enable_cache=False)
        cold_view = cold.define_view("bookrevs", bookrev_view_text)
        before = _tf_ranking(engine, view)
        assert before == _tf_ranking(cold, cold_view)

        def reviews_columns():
            return [
                k for k, _ in engine.cache.pdts.items() if k[1] == "reviews.xml"
            ]

        assert reviews_columns()
        self.EDITS[edit](bookrev_db)
        assert reviews_columns() == []
        after = _tf_ranking(engine, view)
        assert after != before
        assert after == _tf_ranking(cold, cold_view)
