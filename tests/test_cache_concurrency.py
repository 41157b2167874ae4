"""Concurrency stress: the query cache under multi-threaded load.

A tier's claims — no deadlocks, no corruption of its LRU chain,
counters that add up — are exercised directly on one ``LRUCache`` tier
and end-to-end through a shared ``KeywordSearchEngine`` hammered by
threads issuing mixed hot/cold queries.  Every join uses a timeout so a
deadlock fails the test instead of hanging the suite.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.cache import LRUCache
from repro.core.engine import KeywordSearchEngine

JOIN_TIMEOUT = 60.0


def run_threads(workers):
    threads = [threading.Thread(target=fn, daemon=True) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT)
    stuck = [t for t in threads if t.is_alive()]
    assert not stuck, f"{len(stuck)} worker(s) deadlocked or overran"


class TestShardedCacheStress:
    """One tier, one lock, many threads."""

    def test_mixed_get_put_invalidate_from_many_threads(self):
        cache = LRUCache(128)
        errors: list[BaseException] = []
        OPS = 3000
        lookups = [0] * 8

        def worker(worker_id: int):
            rng = random.Random(worker_id)
            try:
                for i in range(OPS):
                    doc = f"doc{rng.randrange(16)}"
                    key = (doc, rng.randrange(64))
                    roll = rng.random()
                    if roll < 0.45:
                        cache.put(key, (worker_id, i))
                    elif roll < 0.9:
                        lookups[worker_id] += 1
                        value = cache.get(key)
                        if value is not None:
                            assert isinstance(value, tuple) and len(value) == 2
                    elif roll < 0.97:
                        _ = key in cache
                    else:
                        cache.invalidate_where(lambda k, d=doc: k[0] == d)
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads([lambda w=w: worker(w) for w in range(8)])
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        # Counters add up: every get counted once, as a hit or a miss.
        stats = cache.stats_dict()
        assert stats["hits"] + stats["misses"] == sum(lookups) > 0
        # The LRU chain and its side table agree, within the capacity.
        assert len(cache) <= 128
        assert set(cache._meta) == set(cache._data)

    def test_concurrent_writers_one_hot_shard(self):
        # Every thread contends on the tier's one lock; the LRU chain
        # must stay consistent.
        cache = LRUCache(32)

        def worker(worker_id: int):
            for i in range(2000):
                cache.put(("hot", worker_id, i % 50), i)
                cache.get(("hot", worker_id, (i * 7) % 50))

        run_threads([lambda w=w: worker(w) for w in range(6)])
        stats = cache.stats
        assert stats.lookups == 6 * 2000
        assert len(cache) == 32
        assert set(cache._meta) == set(cache._data)


KEYWORD_SETS = [
    ("xml",),
    ("search",),
    ("xml", "search"),
    ("intelligence",),
    ("engines",),
    ("read", "search"),
]


class TestEngineConcurrency:
    @pytest.fixture()
    def engine(self, bookrev_db):
        return KeywordSearchEngine(bookrev_db)

    def test_mixed_hot_cold_queries_are_consistent(
        self, engine, bookrev_view_text, bookrev_db
    ):
        view = engine.define_view("bookrevs", bookrev_view_text)
        # Ground truth per keyword set, computed single-threaded without
        # a cache on the same database.
        oracle = KeywordSearchEngine(bookrev_db, enable_cache=False)
        oracle_view = oracle.define_view("oracle", bookrev_view_text)
        expected = {
            kws: [
                (r.rank, r.score, r.to_xml())
                for r in oracle.search(oracle_view, kws, top_k=10)
            ]
            for kws in KEYWORD_SETS
        }

        errors: list[BaseException] = []
        # Hot queries dominate; cold ones rotate through the full set so
        # every tier sees traffic.
        rngs = [random.Random(worker_id) for worker_id in range(8)]
        streams = [
            [
                KEYWORD_SETS[0]
                if rng.random() < 0.4
                else rng.choice(KEYWORD_SETS)
                for _ in range(40)
            ]
            for rng in rngs
        ]

        def worker(worker_id: int):
            try:
                for kws in streams[worker_id]:
                    results = engine.search(view, kws, top_k=10)
                    got = [(r.rank, r.score, r.to_xml()) for r in results]
                    assert got == expected[kws], f"divergence on {kws}"
            except BaseException as exc:
                errors.append(exc)

        run_threads([lambda w=w: worker(w) for w in range(8)])
        assert not errors, errors

        stats = engine.cache.stats()
        # One tf-column lookup per distinct keyword per document (2) of
        # every one of the 8 x 40 queries.
        assert stats["pdt"]["hits"] + stats["pdt"]["misses"] == 2 * sum(
            len(set(kws)) for stream in streams for kws in stream
        )
        assert stats["pdt"]["hits"] > 0

    def test_concurrent_redefinition_never_corrupts_results(
        self, engine, bookrev_view_text, bookrev_db
    ):
        view_box = {"view": engine.define_view("bookrevs", bookrev_view_text)}
        oracle = KeywordSearchEngine(bookrev_db, enable_cache=False)
        oracle_view = oracle.define_view("oracle", bookrev_view_text)
        expected = [
            (r.rank, r.score, r.to_xml())
            for r in oracle.search(oracle_view, ("xml", "search"), top_k=10)
        ]
        errors: list[BaseException] = []
        stop = threading.Event()

        def searcher(worker_id: int):
            try:
                while not stop.is_set():
                    results = engine.search(
                        view_box["view"], ("xml", "search"), top_k=10
                    )
                    got = [(r.rank, r.score, r.to_xml()) for r in results]
                    assert got == expected
            except BaseException as exc:
                errors.append(exc)

        def redefiner():
            try:
                for _ in range(25):
                    # Same text: every redefinition is semantically a
                    # no-op, but it swaps QPT identities and invalidates
                    # the skeleton/PDT tiers mid-flight.
                    view_box["view"] = engine.define_view(
                        "bookrevs", bookrev_view_text
                    )
            except BaseException as exc:
                errors.append(exc)
            finally:
                stop.set()

        run_threads(
            [lambda w=w: searcher(w) for w in range(4)] + [redefiner]
        )
        assert not errors, errors
