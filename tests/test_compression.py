"""The columnar skeleton vs the object graph it replaced.

A skeleton holds the v2 wire columns and nothing else strongly — the
shared tree only while a query result pins it.  Three property families:

* **equivalence** — for random record sets the columns carry exactly
  what ``pdt_legacy``'s eager record graph does (keys, per-record
  state, bounds, tree, tf arrays), and a byte-length patch in place
  equals a rebuild from patched records;
* **footprint** — the tree is memoized weakly, the arithmetic
  ``memory_bytes`` gauge tracks a deep walk of the columns, and a
  repetitive corpus takes a fraction of the record graph's bytes;
* **wiring** — the engine's skeleton tier holds such entries, results
  are identical with and without the tier, across updates too, and
  ``close``/``prune_snapshots`` reclaim hooks and stale snapshot files.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.bench.experiments import deep_sizeof, eager_graph_bytes
from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import (
    PDTRecord,
    PDTSkeleton,
    annotate_skeleton,
    build_skeleton,
    patch_skeleton_byte_lengths,
)
from repro.core.pdt_legacy import legacy_from_records
from repro.core.snapshot import SkeletonStore
from repro.dewey import pack
from repro.storage.database import XMLDatabase
from repro.storage.inverted_index import PostingList
from tests.conftest import BOOKS_XML, BOOKREV_VIEW, REVIEWS_XML
from tests.test_pdt_legacy_equivalence import _tree_form, assert_matches_legacy
from tests.test_snapshot import _random_posting_list as _posting_list
from tests.test_snapshot import _random_records


# ---------------------------------------------------------------------------
# Equivalence with the eager record graph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_compressed_matches_eager(seed):
    rng = random.Random(seed)
    records = _random_records(rng)
    for dewey in ((301, 255), (301, 255, 65535)):  # bounds that carry
        records[pack(dewey)] = PDTRecord(pack(dewey), "a", None, 1, False, True)
    columnar = PDTSkeleton.from_records("doc-ü.xml", records, 37)
    eager = legacy_from_records("doc-ü.xml", records, 37)
    assert_matches_legacy(columnar, eager)

    keywords = ("alpha", "beta", "nowhere")
    inv_lists = {
        "alpha": _posting_list(rng, "alpha"),
        "beta": _posting_list(rng, "beta"),
        "nowhere": PostingList("nowhere", []),
    }
    first = annotate_skeleton(eager, inv_lists, keywords)
    second = annotate_skeleton(columnar, inv_lists, keywords)
    assert first.tf_arrays == second.tf_arrays
    assert first.node_count == second.node_count


@pytest.mark.parametrize("seed", range(10))
def test_compressed_patch_matches_eager(seed):
    rng = random.Random(seed)
    records = _random_records(rng, count_hint=20)
    if not records:
        pytest.skip("empty record set has nothing to patch")
    columnar = PDTSkeleton.from_records("d.xml", records, 5)
    live_tree = columnar.tree if seed % 2 else None

    # Patch along the ancestor chain of a random present key (plus one
    # ancestor the skeleton does not materialize).
    target = rng.choice(sorted(records))
    chain = [key for key in sorted(records) if target.startswith(key)]
    delta = rng.randint(-100, 100)
    patched = patch_skeleton_byte_lengths(
        columnar, [pack((999,))] + chain, delta
    )
    assert patched == (len(chain) if delta else 0)
    for key in chain:
        records[key].byte_length += delta
    rebuilt = legacy_from_records("d.xml", records, 5)
    assert_matches_legacy(columnar, rebuilt)
    if live_tree is not None:  # patched in place, not re-built
        assert columnar.tree is live_tree


def test_compressed_tree_is_weakly_memoized():
    records = _random_records(random.Random(3), count_hint=20)
    skeleton = PDTSkeleton.from_records("d.xml", records, 5)
    tree = skeleton.tree
    assert skeleton.tree is tree  # memoized while something holds it
    form = _tree_form(tree)
    del tree
    gc.collect()
    # The only reference was weak; a fresh access builds an equal tree.
    assert skeleton._tree_ref() is None
    assert _tree_form(skeleton.tree) == form


# ---------------------------------------------------------------------------
# Footprint
# ---------------------------------------------------------------------------


def _shifted(records: dict[bytes, PDTRecord], offset: int):
    """The same forest structure under different Dewey keys/values."""
    shifted: dict[bytes, PDTRecord] = {}
    for key, record in records.items():
        dewey = record.dewey
        new_key = pack((dewey[0] + offset,) + dewey[1:])
        shifted[new_key] = PDTRecord(
            key=new_key,
            tag=record.tag,
            value=f"other-{offset}" if record.wants_value else None,
            byte_length=record.byte_length + offset,
            wants_value=record.wants_value,
            wants_content=record.wants_content,
        )
    return shifted


def test_repetitive_corpus_compresses():
    rng = random.Random(13)
    base = _random_records(rng, count_hint=40)
    if len(base) < 10:  # pragma: no cover - seed guard
        pytest.skip("degenerate base structure")
    graph_total = 0
    columns_total = 0
    for i in range(12):
        records = _shifted(base, i * 1000)
        graph_total += eager_graph_bytes(
            legacy_from_records(f"doc-{i}.xml", records, 5)
        )
        columns_total += PDTSkeleton.from_records(
            f"doc-{i}.xml", records, 5
        ).memory_bytes
    assert columns_total * 3 < graph_total


def test_memory_gauge_tracks_the_deep_walk_on_every_difftest_shape():
    # The gauge is arithmetic over column lengths (every cache put
    # reads it); an id-deduplicated walk of everything the skeleton
    # holds strongly is the reference.
    from tests.difftest.generators import VIEW_SHAPES, generate_case

    for shape in VIEW_SHAPES:
        for seed in (1, 2, 3):
            case = generate_case(seed, shape)
            engine = KeywordSearchEngine(case.database, enable_cache=False)
            view = engine.define_view("v", case.view_text)
            for doc_name, qpt in view.qpts.items():
                skeleton = build_skeleton(
                    qpt, case.database.get(doc_name).path_index
                )
                walked = deep_sizeof(
                    (skeleton,)
                    + tuple(
                        getattr(skeleton, column)
                        for column in ("doc_name", "keys", "tag_ids", "tags",
                                       "flags", "values", "byte_lengths",
                                       "bounds", "slot_bounds")
                    )
                )
                assert 0.9 * walked <= skeleton.memory_bytes <= 1.1 * walked, (
                    shape, seed, doc_name, skeleton.memory_bytes, walked
                )


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------


def _bookrev_db() -> XMLDatabase:
    db = XMLDatabase()
    db.load_document("books.xml", BOOKS_XML)
    db.load_document("reviews.xml", REVIEWS_XML)
    return db


def _ranked(results):
    return [(r.rank, round(r.score, 12), r.to_xml()) for r in results]


def test_engine_results_identical_with_and_without_compression():
    # With the columnar tier (first contact, then warm) and without any
    # tier at all (every query builds and drops its skeletons).
    keywords = ["xml", "search"]
    outcomes = []
    for enable_cache in (True, False):
        engine = KeywordSearchEngine(_bookrev_db(), enable_cache=enable_cache)
        view = engine.define_view("bookrevs", BOOKREV_VIEW)
        first = _ranked(engine.search(view, keywords, top_k=10))
        warm = _ranked(engine.search(view, keywords, top_k=10))
        assert first == warm
        outcomes.append(first)
    assert outcomes[0] == outcomes[1]


def test_engine_skeleton_tier_holds_compressed_entries():
    engine = KeywordSearchEngine(_bookrev_db())
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    entries = [skeleton for _, skeleton in engine.cache.skeletons.items()]
    assert len(entries) == 2
    assert engine.cache.skeletons.memory_bytes == sum(
        skeleton.memory_bytes for skeleton in entries
    )
    # The tier pins columns only: once no PDT or evaluated result
    # references a tree, it is gone.
    assert all(skeleton._tree_ref() is not None for skeleton in entries)
    engine.cache.pdts.clear()
    engine.cache.evaluated.clear()
    gc.collect()
    assert all(skeleton._tree_ref() is None for skeleton in entries)


def test_updates_preserve_results_under_compression():
    db = _bookrev_db()
    engine = KeywordSearchEngine(db)
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    db.insert_subtree(
        "reviews.xml",
        "1",
        "<review><isbn>222-22-2222</isbn><content>new xml search "
        "notes</content></review>",
    )
    fresh = KeywordSearchEngine(_bookrev_db(), enable_cache=False)
    fresh.database.insert_subtree(
        "reviews.xml",
        "1",
        "<review><isbn>222-22-2222</isbn><content>new xml search "
        "notes</content></review>",
    )
    fresh_view = fresh.define_view("bookrevs", BOOKREV_VIEW)
    assert _ranked(engine.search(view, ["xml", "search"], top_k=10)) == (
        _ranked(fresh.search(fresh_view, ["xml", "search"], top_k=10))
    )


# ---------------------------------------------------------------------------
# Lifecycle: prune + close
# ---------------------------------------------------------------------------


def test_engine_prunes_stale_snapshots(tmp_path):
    store = SkeletonStore(tmp_path / "snap")
    engine = KeywordSearchEngine(_bookrev_db(), snapshot_store=store)
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    live = len(store)
    assert live > 0
    # A snapshot under a fingerprint no live document carries is
    # unaddressable — prune reclaims exactly it.
    stale = PDTSkeleton.from_records("books.xml", {}, 0)
    store.save("0" * 64, "1" * 64, stale)
    assert engine.prune_snapshots() == 1
    assert len(store) == live
    assert store.stats()["pruned"] == 1
    # Live snapshots survived: a fresh engine still restores them.
    other = KeywordSearchEngine(
        _bookrev_db(),
        snapshot_store=SkeletonStore(tmp_path / "snap"),
    )
    hits = other.warm_view(other.define_view("bookrevs", BOOKREV_VIEW))
    assert set(hits.values()) == {"snapshot"}


def test_engine_close_is_idempotent_and_prunes(tmp_path):
    store = SkeletonStore(tmp_path / "snap")
    db = _bookrev_db()
    engine = KeywordSearchEngine(db, snapshot_store=store)
    engine.warm_view(engine.define_view("bookrevs", BOOKREV_VIEW))
    store.save("0" * 64, "1" * 64, PDTSkeleton.from_records("x", {}, 0))
    before = len(store)
    engine.close()
    assert len(store) == before - 1
    engine.close()  # second close is a no-op
    # The database no longer resolves the closed engine's hooks.
    alive = [
        resolver()
        for resolver in db._invalidation_hooks
        if resolver() is not None
    ]
    assert engine._on_document_change not in alive


def test_engine_context_manager_closes(tmp_path):
    with KeywordSearchEngine(
        _bookrev_db(),
        snapshot_store=SkeletonStore(tmp_path / "snap"),
    ) as engine:
        engine.warm_view(engine.define_view("bookrevs", BOOKREV_VIEW))
    assert engine._closed
