"""The columnar skeleton: its columns, what is derived from them, its cost.

A skeleton holds the v2 wire columns and nothing else strongly — the
shared tree only while a query result pins it.  Three property families:

* **equivalence** — for random record sets the columns carry exactly
  the records they were laid out from, ``bounds`` / ``slot_bounds`` /
  the tree equal a slow recomputation (:func:`assert_derived_state_matches`;
  the Definitions 1-3 reference sweep leans on it too), and a
  byte-length patch in place equals a rebuild from patched records;
* **footprint** — the tree is memoized weakly and the arithmetic
  ``memory_bytes`` gauge tracks a deep walk of the columns;
* **wiring** — the engine's skeleton tier holds such entries, results
  are identical with and without the tier, across updates too, and
  ``close``/``prune_snapshots`` reclaim hooks and stale snapshot files.
"""

from __future__ import annotations

import gc
import random
import sys
from collections import Counter

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import (
    EMPTY_TAG,
    FRAGMENT_TAG,
    PDTRecord,
    PDTSkeleton,
    annotate_skeleton,
    build_skeleton,
    patch_skeleton_byte_lengths,
)
from repro.core.snapshot import SkeletonStore
from repro.dewey import DeweyID, pack, packed_child_bound, unpack
from repro.storage.database import XMLDatabase
from tests.conftest import BOOKS_XML, BOOKREV_VIEW, REVIEWS_XML
from tests.test_snapshot import _random_posting_list as _posting_list
from tests.test_snapshot import _random_records


# ---------------------------------------------------------------------------
# Columns ≡ records, derived state ≡ a recomputation
# ---------------------------------------------------------------------------


def _tree_form(tree, byte_lengths):
    """Each node of ``tree`` in pre-order, its byte length read from the
    skeleton column ``byte_lengths`` at its record position."""
    return [
        (node.tag, node.text, len(node.children))
        + (
            ()
            if node.anno is None
            else (
                node.anno.dewey.components,
                node.anno.dewey.packed,
                node.anno.position,
                byte_lengths[node.anno.position],
                node.anno.pruned,
                node.anno.doc,
                node.anno.slot,
            )
        )
        for node in tree.iter()
    ]


def assert_derived_state_matches(skeleton):
    """``bounds``, ``slot_bounds`` and the tree against the columns: pure
    functions of keys and flags (Definition 3's edges: parent = nearest
    emitted ancestor), recomputed here in component space, sharing
    nothing with ``PDTSkeleton._publish`` / ``_build_tree``."""
    keys, flags, values = skeleton.keys, skeleton.flags, skeleton.values
    assert list(keys) == sorted(set(keys))
    assert [bool(flag & 4) for flag in flags] == [v is not None for v in values]
    content = [key for key, flag in zip(keys, flags) if flag & 2]
    bounds = sorted(set(content) | set(map(packed_child_bound, content)))
    assert skeleton.content_count == len(content)
    assert skeleton.bounds == tuple(bounds)
    assert skeleton.slot_bounds == tuple(
        (bounds.index(key), bounds.index(packed_child_bound(key)))
        for key in content
    )

    ids = [unpack(key) for key in keys]
    emitted = set(ids)
    child_counts = Counter(  # of each record's nearest emitted ancestor
        next((d[:n] for n in range(len(d) - 1, 0, -1) if d[:n] in emitted), None)
        for d in ids
    )
    slots = iter(range(len(content)))
    form = [
        (
            skeleton.tags[skeleton.tag_ids[position]],
            values[position] if flag & 1 else None,
            child_counts[dewey],
            dewey,
            keys[position],
            position,
            skeleton.byte_lengths[position],
            bool(flag & 2),
            skeleton.doc_name,
            next(slots) if flag & 2 else None,
        )
        for position, (dewey, flag) in enumerate(zip(ids, flags))
    ]
    if not ids:
        form = [(EMPTY_TAG, None, 0)]
    elif child_counts[None] > 1 or len(ids[0]) > 1:
        form.insert(0, (FRAGMENT_TAG, None, child_counts[None]))
    # pre-order = key order
    assert _tree_form(skeleton.tree, skeleton.byte_lengths) == form


def assert_columns_match_records(skeleton, doc_name, records, entry_count):
    """``skeleton`` vs the ``records`` it should have been laid out from."""
    assert skeleton.doc_name == doc_name
    assert skeleton.entry_count == entry_count
    assert skeleton.node_count == len(records)
    assert skeleton.keys == tuple(sorted(records))
    for position, key in enumerate(skeleton.keys):
        record = records[key]
        assert (
            skeleton.tags[skeleton.tag_ids[position]],
            skeleton.values[position],
            skeleton.byte_lengths[position],
            skeleton.flags[position],
        ) == (
            record.tag,
            record.value,
            record.byte_length,
            record.wants_value
            | record.wants_content << 1
            | (record.value is not None) << 2,
        )
    assert_derived_state_matches(skeleton)


@pytest.mark.parametrize("seed", range(25))
def test_compressed_matches_eager(seed):
    rng = random.Random(seed)
    records = _random_records(rng)
    for dewey in ((301, 255), (301, 255, 65535)):  # bounds that carry
        records[pack(dewey)] = PDTRecord(pack(dewey), "a", None, 1, False, True)
    columnar = PDTSkeleton.from_records("doc-ü.xml", records, 37)
    assert_columns_match_records(columnar, "doc-ü.xml", records, 37)

    # Annotation reads bounds and slots only — here over bounds that
    # carry: per content node, the postings in [key, child bound).
    postings = _posting_list(rng, "alpha")
    result = annotate_skeleton(columnar, {"alpha": postings}, ("alpha",))
    assert [
        result.tf_at(slot, "alpha") for slot in range(columnar.content_count)
    ] == [
        postings.subtree_tf(DeweyID.from_packed(key))
        for key in sorted(records)
        if records[key].wants_content
    ]


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
    rebuilt = PDTSkeleton.from_records("d.xml", records, 5)
    assert columnar.to_bytes() == rebuilt.to_bytes()
    assert _tree_form(columnar.tree, columnar.byte_lengths) == _tree_form(
        rebuilt.tree, rebuilt.byte_lengths
    )
    if live_tree is not None:  # the column patched, no tree re-built
        assert columnar.tree is live_tree


def test_compressed_tree_is_weakly_memoized():
    records = _random_records(random.Random(3), count_hint=20)
    skeleton = PDTSkeleton.from_records("d.xml", records, 5)
    tree = skeleton.tree
    assert skeleton.tree is tree  # memoized while something holds it
    form = _tree_form(tree, skeleton.byte_lengths)
    del tree
    gc.collect()
    # The only reference was weak; a fresh access builds an equal tree.
    assert skeleton._tree_ref() is None
    assert _tree_form(skeleton.tree, skeleton.byte_lengths) == form


# ---------------------------------------------------------------------------
# Footprint
# ---------------------------------------------------------------------------


def deep_sizeof(roots: tuple) -> int:
    """Resident bytes of a graph of containers, id-deduplicated."""
    seen: set[int] = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if type(obj) in (tuple, list):
            stack.extend(obj)
    return total


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
    engine.search(view, ("xml",))
    entries = [skeleton for _, skeleton in engine.cache.skeletons.items()]
    assert len(entries) == 2
    assert engine.cache.skeletons.memory_bytes == sum(
        skeleton.memory_bytes for skeleton in entries
    )
    # The tier pins columns only, and a cached tf column pins no
    # skeleton: the evaluator is the one reader of a tree, and once no
    # evaluated result references it, it is gone.
    assert all(skeleton._tree_ref() is not None for skeleton in entries)
    engine.cache.evaluated.clear()
    gc.collect()
    assert len(engine.cache.pdts) > 0
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
