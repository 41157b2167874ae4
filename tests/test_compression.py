"""DAG-compressed skeleton tests.

Three property families lock down the compressed representation:

* **equivalence** — for random record sets, ``compress_skeleton``
  preserves every derived structure the annotation sweep consumes
  (bounds, slot bounds, counts), serializes byte-identically to the
  eager skeleton, annotates to identical tf arrays, and patches
  byte lengths identically to the eager patch path;
* **sharing** — isomorphic structures are interned once per shape
  table, within and across skeletons (and across engines handed the
  same table), and the compressed footprint of a repetitive corpus is
  a fraction of the eager one;
* **wiring** — the engine's skeleton tier holds compressed entries
  when ``dag_compression`` is on, search results are identical either
  way, and ``close``/``prune_snapshots`` reclaim hooks and stale
  snapshot files.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import (
    CompressedSkeleton,
    PDTRecord,
    PDTSkeleton,
    annotate_skeleton,
    compress_skeleton,
    patch_skeleton_byte_lengths,
)
from repro.core.shapes import ShapeTable, forest_columns
from repro.core.snapshot import SkeletonStore
from repro.dewey import pack
from repro.storage.database import XMLDatabase
from repro.storage.inverted_index import Posting, PostingList
from tests.conftest import BOOKS_XML, BOOKREV_VIEW, REVIEWS_XML

_TAGS = ["a", "b", "item", "Ünïcode-tag"]
_VALUES = [None, "", "x", "multi word value", "0"]


def _random_records(
    rng: random.Random, count_hint: int = 25
) -> dict[bytes, PDTRecord]:
    records: dict[bytes, PDTRecord] = {}
    seen: set[tuple[int, ...]] = set()
    for _ in range(rng.randint(0, count_hint)):
        dewey = tuple(
            rng.randint(1, 300) for _ in range(rng.randint(1, 5))
        )
        if dewey in seen:
            continue
        seen.add(dewey)
        key = pack(dewey)
        wants_value = rng.random() < 0.5
        records[key] = PDTRecord(
            key=key,
            tag=rng.choice(_TAGS),
            value=rng.choice(_VALUES) if wants_value else None,
            byte_length=rng.randint(0, 1 << 40),
            wants_value=wants_value,
            wants_content=rng.random() < 0.5,
        )
    return records


def _posting_list(rng: random.Random, keyword: str) -> PostingList:
    deweys = sorted(
        {
            tuple(rng.randint(1, 300) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 20))
        }
    )
    return PostingList(
        keyword,
        [Posting(dewey=dewey, tf=rng.randint(1, 9)) for dewey in deweys],
    )


# ---------------------------------------------------------------------------
# Equivalence with the eager representation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_compressed_matches_eager(seed):
    rng = random.Random(seed)
    eager = PDTSkeleton.from_records(
        "doc-ü.xml", _random_records(rng), 37
    )
    comp = compress_skeleton(eager, ShapeTable())

    assert isinstance(comp, CompressedSkeleton)
    assert comp.doc_name == eager.doc_name
    assert comp.entry_count == eager.entry_count
    assert comp.node_count == eager.node_count
    assert comp.content_count == eager.content_count
    assert comp.keys == tuple(eager.ordered)
    assert comp.bounds == eager.bounds
    assert comp.slot_bounds == eager.slot_bounds
    assert comp.to_bytes() == eager.to_bytes()

    keywords = ("alpha", "beta", "nowhere")
    inv_lists = {
        "alpha": _posting_list(rng, "alpha"),
        "beta": _posting_list(rng, "beta"),
        "nowhere": PostingList("nowhere", []),
    }
    first = annotate_skeleton(eager, inv_lists, keywords)
    second = annotate_skeleton(comp, inv_lists, keywords)
    assert first.tf_arrays == second.tf_arrays
    assert first.node_count == second.node_count


@pytest.mark.parametrize("seed", range(10))
def test_compressed_patch_matches_eager(seed):
    rng = random.Random(seed)
    records = _random_records(rng, count_hint=20)
    if not records:
        pytest.skip("empty record set has nothing to patch")
    eager = PDTSkeleton.from_records("d.xml", records, 5)
    comp = compress_skeleton(eager, ShapeTable())

    # Patch along the ancestor chain of a random present key.
    target = rng.choice(sorted(records))
    chain = [
        key for key in sorted(records) if target.startswith(key)
    ]
    delta = rng.randint(-100, 100)
    patch_skeleton_byte_lengths(eager, chain, delta)
    patch_skeleton_byte_lengths(comp, chain, delta)
    for index, key in enumerate(comp.keys):
        assert comp.byte_lengths[index] == eager.records[key].byte_length
    assert comp.to_bytes() == eager.to_bytes()


def test_compressed_tree_is_weakly_memoized():
    rng = random.Random(3)
    records = _random_records(rng, count_hint=20)
    eager = PDTSkeleton.from_records("d.xml", records, 5)
    comp = compress_skeleton(eager, ShapeTable())
    # Seeded from the source skeleton's tree: same object, no rebuild.
    assert comp.tree is eager.tree
    del eager
    gc.collect()
    # The weak reference died with the eager skeleton; a fresh access
    # re-materializes an equivalent tree.
    rebuilt = comp.tree
    assert rebuilt is comp.tree  # memoized again while referenced
    assert [n.tag for n in rebuilt.iter()] == [
        n.tag
        for n in PDTSkeleton.from_records("d.xml", records, 5).tree.iter()
    ]


# ---------------------------------------------------------------------------
# Structure sharing
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


def test_isomorphic_skeletons_share_shapes():
    rng = random.Random(11)
    records = _random_records(rng, count_hint=25)
    table = ShapeTable()
    first = compress_skeleton(
        PDTSkeleton.from_records("a.xml", records, 5), table
    )
    shapes_after_first = table.stats()["shapes"]
    second = compress_skeleton(
        PDTSkeleton.from_records("b.xml", _shifted(records, 1000), 5), table
    )
    # The second skeleton introduced zero new shapes — every subtree
    # structure was already interned — yet keeps its own keys/values.
    assert table.stats()["shapes"] == shapes_after_first
    assert [s.digest for s in second.roots] == [
        s.digest for s in first.roots
    ]
    assert second.keys != first.keys
    tags, wants_value, wants_content = first.columns()
    assert tags == second.columns()[0]
    assert forest_columns(first.roots)[0] == tags


def test_repetitive_corpus_compresses():
    rng = random.Random(13)
    base = _random_records(rng, count_hint=40)
    if len(base) < 10:  # pragma: no cover - seed guard
        pytest.skip("degenerate base structure")
    table = ShapeTable()
    eager_total = 0
    compressed_total = 0
    for i in range(12):
        eager = PDTSkeleton.from_records(
            f"doc-{i}.xml", _shifted(base, i * 1000), 5
        )
        eager_total += eager.memory_bytes
        compressed_total += compress_skeleton(eager, table).memory_bytes
    compressed_total += table.memory_bytes()
    assert compressed_total * 2 < eager_total


def test_memory_gauge_tracks_the_deep_walk_on_every_difftest_shape():
    # The gauge is arithmetic over column lengths (every cache put
    # reads it); the id-deduplicated object-graph walk it replaced
    # stays the reference.
    from repro.core.pdt import _deep_sizeof, build_skeleton
    from tests.difftest.generators import VIEW_SHAPES, generate_case

    for shape in VIEW_SHAPES:
        for seed in (1, 2, 3):
            case = generate_case(seed, shape)
            engine = KeywordSearchEngine(case.database, enable_cache=False)
            view = engine.define_view("v", case.view_text)
            for doc_name, qpt in view.qpts.items():
                eager = build_skeleton(
                    qpt, case.database.get(doc_name).path_index
                )
                comp = compress_skeleton(eager, ShapeTable())
                assert comp.bounds is eager.bounds  # handed over
                assert comp.slot_bounds is eager.slot_bounds
                walked = 64 + 8 * len(comp.roots) + _deep_sizeof(
                    (
                        comp.keys,
                        comp.byte_lengths,
                        comp.values,
                        comp.bounds,
                        comp.slot_bounds,
                    )
                )
                assert 0.9 * walked <= comp.memory_bytes <= 1.1 * walked, (
                    shape, seed, doc_name, comp.memory_bytes, walked
                )


def test_digest_is_computed_once_per_new_shape(monkeypatch):
    from repro.core import shapes

    digested = []
    real_digest = shapes._shape_digest
    monkeypatch.setattr(
        shapes,
        "_shape_digest",
        lambda *structure: digested.append(structure[0])
        or real_digest(*structure),
    )
    table = ShapeTable()
    columns = (
        ["r", "a", "b", "a", "b"],
        [False, True, False, True, False],
        [True, False, True, False, True],
        [-1, 0, 1, 0, 3],
    )
    first = table.intern_forest(*columns)
    assert sorted(digested) == ["a", "b", "r"]  # 5 nodes, 3 structures
    second = table.intern_forest(*columns)
    assert len(digested) == 3
    assert [s.digest for s in second] == [s.digest for s in first]
    assert second[0] is first[0]
    assert table.stats() == {"shapes": 3, "interned": 3, "hits": 7}


def test_shape_digests_stable_across_hash_seeds():
    script = (
        "from repro.core.shapes import ShapeTable\n"
        "table = ShapeTable()\n"
        "roots = table.intern_forest(\n"
        "    ['r', 'a', 'b', 'a'], [False, True, False, True],\n"
        "    [True, False, True, False], [-1, 0, 0, 2])\n"
        "print(' '.join(s.digest.hex() for s in roots))\n"
    )
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1 and outputs != {""}


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
    keywords = ["xml", "search"]
    outcomes = []
    for dag in (False, True):
        engine = KeywordSearchEngine(_bookrev_db(), dag_compression=dag)
        view = engine.define_view("bookrevs", BOOKREV_VIEW)
        first = _ranked(engine.search(view, keywords, top_k=10))
        warm = _ranked(engine.search(view, keywords, top_k=10))
        assert first == warm
        outcomes.append(first)
    assert outcomes[0] == outcomes[1]


def _skeleton_tier_entries(engine):
    tier = engine.cache.skeletons
    entries = []
    with tier._hold_all_locks():  # test-only peek
        for shard in tier._shards:
            entries.extend(shard._data.values())
    return entries


def test_engine_skeleton_tier_holds_compressed_entries():
    engine = KeywordSearchEngine(_bookrev_db())
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    entries = _skeleton_tier_entries(engine)
    assert entries
    assert all(isinstance(s, CompressedSkeleton) for s in entries)
    assert engine.shape_table.stats()["shapes"] > 0


def test_engine_dag_off_keeps_eager_entries():
    engine = KeywordSearchEngine(_bookrev_db(), dag_compression=False)
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    entries = _skeleton_tier_entries(engine)
    assert entries
    assert all(isinstance(s, PDTSkeleton) for s in entries)
    assert engine.shape_table is None


def test_engines_can_share_a_shape_table():
    table = ShapeTable()
    for _ in range(2):
        engine = KeywordSearchEngine(_bookrev_db(), shape_table=table)
        engine.warm_view(engine.define_view("bookrevs", BOOKREV_VIEW))
    # The second engine's skeletons re-used the first engine's shapes.
    assert table.stats()["hits"] > 0


def test_updates_preserve_results_under_compression():
    db = _bookrev_db()
    engine = KeywordSearchEngine(db, dag_compression=True)
    view = engine.define_view("bookrevs", BOOKREV_VIEW)
    engine.warm_view(view)
    db.insert_subtree(
        "reviews.xml",
        "1",
        "<review><isbn>222-22-2222</isbn><content>new xml search "
        "notes</content></review>",
    )
    fresh = KeywordSearchEngine(_bookrev_db(), dag_compression=False)
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
