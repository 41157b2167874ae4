"""Persistent skeleton store + serialization + QPT content-hash tests.

Three property families lock down the cross-process tier:

* **round trip** — for random record sets, ``PDTSkeleton.to_bytes`` →
  ``from_bytes`` reproduces every column and derived structure and
  yields identical annotation results for random posting lists;
* **hash stability** — structurally equal QPTs hash equal (including in
  a subprocess with a different ``PYTHONHASHSEED``, the cross-process
  case object identity can never survive); any single axis, flag,
  annotation or predicate change alters the hash;
* **store behavior** — atomic save/load, corrupt payloads read as
  misses, regeneration (fingerprint change) can never address a stale
  snapshot.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.records import PDTRecord, from_records
from repro.core.pdt import annotate_skeleton
from repro.core.skeleton import PDTSkeleton
from repro.core.qpt import QPT, QPTNode, generate_qpts
from repro.core.snapshot import SkeletonStore
from repro.dewey import pack
from repro.storage.database import XMLDatabase
from repro.storage.inverted_index import Posting, PostingList
from repro.values import Predicate
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query

# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

_TAGS = ["a", "b", "c", "item", "Ünïcode-tag"]
_VALUES = [None, "", "x", "multi word value", "ناص", "0", "v" * 300]


def _random_records(
    rng: random.Random, count_hint: int = 25
) -> dict[bytes, PDTRecord]:
    """A random, structurally plausible PDT record set."""
    records: dict[bytes, PDTRecord] = {}
    count = rng.randint(0, count_hint)
    seen: set[tuple[int, ...]] = set()
    for _ in range(count):
        depth = rng.randint(1, 5)
        dewey = tuple(rng.randint(1, 300) for _ in range(depth))
        if dewey in seen:
            continue
        seen.add(dewey)
        key = pack(dewey)
        wants_value = rng.random() < 0.5
        value = rng.choice(_VALUES) if wants_value else None
        records[key] = PDTRecord(
            key=key,
            tag=rng.choice(_TAGS),
            value=value,
            byte_length=rng.randint(0, 1 << 40),
            wants_value=wants_value,
            wants_content=rng.random() < 0.5,
        )
    return records


def _random_posting_list(rng: random.Random, keyword: str) -> PostingList:
    postings = sorted(
        {
            tuple(rng.randint(1, 300) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 30))
        }
    )
    return PostingList(
        keyword,
        [Posting(dewey=dewey, tf=rng.randint(1, 9)) for dewey in postings],
    )


# ---------------------------------------------------------------------------
# Serialization round trip
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_skeleton_serialization_round_trip(seed):
    rng = random.Random(seed)
    records = _random_records(rng)
    original = from_records("doc-ü.xml", records, len(records) * 3)
    restored = PDTSkeleton.from_bytes(original.to_bytes())

    assert restored.doc_name == original.doc_name
    assert restored.entry_count == original.entry_count
    assert restored.node_count == original.node_count
    assert restored.content_count == original.content_count
    for column in ("keys", "tag_ids", "tags", "flags", "values",
                   "byte_lengths"):
        assert getattr(restored, column) == getattr(original, column), column
    # tf bounds: identical subtree ranges and slot mappings.
    assert restored.subtree_bounds == original.subtree_bounds
    assert [
        (node.anno.dewey.components, node.anno.slot)
        for node in restored.tree.iter()
        if node.anno is not None
    ] == [
        (node.anno.dewey.components, node.anno.slot)
        for node in original.tree.iter()
        if node.anno is not None
    ]

    # Identical annotation results for random keyword posting lists —
    # including a keyword with zero postings.
    keywords = ("alpha", "beta", "nowhere")
    inv_lists = {
        "alpha": _random_posting_list(rng, "alpha"),
        "beta": _random_posting_list(rng, "beta"),
        "nowhere": PostingList("nowhere", []),
    }
    first = annotate_skeleton(original, inv_lists, keywords)
    second = annotate_skeleton(restored, inv_lists, keywords)
    assert first.tf_arrays == second.tf_arrays
    assert first.node_count == second.node_count


def test_serialization_rejects_corruption():
    rng = random.Random(7)
    skeleton = from_records("d.xml", _random_records(rng), 5)
    payload = skeleton.to_bytes()
    with pytest.raises(ValueError):
        PDTSkeleton.from_bytes(payload[:-1])  # truncated
    with pytest.raises(ValueError):
        PDTSkeleton.from_bytes(payload + b"\x00")  # trailing bytes
    with pytest.raises(ValueError):
        PDTSkeleton.from_bytes(b"XXXX" + payload[4:])  # bad magic
    mutated = bytearray(payload)
    mutated[5] ^= 0xFF  # version byte
    with pytest.raises(ValueError):
        PDTSkeleton.from_bytes(bytes(mutated))


def test_serialize_function_matches_method():
    # The codec's one pair of names, on the empty skeleton.
    skeleton = from_records("d.xml", {}, 0)
    payload = skeleton.to_bytes()
    assert PDTSkeleton.from_bytes(payload).to_bytes() == payload
    assert PDTSkeleton.from_bytes(payload).node_count == 0


# ---------------------------------------------------------------------------
# QPT content hash
# ---------------------------------------------------------------------------

_VIEW_TEXT = """
for $b in doc("books.xml")/books/book
where $b/year > 1995
return <hit>{ $b/title }</hit>
"""


def _qpt_from_text(text: str) -> QPT:
    return generate_qpts(inline_functions(parse_query(text)))["books.xml"]


def _build_qpt(spec_seed: int, mutate: str = "") -> QPT:
    """A deterministic small QPT; ``mutate`` flips exactly one property."""
    rng = random.Random(spec_seed)
    root = QPTNode("#doc")
    top = QPTNode("r")
    root.add_child(top, "/", True)
    first = QPTNode("a", v_ann=rng.random() < 0.5)
    top.add_child(first, rng.choice(["/", "//"]), rng.random() < 0.7)
    second = QPTNode("b", c_ann=True)
    first.add_child(second, "/", True)
    if rng.random() < 0.5:
        second.predicates.append(Predicate(">", "10"))
    if mutate == "axis":
        first.parent_edge.axis = "/" if first.parent_edge.axis == "//" else "//"
    elif mutate == "mandatory":
        first.parent_edge.mandatory = not first.parent_edge.mandatory
    elif mutate == "v_ann":
        first.v_ann = not first.v_ann
    elif mutate == "c_ann":
        second.c_ann = not second.c_ann
    elif mutate == "tag":
        second.tag = "zz"
    elif mutate == "predicate_op":
        second.predicates[:] = [Predicate("<", "10")]
    elif mutate == "predicate_literal":
        second.predicates[:] = [Predicate(">", "11")]
    elif mutate == "extra_child":
        second.add_child(QPTNode("extra"), "/", False)
    return QPT("doc.xml", root)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mutation=st.sampled_from(
        [
            "axis",
            "mandatory",
            "v_ann",
            "c_ann",
            "tag",
            "extra_child",
        ]
    ),
)
def test_content_hash_equal_structures_equal_and_mutations_differ(
    seed, mutation
):
    baseline = _build_qpt(seed)
    twin = _build_qpt(seed)
    assert baseline is not twin
    assert baseline.content_hash == twin.content_hash

    mutated = _build_qpt(seed, mutate=mutation)
    if mutation == "predicate_op" and not _build_qpt(seed).nodes[-1].predicates:
        return  # mutation was a no-op for this seed
    assert mutated.content_hash != baseline.content_hash, mutation


def test_content_hash_predicate_changes_differ():
    rng_seed = 1  # seed whose generated QPT carries a predicate
    while not _build_qpt(rng_seed).nodes[-1].predicates:
        rng_seed += 1
    baseline = _build_qpt(rng_seed)
    assert (
        _build_qpt(rng_seed, mutate="predicate_op").content_hash
        != baseline.content_hash
    )
    assert (
        _build_qpt(rng_seed, mutate="predicate_literal").content_hash
        != baseline.content_hash
    )


def test_content_hash_depends_on_document_name():
    first = _build_qpt(3)
    second = _build_qpt(3)
    second.doc_name = "other.xml"
    second._content_hash = None
    assert first.content_hash != second.content_hash


def test_content_hash_from_same_view_text_is_stable():
    assert (
        _qpt_from_text(_VIEW_TEXT).content_hash
        == _qpt_from_text(_VIEW_TEXT).content_hash
    )


def test_content_hash_stable_across_processes():
    """The cross-process property, literally: a subprocess with a
    different ``PYTHONHASHSEED`` (so every ``hash()`` differs) computes
    the same content hash for the same view text."""
    local = _qpt_from_text(_VIEW_TEXT).content_hash
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.core.qpt import generate_qpts\n"
        "from repro.xquery.functions import inline_functions\n"
        "from repro.xquery.parser import parse_query\n"
        f"text = {_VIEW_TEXT!r}\n"
        'qpt = generate_qpts(inline_functions(parse_query(text)))["books.xml"]\n'
        "print(qpt.content_hash)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "12345"
    result = subprocess.run(
        [sys.executable, "-c", script, src],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == local


# ---------------------------------------------------------------------------
# Store behavior
# ---------------------------------------------------------------------------


def _store_skeleton(seed: int = 11) -> PDTSkeleton:
    return from_records(
        "d.xml", _random_records(random.Random(seed)), 9
    )


def test_store_save_load_round_trip(tmp_path):
    store = SkeletonStore(tmp_path / "snap")
    skeleton = _store_skeleton()
    path = store.save("f" * 64, "a" * 64, skeleton)
    assert path.exists()
    assert ("f" * 64, "a" * 64) in store
    restored = store.load("f" * 64, "a" * 64)
    assert restored is not None
    assert restored.keys == skeleton.keys
    assert len(store) == 1
    assert store.stats()["saves"] == 1
    assert store.stats()["hits"] == 1


def test_store_missing_key_is_a_miss(tmp_path):
    store = SkeletonStore(tmp_path)
    assert store.load("f" * 64, "a" * 64) is None
    assert store.stats()["misses"] == 1


def test_store_corrupt_payload_is_a_miss_and_removed(tmp_path):
    store = SkeletonStore(tmp_path)
    store.save("f" * 64, "a" * 64, _store_skeleton())
    target = store.path_for("f" * 64, "a" * 64)
    target.write_bytes(b"garbage that is not a skeleton")
    assert store.load("f" * 64, "a" * 64) is None
    assert not target.exists()  # removed so the next build re-snapshots


def test_store_corrupt_reader_spares_a_concurrent_rewrite(tmp_path, monkeypatch):
    """A reader that parsed garbage must not unlink the file if a
    concurrent save replaced it in the meantime — cleanup is scoped to
    the exact payload the reader observed (same inode/size/mtime)."""
    import repro.core.snapshot as snapshot_module

    store = SkeletonStore(tmp_path)
    fingerprint, qpt_hash = "f" * 64, "a" * 64
    target = store.path_for(fingerprint, qpt_hash)
    target.write_bytes(b"garbage that is not a skeleton")
    fresh = _store_skeleton()
    real = snapshot_module.PDTSkeleton

    class RacingSkeleton:
        @staticmethod
        def from_bytes(payload):
            # Simulate a writer winning the race between our read and
            # the failed parse's cleanup.
            store.save(fingerprint, qpt_hash, fresh)
            return real.from_bytes(payload)

    monkeypatch.setattr(snapshot_module, "PDTSkeleton", RacingSkeleton)
    assert store.load(fingerprint, qpt_hash) is None  # garbage is a miss
    monkeypatch.setattr(snapshot_module, "PDTSkeleton", real)
    # The racing writer's valid snapshot survived the reader's cleanup.
    assert target.exists()
    assert store.load(fingerprint, qpt_hash) is not None


def test_store_discard_removes_one_snapshot(tmp_path):
    store = SkeletonStore(tmp_path)
    store.save("f" * 64, "a" * 64, _store_skeleton())
    assert store.discard("f" * 64, "a" * 64)
    assert ("f" * 64, "a" * 64) not in store
    assert not store.discard("f" * 64, "a" * 64)  # missing is not an error


def test_store_counters_are_thread_safe(tmp_path):
    import threading

    store = SkeletonStore(tmp_path)
    store.save("f" * 64, "a" * 64, _store_skeleton())
    per_thread, thread_count = 100, 8

    def hammer():
        for _ in range(per_thread):
            store.load("f" * 64, "a" * 64)
            store.load("0" * 64, "a" * 64)

    threads = [threading.Thread(target=hammer) for _ in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = store.stats()
    assert stats["hits"] == per_thread * thread_count
    assert stats["misses"] == per_thread * thread_count
    assert stats["saves"] == 1


def test_store_keys_differ_by_fingerprint_and_hash(tmp_path):
    store = SkeletonStore(tmp_path)
    store.save("f" * 64, "a" * 64, _store_skeleton(1))
    # Different document content -> different fingerprint -> miss.
    assert store.load("e" * 64, "a" * 64) is None
    # Different QPT structure -> different hash -> miss.
    assert store.load("f" * 64, "b" * 64) is None
    assert store.load("f" * 64, "a" * 64) is not None


@pytest.mark.parametrize(
    "fingerprint, qpt_hash",
    [("f" * 64, "a" * 64), ("0123abcd" * 4, "9" * 32), ("e", "b7")],
)
def test_entry_key_parses_what_entry_name_writes(fingerprint, qpt_hash):
    name = SkeletonStore.entry_name(fingerprint, qpt_hash)
    assert SkeletonStore.entry_key(name) == (fingerprint[:32], qpt_hash[:32])


@pytest.mark.parametrize(
    "name",
    [
        "../x.pdts",
        "../" + "a" * 32 + "-" + "f" * 32 + ".pdts",
        "A" * 32 + "-" + "f" * 32 + ".pdts",
        "a" * 32 + "-" + "F" * 32 + ".pdts",
        "a" * 32 + "-" + "f" * 32,
        "a" * 32 + "-" + "f" * 32 + ".pdts\n",
        "a" * 33 + "-" + "f" * 32 + ".pdts",
        "a" * 32 + "-" + "f" * 33 + ".pdts",
        "-" + "f" * 32 + ".pdts",
        "",
    ],
)
def test_entry_key_rejects_names_not_shaped_like_a_key(name):
    assert SkeletonStore.entry_key(name) is None


def test_store_prune(tmp_path):
    store = SkeletonStore(tmp_path)
    store.save("f" * 64, "a" * 64, _store_skeleton(1))
    store.save("e" * 64, "a" * 64, _store_skeleton(2))
    keep = {SkeletonStore.entry_name("f" * 64, "a" * 64)}
    assert store.prune(keep=keep) == 1
    assert len(store) == 1
    assert store.prune() == 1
    assert len(store) == 0


def corrupt_a_key(payload: bytes) -> bytes:
    """Flip one byte inside the keys blob — the header stays valid, so
    an O(1) admission (mmap load, peer fetch) lets the payload in."""
    from repro.core.skeleton import SkeletonLayout

    offset = SkeletonLayout(payload).keys_offset + 1
    return payload[:offset] + bytes((payload[offset] ^ 0xFF,)) + payload[offset + 1:]


@pytest.mark.parametrize("mmap_mode", (False, True))
def test_corrupt_columns_are_a_miss_at_load(tmp_path, mmap_mode):
    """The store is the one place a payload is verified: a valid header
    over a corrupt keys blob is a counted miss and a reclaimed file by
    the time ``load`` returns, whichever way the bytes were read."""
    store = SkeletonStore(tmp_path / "snap", mmap_mode=mmap_mode)
    path = store.save("f" * 64, "a" * 64, _store_skeleton(3))
    path.write_bytes(corrupt_a_key(path.read_bytes()))
    assert store.load("f" * 64, "a" * 64) is None
    stats = store.stats()
    assert stats["hits"] == 0 and stats["misses"] == 1, stats
    assert not path.exists()


@pytest.mark.parametrize("site", ("query", "edit"))
def test_corrupt_columns_under_mmap_mode_are_a_miss_not_an_error(
    tmp_path, bookrev_db, bookrev_view_text, site
):
    """Neither restore site raises on such a payload: both get the
    store's counted miss and reclaim, then rebuild and re-save."""
    from repro.core.engine import KeywordSearchEngine

    root = tmp_path / "snap"
    warm = KeywordSearchEngine(
        bookrev_db, snapshot_store=SkeletonStore(root, mmap_mode=True)
    )
    warm.define_view("v", bookrev_view_text)
    warm.warm_view("v")
    warm.close()
    files = sorted(root.glob("*.pdts"))
    assert len(files) == 2
    for path in files:
        path.write_bytes(corrupt_a_key(path.read_bytes()))

    store = SkeletonStore(root, mmap_mode=True)
    engine = KeywordSearchEngine(bookrev_db, snapshot_store=store)
    engine.define_view("v", bookrev_view_text)
    reference = KeywordSearchEngine(bookrev_db, enable_cache=False)
    reference.define_view("v", bookrev_view_text)
    if site == "edit":
        # Patchable for the view, so the hook restores the old snapshot
        # to forward it; the re-warm that follows then builds.
        bookrev_db.insert_subtree("books.xml", "1", "<zaux>aside</zaux>")
        assert store.stats()["misses"] >= 1
    for _ in range(3):
        outcome = engine.search_detailed("v", ["xml", "search"])
        expected = reference.search_detailed("v", ["xml", "search"])
        assert [(r.rank, r.score, r.to_xml()) for r in outcome.results] == [
            (r.rank, r.score, r.to_xml()) for r in expected.results
        ]
    stats = store.stats()
    assert stats["hits"] == 0 and stats["saves"] == 2, stats
    assert stats["entries"] == 2
    restored = KeywordSearchEngine(
        bookrev_db, snapshot_store=SkeletonStore(root, mmap_mode=True)
    )
    restored.define_view("v", bookrev_view_text)
    assert set(restored.warm_view("v").values()) == {"snapshot"}


def test_engine_requires_cache_for_snapshot_store(tmp_path):
    from repro.core.engine import KeywordSearchEngine

    db = XMLDatabase()
    with pytest.raises(ValueError):
        KeywordSearchEngine(
            db, enable_cache=False, snapshot_store=SkeletonStore(tmp_path)
        )


def test_document_fingerprint_tracks_content():
    db = XMLDatabase()
    first = db.load_document("d.xml", "<r><a>one</a></r>")
    same = XMLDatabase().load_document("d.xml", "<r><a>one</a></r>")
    other = XMLDatabase().load_document("d.xml", "<r><a>two</a></r>")
    assert first.fingerprint == same.fingerprint
    assert first.fingerprint != other.fingerprint