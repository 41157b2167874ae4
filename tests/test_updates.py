"""Unit tests for sub-document updates (the write path's delta machinery).

The ``mutations`` difftest configuration checks the end-to-end
delta-vs-rebuild equivalence on randomized streams; these tests pin the
individual contracts — Dewey stability rules, payload guards, parent
serialization overhead, index splice parity, hook channels, cache
migration, and skeleton byte-length patching.
"""

from __future__ import annotations

from hashlib import blake2b

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.naive import BaselineEngine
from repro.core.cache import LRUCache, QueryCache
from repro.core.engine import KeywordSearchEngine
from repro.core.maintenance import delta_patchable
from repro.core.skeleton import patch_skeleton_byte_lengths
from repro.core.snapshot import SkeletonStore
from repro.dewey import DeweyID
from repro.errors import StorageError
from repro.storage.database import XMLDatabase
from repro.storage.update import UPDATE_KINDS
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize, serialized_length

from difftest.generators import (
    apply_mutation,
    generate_case,
    generate_mutation_stream,
)
from difftest.test_differential import _seed_matrix

DOC = """<items>
  <item><id>id-1</id><name>alpha widget</name>
    <body><para>widget text here</para></body></item>
  <item><id>id-2</id><name>beta gadget</name>
    <body><para>gadget text there</para></body></item>
  <empty></empty>
</items>"""

VIEW = """
for $item in fn:doc(items.xml)/items//item
return $item
"""


def _database() -> XMLDatabase:
    db = XMLDatabase()
    db.load_document("items.xml", DOC)
    return db


def _rebuild(db: XMLDatabase) -> XMLDatabase:
    fresh = XMLDatabase()
    for name in db.document_names():
        fresh.load_document(name, db.get(name).document)
    return fresh


def _store_rows(indexed):
    return [
        (r.dewey, r.tag, r.value, r.byte_length)
        for r in indexed.store.iter_records()
    ]


def _path_columns(index):
    """The path index's column and per-depth ancestor arrays, keyed by
    path *tuple* (interned ids differ between a patched and a rebuilt
    index)."""
    columns = {}
    for path_id, path in enumerate(index.data_paths):
        arrays = index._path_arrays.get(path_id)
        if arrays is None:
            # An emptied path keeps its interned id and nothing else.
            assert not any(key[0] == path_id for key in index._ancestors)
            continue
        keys, values, lengths, id_column, none_column = arrays
        assert id_column == [path_id] * len(keys)
        assert none_column == [None] * len(keys)
        assert index._ancestors[(path_id, len(path))] is keys
        columns[path] = (
            keys,
            values,
            lengths,
            [
                index.ancestors_on_path(path_id, depth)
                for depth in range(1, len(path) + 1)
            ],
        )
    return columns


def _assert_parity(db: XMLDatabase) -> None:
    """Every derived structure matches a rebuild from the mutated tree."""
    rebuilt = _rebuild(db)
    for name in db.document_names():
        live, fresh = db.get(name), rebuilt.get(name)
        assert _store_rows(live) == _store_rows(fresh)
        assert _path_columns(live.path_index) == _path_columns(fresh.path_index)
        assert live.fingerprint == fresh.fingerprint
        live_postings = {
            kw: [(p.dewey, p.tf) for p in pl.postings]
            for kw, pl in live.inverted_index._lists.items()
            if len(pl)
        }
        fresh_postings = {
            kw: [(p.dewey, p.tf) for p in pl.postings]
            for kw, pl in fresh.inverted_index._lists.items()
            if len(pl)
        }
        assert live_postings == fresh_postings
        # Root record's byte length must equal the true serialization.
        root = live.document.root
        assert live.store.record(root.dewey).byte_length == serialized_length(root)


class TestUpdateAPI:
    def test_update_kinds_constant(self):
        assert UPDATE_KINDS == ("insert", "delete", "replace")

    def test_insert_appends_as_last_child(self):
        db = _database()
        root = db.get("items.xml").document.root
        last_before = root.children[-1]
        delta = db.insert_subtree("items.xml", "1", "<zaux>hello</zaux>")
        root = db.get("items.xml").document.root
        assert root.children[-1].tag == "zaux"
        assert (
            root.children[-1].dewey.components
            == last_before.dewey.components[:-1]
            + (last_before.dewey.components[-1] + 1,)
        )
        assert delta.kind == "insert"
        assert delta.added_paths == (("items", "zaux"),)
        assert delta.removed_paths == ()
        _assert_parity(db)

    def test_insert_into_childless_element_starts_at_one(self):
        db = _database()
        empty = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "empty"
        )
        delta = db.insert_subtree(
            "items.xml", empty.dewey, "<note>first</note>"
        )
        assert delta.edit_id.components == empty.dewey.components + (1,)
        # <empty/> gained its first child: overhead is len("empty") + 2.
        assert delta.length_delta == serialized_length(
            parse_xml("<note>first</note>")
        ) + len("empty") + 2
        _assert_parity(db)

    def test_delete_leaves_ordinal_hole(self):
        db = _database()
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        hole = first_item.dewey.components
        db.delete_subtree("items.xml", first_item.dewey)
        root = db.get("items.xml").document.root
        assert all(c.dewey.components != hole for c in root.children)
        # Remaining siblings kept their ordinals.
        assert root.children[0].dewey.components[-1] != 1
        _assert_parity(db)

    def test_delete_last_child_shrinks_parent_by_tag_overhead(self):
        db = _database()
        empty = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "empty"
        )
        db.insert_subtree("items.xml", empty.dewey, "<note>gone soon</note>")
        note = empty.children[-1]
        payload_len = serialized_length(note)
        delta = db.delete_subtree("items.xml", note.dewey)
        assert delta.length_delta == -(payload_len + len("empty") + 2)
        _assert_parity(db)

    def test_replace_inherits_the_old_dewey_id(self):
        db = _database()
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        old_id = first_item.dewey.components
        delta = db.replace_subtree(
            "items.xml", first_item.dewey, "<item><name>gamma</name></item>"
        )
        root = db.get("items.xml").document.root
        replaced = next(n for n in root.children if n.dewey.components == old_id)
        assert replaced.tag == "item"
        assert serialize(replaced) == "<item><name>gamma</name></item>"
        assert delta.edit_id.components == old_id
        _assert_parity(db)

    def test_root_delete_and_replace_are_rejected(self):
        db = _database()
        with pytest.raises(StorageError):
            db.delete_subtree("items.xml", "1")
        with pytest.raises(StorageError):
            db.replace_subtree("items.xml", "1", "<items/>")

    def test_attached_payload_is_rejected(self):
        db = _database()
        attached = db.get("items.xml").document.root.children[0]
        with pytest.raises(StorageError):
            db.insert_subtree("items.xml", "1", attached)

    def test_missing_target_is_rejected(self):
        db = _database()
        with pytest.raises(StorageError):
            db.delete_subtree("items.xml", "1.999")

    def test_update_bumps_generation_and_fingerprint(self):
        db = _database()
        indexed = db.get("items.xml")
        old_generation = indexed.generation
        old_fingerprint = indexed.fingerprint  # force the digest
        delta = db.insert_subtree("items.xml", "1", "<zaux>bump</zaux>")
        assert delta.old_generation == old_generation
        assert delta.new_generation == indexed.generation > old_generation
        assert delta.old_fingerprint == old_fingerprint
        assert indexed.fingerprint != old_fingerprint

    def test_old_fingerprint_is_cached_only(self):
        # An edit must not force serialization of the pre-edit content.
        db = _database()
        delta = db.insert_subtree("items.xml", "1", "<zaux>lazy</zaux>")
        assert delta.old_fingerprint is None


class TestHookChannels:
    def test_update_hooks_fire_on_updates_only(self):
        db = _database()
        deltas, invalidations = [], []
        db.add_update_hook(deltas.append)
        db.add_invalidation_hook(invalidations.append)
        db.insert_subtree("items.xml", "1", "<zaux>x</zaux>")
        assert [d.kind for d in deltas] == ["insert"]
        assert invalidations == []
        db.drop_document("items.xml")
        db.load_document("items.xml", DOC)
        assert len(deltas) == 1
        assert invalidations == ["items.xml", "items.xml"]

    def test_remove_update_hook(self):
        db = _database()
        deltas = []
        db.add_update_hook(deltas.append)
        db.remove_update_hook(deltas.append)
        db.insert_subtree("items.xml", "1", "<zaux>x</zaux>")
        assert deltas == []


class TestPatchability:
    def _engine(self):
        db = _database()
        engine = KeywordSearchEngine(db)
        view = engine.define_view("v", VIEW)
        return db, engine, view

    def test_foreign_tag_insert_is_patchable(self):
        db, engine, view = self._engine()
        delta = db.insert_subtree("items.xml", "1", "<zaux>free</zaux>")
        qpt = view.qpts["items.xml"]
        assert delta_patchable(qpt, delta)

    def test_matched_tag_edit_is_structural(self):
        db, engine, view = self._engine()
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        delta = db.delete_subtree("items.xml", first_item.dewey)
        qpt = view.qpts["items.xml"]
        assert not delta_patchable(qpt, delta)


class TestCacheMigration:
    def test_rekey_where_moves_matching_entries(self):
        cache = LRUCache(capacity=8)
        cache.put(("v", "d", 1), "keep-moving")
        cache.put(("v", "e", 1), "stay")
        moved = cache.rekey_where(
            lambda k: k[1] == "d",
            lambda k: (k[0], k[1], 2),
        )
        assert moved == [(("v", "d", 2), "keep-moving")]
        assert cache.get(("v", "d", 2)) == "keep-moving"
        assert ("v", "d", 1) not in cache
        assert cache.get(("v", "e", 1)) == "stay"

    def test_apply_document_delta_migrates_patchable_skeletons(self):
        cache = QueryCache()
        skeleton_key = cache.skeleton_key("v", "d.xml", 1, "qh")
        other_key = cache.skeleton_key("w", "d.xml", 1, "qh")
        cache.skeletons.put(skeleton_key, "patchable-skel")
        cache.skeletons.put(other_key, "structural-skel")
        cache.pdts.put(cache.pdt_key("v", "d.xml", 1, "qh", "kw"), "pdt")
        moved, dropped = cache.apply_document_delta("d.xml", 1, 2, {"v"})
        assert [key for key, _ in moved] == [
            cache.skeleton_key("v", "d.xml", 2, "qh")
        ]
        assert cache.skeletons.get(cache.skeleton_key("v", "d.xml", 2, "qh"))
        assert other_key not in cache.skeletons
        assert dropped == 2  # the structural view's skeleton and the tf column

    def test_apply_document_delta_leaves_other_documents_alone(self):
        cache = QueryCache()
        foreign = cache.skeleton_key("v", "other.xml", 1, "qh")
        cache.skeletons.put(foreign, "untouched")
        moved, dropped = cache.apply_document_delta("d.xml", 1, 2, {"v"})
        assert moved == [] and dropped == 0
        assert cache.skeletons.get(foreign) == "untouched"


class TestSkeletonPatch:
    def test_patch_shifts_only_listed_ancestors(self):
        from repro.core.pdt import build_skeleton
        from repro.core.qpt import generate_qpts
        from repro.xquery.parser import parse_query

        db = _database()
        program = parse_query(VIEW)
        qpt = generate_qpts(program.body)["items.xml"]
        skeleton = build_skeleton(qpt, db.get("items.xml").path_index)
        first_item = next(
            n for n in db.get("items.xml").document.root.iter() if n.tag == "item"
        )
        # Ancestors of an edit under the first item: root, then the item.
        ancestor_keys = (DeweyID((1,)).packed, first_item.dewey.packed)
        present = [key for key in ancestor_keys if key in skeleton.keys]
        assert present, "expected at least one ancestor in the skeleton"
        before = dict(zip(skeleton.keys, skeleton.byte_lengths))
        published = skeleton.byte_lengths
        patched = patch_skeleton_byte_lengths(skeleton, ancestor_keys, 30)
        assert patched == len(present)
        # A patch publishes a copy: the column a query may hold is unchanged.
        assert skeleton.byte_lengths is not published
        assert list(published) == list(before.values())
        for key, byte_length in zip(skeleton.keys, skeleton.byte_lengths):
            expected = before[key] + (30 if key in present else 0)
            assert byte_length == expected

    def test_zero_delta_is_a_noop(self):
        assert patch_skeleton_byte_lengths(None, (), 0) == 0

    def test_patch_of_a_never_built_tree_reaches_the_next_sum(self):
        from repro.core.pdt import annotate_skeleton, build_skeleton
        from repro.core.scoring import QueryColumns, StatisticsPlan

        db = _database()
        engine = KeywordSearchEngine(db, enable_cache=False)
        qpt = engine.define_view("v", VIEW).qpts["items.xml"]
        indexed = db.get("items.xml")
        skeleton = build_skeleton(qpt, indexed.path_index)
        assert skeleton._tree_ref is None
        first_item = next(
            n for n in indexed.document.root.iter() if n.tag == "item"
        )
        position = skeleton.keys.index(first_item.dewey.packed)
        before = skeleton.byte_lengths[position]
        delta = db.insert_subtree(
            "items.xml", first_item.dewey, "<zaux>an aside</zaux>"
        )
        assert delta_patchable(qpt, delta)
        assert patch_skeleton_byte_lengths(
            skeleton, delta.ancestor_keys, delta.length_delta
        ) > 0
        assert skeleton._tree_ref is None  # the patch built no tree
        assert skeleton.byte_lengths[position] == (
            before + delta.length_delta
        ) == serialized_length(first_item)
        rebuilt = build_skeleton(qpt, indexed.path_index)

        def summed_lengths(skeleton):
            pdt = annotate_skeleton(skeleton, {}, ("widget",))
            items = [n for n in pdt.root.iter() if n.tag == "item"]
            plan = StatisticsPlan(items)
            return plan.sum(QueryColumns.of({"items.xml": pdt}, ("widget",))).lengths

        lengths = summed_lengths(skeleton)
        assert lengths == summed_lengths(rebuilt)
        assert lengths[0] == serialized_length(first_item)


def _reference_fingerprint(root) -> str:
    """The fingerprint definition, recomputed from the labelled tree with
    nothing shared with the implementation: the hex of Σ blake2b-256(
    packed Dewey key ‖ NUL ‖ tag ‖ US ‖ direct text or RS) mod 2²⁵⁶."""
    total = 0
    for node in root.iter():
        content = node.tag + "\x1f" + ("\x1e" if node.value is None else node.value)
        message = node.dewey.packed + b"\0" + content.encode("utf-8")
        total += int.from_bytes(blake2b(message, digest_size=32).digest(), "big")
    return f"{total % (1 << 256):064x}"


class TestIncrementalFingerprint:
    def test_definition_is_content_addressed(self):
        db = _database()
        indexed = db.get("items.xml")
        assert indexed.fingerprint == _reference_fingerprint(indexed.root)
        # Equal labelled content in another database: equal address.
        assert _database().get("items.xml").fingerprint == indexed.fingerprint
        assert len(indexed.fingerprint) == 64

    def test_each_edit_kind_maintains_the_sum(self):
        db = _database()
        indexed = db.get("items.xml")
        seen = {indexed.fingerprint}
        delta = db.insert_subtree("items.xml", "1.1", "<zaux>one <b>two</b></zaux>")
        for step in (
            lambda: db.replace_subtree("items.xml", delta.edit_id, "<zaux>three</zaux>"),
            lambda: db.delete_subtree("items.xml", "1.2.3"),
            lambda: db.insert_subtree("items.xml", "1.3", "<note>first child</note>"),
        ):
            assert indexed.fingerprint == _reference_fingerprint(indexed.root)
            assert indexed.fingerprint not in seen
            seen.add(indexed.fingerprint)
            step()
        assert indexed.fingerprint == _reference_fingerprint(indexed.root)
        assert indexed.fingerprint not in seen

    def test_label_change_alone_changes_the_fingerprint(self):
        # Same serialized text, different numbering: 1.1, 1.3 vs 1.1, 1.2.
        db = XMLDatabase()
        db.load_document("d.xml", "<r><a>x</a><b>y</b><c>z</c></r>")
        db.delete_subtree("d.xml", "1.2")
        holed = db.get("d.xml")
        dense = XMLDatabase()
        dense.load_document("d.xml", holed.serialized)
        assert dense.get("d.xml").serialized == holed.serialized
        assert dense.get("d.xml").fingerprint != holed.fingerprint

    def test_an_edit_never_hashes_a_document_nobody_fingerprinted(self):
        db = _database()
        engine = KeywordSearchEngine(db)  # no snapshot store
        view = engine.define_view("v", VIEW)
        engine.search(view, ["widget"], top_k=5)
        db.insert_subtree("items.xml", "1", "<zaux>quiet</zaux>")
        engine.search(view, ["widget"], top_k=5)
        assert db.get("items.xml").store.content_sum is None

    def test_an_edit_never_serializes_the_document(self, monkeypatch, tmp_path):
        import repro.xmlmodel.serializer as serializer

        db = _database()
        engine = KeywordSearchEngine(
            db, cache=QueryCache(), snapshot_store=SkeletonStore(tmp_path)
        )
        view = engine.define_view("v", VIEW)
        engine.search(view, ["widget"], top_k=5)

        def refuse(*args, **kwargs):
            raise AssertionError("an edit serialized the document")

        monkeypatch.setattr(serializer, "serialize", refuse)
        before = db.get("items.xml").fingerprint
        delta = db.insert_subtree("items.xml", "1", "<zaux>cheap</zaux>")
        assert delta.old_fingerprint == before
        assert db.get("items.xml").fingerprint != before

    def test_attached_document_shares_the_maintained_sum(self):
        db = _database()
        indexed = db.get("items.xml")
        indexed.fingerprint
        other = XMLDatabase()
        adopted = other.attach_document(indexed)
        assert adopted.store.content_sum is not None
        db.insert_subtree("items.xml", "1", "<zaux>shared</zaux>")
        assert adopted.fingerprint == indexed.fingerprint
        assert adopted.fingerprint == _reference_fingerprint(indexed.root)

    @pytest.mark.parametrize("seed", _seed_matrix())
    def test_maintained_equals_recomputed_on_every_mutations_step(self, seed):
        """The ``mutations`` difftest streams, fingerprint forced first:
        after every step the maintained sum is the recomputed one."""
        db = generate_case(seed).database
        for name in db.document_names():
            db.get(name).fingerprint
        ops = generate_mutation_stream(seed, generate_case(seed).database)
        for op in ops:
            delta = apply_mutation(db, op)
            assert delta.old_fingerprint is not None
            for name in db.document_names():
                indexed = db.get(name)
                assert indexed.fingerprint == _reference_fingerprint(
                    indexed.root
                ), f"seed={seed} op={op.describe()} doc={name}"
            assert db.get(op.doc).fingerprint != delta.old_fingerprint
        _assert_parity(db)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fingerprint_property_over_generated_edit_streams(data):
    """After every prefix of a generated insert/delete/replace stream the
    maintained fingerprint equals the from-scratch fingerprint of a
    rebuild of the live tree and differs from the pre-edit one; undoing
    an insert by its delete returns to the fingerprint before it."""
    db = _database()
    indexed = db.get("items.xml")
    indexed.fingerprint  # force: from here on the edits maintain it
    tags = st.sampled_from(["zaux", "para", "item", "name", "note"])
    words = st.text(alphabet="abc xyz", max_size=12)
    for step in range(data.draw(st.integers(min_value=1, max_value=8))):
        nodes = list(indexed.root.iter())
        removable = [node for node in nodes if node.parent is not None]
        kind = data.draw(
            st.sampled_from(UPDATE_KINDS if removable else ("insert",))
        )
        before = indexed.fingerprint
        if kind == "delete":
            target = data.draw(st.sampled_from(removable))
            db.delete_subtree("items.xml", target.dewey)
        else:
            tag, text, child = data.draw(tags), data.draw(words), data.draw(tags)
            # The step number keeps a replace from reproducing the very
            # subtree it replaces (same fingerprint, rightly).
            payload = (
                f"<{tag}>{text}{step}<{child}>{data.draw(words)}</{child}></{tag}>"
            )
            if kind == "insert":
                target = data.draw(st.sampled_from(nodes))
                delta = db.insert_subtree("items.xml", target.dewey, payload)
                if data.draw(st.booleans()):
                    inserted = indexed.fingerprint
                    assert inserted != before
                    db.delete_subtree("items.xml", delta.edit_id)
                    assert indexed.fingerprint == before
                    db.insert_subtree("items.xml", target.dewey, payload)
                    assert indexed.fingerprint == inserted
            else:
                target = data.draw(st.sampled_from(removable))
                db.replace_subtree("items.xml", target.dewey, payload)
        assert indexed.fingerprint != before
        assert indexed.fingerprint == _rebuild(db).get("items.xml").fingerprint
        assert indexed.fingerprint == _reference_fingerprint(indexed.root)
    _assert_parity(db)


def test_delete_hole_does_not_alias_a_restarted_documents_snapshot(tmp_path):
    """Regression: a delete leaves an ordinal hole (``1.1, 1.3``) that the
    serialized text does not show, so a process restarted from that text
    numbers the siblings ``1.1, 1.2``.  The fingerprint used to digest
    the text alone: the restart computed the same digest, restored the
    forwarded snapshot with the other numbering, ranked with the wrong
    byte lengths and could not materialize its results."""
    text = (
        "<items><zaux>first aside</zaux><zaux>middle aside</zaux>"
        + "".join(
            f"<item><id>id-{n}</id><name>widget {'gadget ' * n}</name>"
            f"<body><para>{'widget ' * (n % 3 + 1)}text</para></body></item>"
            for n in range(1, 7)
        )
        + "</items>"
    )
    db = XMLDatabase()
    db.load_document("items.xml", text)
    store = SkeletonStore(tmp_path)
    engine = KeywordSearchEngine(db, cache=QueryCache(), snapshot_store=store)
    view = engine.define_view("v", VIEW)
    engine.search(view, ["widget"], top_k=10)
    db.delete_subtree("items.xml", "1.2")  # the middle <zaux>: a hole
    qpt_hash = view.qpts["items.xml"].content_hash
    assert (db.get("items.xml").fingerprint, qpt_hash) in store  # forwarded

    restarted_db = XMLDatabase()
    restarted_db.load_document("items.xml", db.get("items.xml").serialized)
    restarted = KeywordSearchEngine(
        restarted_db, cache=QueryCache(), snapshot_store=store
    )
    rview = restarted.define_view("v", VIEW)
    outcome = restarted.search_detailed(rview, ["widget"], top_k=10)

    baseline = BaselineEngine(restarted_db)
    bview = baseline.define_view("truth", VIEW)
    truth = baseline.search_detailed(bview, ["widget"], top_k=10)
    assert [r.score for r in outcome.results] == [r.score for r in truth.results]
    assert len(outcome.results) == 6
    for result in outcome.results:
        assert "<item>" in result.to_xml()
    assert outcome.cache_hits["items.xml"] != "snapshot"
