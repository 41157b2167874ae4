"""PDT generation tests: paper figures, constraints, values, tf, lengths."""

import pytest

from repro.core.pdt import generate_pdt
from repro.core.qpt import QPT, QPTNode, generate_qpts
from repro.core.reference import reference_pdt
from repro.dewey import DeweyID
from repro.storage.database import XMLDatabase
from repro.values import Predicate
from repro.xmlmodel.serializer import serialize
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query


def qpts_for(text):
    return generate_qpts(inline_functions(parse_query(text)))


def pdt_for(db, qpt, keywords=()):
    indexed = db.get(qpt.doc_name)
    return generate_pdt(
        qpt, indexed.path_index, indexed.inverted_index, tuple(keywords)
    )


def pdt_deweys(result):
    out = set()
    for node in result.root.iter():
        if node.anno is not None and node.anno.dewey is not None:
            out.add(node.anno.dewey.components)
    return out


class TestRunningExample:
    """The Figure 6(b) PDT for the books document."""

    def test_books_pdt_structure(self, bookrev_db, bookrev_view_text):
        qpt = qpts_for(bookrev_view_text)["books.xml"]
        result = pdt_for(bookrev_db, qpt, ["xml", "search"])
        # Books 1 and 2 qualify (year > 1995); book 3 (1990) and book 4
        # (no year) are pruned.
        books = result.root.children_by_tag("book")
        assert len(books) == 2

    def test_values_selectively_materialized(self, bookrev_db, bookrev_view_text):
        qpt = qpts_for(bookrev_view_text)["books.xml"]
        result = pdt_for(bookrev_db, qpt, ["xml"])
        first_book = result.root.children_by_tag("book")[0]
        values = {child.tag: child.value for child in first_book.children}
        assert values["isbn"] == "111-11-1111"  # v node: value present
        assert values["year"] == "2004"  # predicate node: value present
        assert values["title"] is None  # c node: pruned content

    def test_content_nodes_carry_tf(self, bookrev_db, bookrev_view_text):
        qpt = qpts_for(bookrev_view_text)["reviews.xml"]
        result = pdt_for(bookrev_db, qpt, ["xml", "search"])
        contents = [
            node for node in result.root.iter() if node.tag == "content"
        ]
        assert contents, "content nodes missing from reviews PDT"
        # Shared skeleton trees keep per-query tfs in the result's flat
        # arrays, resolved through each content node's slot.
        assert all(node.anno.slot is not None for node in contents)
        tf_maps = [result.tf_map(node) for node in contents]
        assert {"xml", "search"} <= set(tf_maps[0])
        assert any(tf_map["search"] > 0 for tf_map in tf_maps)

    def test_reviews_without_isbn_pruned(self, bookrev_db, bookrev_view_text):
        qpt = qpts_for(bookrev_view_text)["reviews.xml"]
        result = pdt_for(bookrev_db, qpt, [])
        for review in result.root.children_by_tag("review"):
            assert review.children_by_tag("isbn"), "orphan review not pruned"

    def test_byte_lengths_match_reference(self, bookrev_db, bookrev_view_text):
        qpt = qpts_for(bookrev_view_text)["books.xml"]
        result = pdt_for(bookrev_db, qpt, [])
        reference = reference_pdt(qpt, bookrev_db.get("books.xml").root)
        for node in result.root.iter():
            anno = node.anno
            if anno is None or not anno.pruned:
                continue
            assert result.byte_lengths[anno.position] == reference[
                anno.dewey.components
            ]["byte_length"]

    def test_matches_reference_exactly(self, bookrev_db, bookrev_view_text):
        for doc_name, qpt in qpts_for(bookrev_view_text).items():
            result = pdt_for(bookrev_db, qpt, ["xml", "search"])
            reference = reference_pdt(
                qpt, bookrev_db.get(doc_name).root, ("xml", "search")
            )
            assert pdt_deweys(result) == set(reference)

    def test_index_only_no_store_access(self, bookrev_db, bookrev_view_text):
        """Phase 2 must never touch document storage (paper's core claim)."""
        bookrev_db.reset_access_counters()
        for doc_name, qpt in qpts_for(bookrev_view_text).items():
            pdt_for(bookrev_db, qpt, ["xml", "search"])
        for doc_name in ("books.xml", "reviews.xml"):
            assert bookrev_db.get(doc_name).store.access_count == 0


class TestAppendixEExample:
    """The QPT/data of Appendix E Figure 28: a with children b/c, b/d, b/e."""

    @pytest.fixture()
    def db(self):
        db = XMLDatabase()
        db.load_document(
            "d.xml",
            "<a>"
            "<x><b><c>1</c><d>2</d></b></x>"
            "<x><b><c>3</c><e>4</e></b></x>"
            "<x><b><e>5</e></b></x>"
            "</a>",
        )
        return db

    @pytest.fixture()
    def qpt(self):
        # a//b with mandatory children c and d... built directly to mirror
        # the figure: two b branches with different mandatory children.
        root = QPTNode("#doc")
        a = QPTNode("a")
        root.add_child(a, "/", True)
        b1 = QPTNode("b")
        a.add_child(b1, "//", True)
        c = QPTNode("c", c_ann=True)
        b1.add_child(c, "/", True)
        b2 = QPTNode("b")
        a.add_child(b2, "//", False)
        d = QPTNode("d", v_ann=True)
        b2.add_child(d, "/", True)
        e = QPTNode("e", v_ann=True)
        b2.add_child(e, "/", False)  # optional, like Fig. 28's DM (d:1, e:0)
        return QPT("d.xml", root)

    def test_mutual_constraints(self, db, qpt):
        result = pdt_for(db, qpt)
        reference = reference_pdt(qpt, db.get("d.xml").root)
        assert pdt_deweys(result) == set(reference)

    def test_first_b_in_pdt_second_branch_filtered(self, db, qpt):
        result = pdt_for(db, qpt)
        deweys = pdt_deweys(result)
        # b(1.1.1) has c and d -> qualifies for both branches.
        assert (1, 1, 1) in deweys
        assert (1, 1, 1, 2) in deweys  # its d (mandatory on branch 2)
        # b(1.3.1) has only e -> fails branch 1 (no c) and branch 2 (no d).
        assert (1, 3, 1, 1) not in deweys


class TestConstraints:
    def _db(self, xml):
        db = XMLDatabase()
        db.load_document("d.xml", xml)
        return db

    def test_empty_result_when_predicate_excludes_all(self):
        db = self._db("<r><x><a>1</a></x></r>")
        qpt = qpts_for(
            "for $x in fn:doc(d.xml)/r//x where $x/a > 100 return <o>{$x/b}</o>"
        )["d.xml"]
        result = pdt_for(db, qpt)
        assert result.is_empty
        assert result.node_count == 0

    def test_descendant_constraint_cascades_to_root(self):
        db = self._db("<r><x><b>1</b></x></r>")  # no 'a' anywhere
        qpt = qpts_for(
            "for $x in fn:doc(d.xml)/r//x where $x/a = 1 return <o>{$x/b}</o>"
        )["d.xml"]
        assert pdt_for(db, qpt).is_empty

    def test_is_empty_reads_the_columns_not_the_tree(self):
        db = self._db("<r><x><a>1</a></x></r>")
        empty, kept = (
            pdt_for(db, qpts_for(
                f"for $x in fn:doc(d.xml)/r//x where $x/a {test} "
                "return <o>{$x/a}</o>"
            )["d.xml"])
            for test in ("> 100", "= 1")
        )
        assert empty.is_empty and not kept.is_empty
        assert empty.skeleton._tree_ref is None
        assert kept.skeleton._tree_ref is None

    def test_ancestor_constraint_prunes_nested(self):
        # Only x elements inside qualifying parents are kept.
        db = self._db(
            "<r><g><flag>1</flag><x><v>keep</v></x></g>"
            "<g><x><v>drop</v></x></g></r>"
        )
        qpt = qpts_for(
            "for $g in fn:doc(d.xml)/r/g where $g/flag = 1 "
            "return <o>{for $x in $g/x return $x/v}</o>"
        )["d.xml"]
        result = pdt_for(db, qpt)
        reference = reference_pdt(qpt, db.get("d.xml").root)
        assert pdt_deweys(result) == set(reference)
        values = [n.value for n in result.root.iter() if n.tag == "v"]
        assert values == [None]  # one v kept (pruned content), drop branch gone

    def test_repeating_tag_single_dewey_multi_qnode(self):
        db = self._db("<a><a><a><b>x</b></a></a></a>")
        qpt = qpts_for("for $a in fn:doc(d.xml)//a//a return <o>{$a/b}</o>")[
            "d.xml"
        ]
        result = pdt_for(db, qpt)
        reference = reference_pdt(qpt, db.get("d.xml").root)
        assert pdt_deweys(result) == set(reference)

    def test_optional_edges_do_not_prune(self):
        db = self._db("<r><x><a>1</a></x><x><b>2</b></x></r>")
        qpt = qpts_for(
            "for $x in fn:doc(d.xml)/r//x return <o>{$x/a}, {$x/b}</o>"
        )["d.xml"]
        deweys = pdt_deweys(pdt_for(db, qpt))
        assert (1, 1) in deweys and (1, 2) in deweys

    def test_deep_descendant_axis(self):
        db = self._db("<r><l1><l2><l3><t>deep</t></l3></l2></l1></r>")
        qpt = qpts_for("for $t in fn:doc(d.xml)/r//t return <o>{$t}</o>")[
            "d.xml"
        ]
        result = pdt_for(db, qpt)
        reference = reference_pdt(qpt, db.get("d.xml").root)
        assert pdt_deweys(result) == set(reference)
        # Intermediate l1/l2/l3 are not QPT nodes: absent from the PDT.
        tags = {node.tag for node in result.root.iter()}
        assert "l2" not in tags

    def test_equal_scores_same_dewey_from_two_branches(self):
        db = self._db("<r><x><k>1</k></x></r>")
        qpt = qpts_for(
            "for $x in fn:doc(d.xml)/r//x "
            "return <o>{$x/k}, {for $y in fn:doc(d.xml)/r//x "
            "where $y/k = $x/k return $y/k}</o>"
        )["d.xml"]
        result = pdt_for(db, qpt)
        # k element emitted once even though several QPT nodes match it.
        k_nodes = [n for n in result.root.iter() if n.tag == "k"]
        assert len(k_nodes) == 1

    def test_entry_count_reported(self, bookrev_db, bookrev_view_text):
        qpt = qpts_for(bookrev_view_text)["books.xml"]
        result = pdt_for(bookrev_db, qpt)
        assert result.entry_count > 0
        assert result.node_count == len(pdt_deweys(result))

    def test_pdt_serializes_like_figure_6b(self, bookrev_db, bookrev_view_text):
        qpt = qpts_for(bookrev_view_text)["books.xml"]
        text = serialize(pdt_for(bookrev_db, qpt).root)
        assert text.startswith("<books><book>")
        assert "<year>2004</year>" in text
        assert "<title/>" in text  # pruned content


class TestAnnotationShapeStability:
    """Satellite regression: tf annotations are keyed by the *queried*
    keywords, never by which inverted lists happen to be non-empty."""

    def _skeleton_and_index(self, bookrev_db, bookrev_view_text, doc):
        qpt = qpts_for(bookrev_view_text)[doc]
        indexed = bookrev_db.get(doc)
        from repro.core.pdt import build_skeleton

        return build_skeleton(qpt, indexed.path_index), indexed.inverted_index

    def test_zero_posting_keyword_gets_explicit_zero(
        self, bookrev_db, bookrev_view_text
    ):
        from repro.core.pdt import annotate_skeleton
        from repro.core.prepare import prepare_inv_lists

        skeleton, inverted = self._skeleton_and_index(
            bookrev_db, bookrev_view_text, "reviews.xml"
        )
        keywords = ("xml", "zzznever")
        result = annotate_skeleton(
            skeleton, prepare_inv_lists(inverted, keywords), keywords
        )
        assert set(result.tf_arrays) == {"xml", "zzznever"}
        contents = [
            node
            for node in result.root.iter()
            if node.anno is not None and node.anno.pruned
        ]
        assert contents
        for node in contents:
            tf_map = result.tf_map(node)
            assert tf_map["zzznever"] == 0
            assert set(tf_map) == {"xml", "zzznever"}

    def test_keyword_missing_from_inv_lists_still_present(
        self, bookrev_db, bookrev_view_text
    ):
        # Even an inv_lists dict that omits the keyword entirely (no probe
        # was made) yields a shape-stable all-zero entry.
        from repro.core.pdt import annotate_skeleton

        skeleton, _ = self._skeleton_and_index(
            bookrev_db, bookrev_view_text, "reviews.xml"
        )
        result = annotate_skeleton(skeleton, {}, ("ghost",))
        assert result.tf_arrays == {"ghost": None}
        for node in result.root.iter():
            if node.anno is not None and node.anno.pruned:
                assert result.tf_map(node) == {"ghost": 0}

    def test_engine_search_with_never_occurring_keyword(
        self, bookrev_db, bookrev_view_text
    ):
        from repro.core.engine import KeywordSearchEngine

        engine = KeywordSearchEngine(bookrev_db)
        view = engine.define_view("v", bookrev_view_text)
        # Conjunctive: impossible keyword filters everything out.
        assert engine.search(view, ["xml", "zzznever"], top_k=10) == []
        # Disjunctive: results still rank by the real keyword.
        hits = engine.search(
            view, ["xml", "zzznever"], top_k=10, conjunctive=False
        )
        assert hits
        assert all(hit.tf("zzznever") == 0 for hit in hits)


def _content_keys(skeleton):
    """The keys of the content records, in slot order."""
    return [key for key, flag in zip(skeleton.keys, skeleton.flags) if flag & 2]


class TestMergeJoinAnnotation:
    """The one-sweep annotation equals the per-node range-sum baseline."""

    def test_sweep_matches_per_node_subtree_tf(
        self, bookrev_db, bookrev_view_text
    ):
        from repro.core.pdt import annotate_skeleton, build_skeleton
        from repro.core.prepare import prepare_inv_lists

        keywords = ("xml", "search", "structure")
        for doc in ("books.xml", "reviews.xml"):
            qpt = qpts_for(bookrev_view_text)[doc]
            indexed = bookrev_db.get(doc)
            skeleton = build_skeleton(qpt, indexed.path_index)
            inv_lists = prepare_inv_lists(indexed.inverted_index, keywords)
            result = annotate_skeleton(skeleton, inv_lists, keywords)
            for slot, key in enumerate(_content_keys(skeleton)):
                dewey_id = DeweyID.from_packed(key)
                for keyword in keywords:
                    assert result.tf_at(slot, keyword) == inv_lists[
                        keyword
                    ].subtree_tf(dewey_id), (doc, key, keyword)


class TestSkeletonPrecompute:
    """The skeleton caches everything keyword-independent, once."""

    def test_tree_is_shared_across_annotations(
        self, bookrev_db, bookrev_view_text
    ):
        from repro.core.pdt import annotate_skeleton, build_skeleton
        from repro.core.prepare import prepare_inv_lists

        qpt = qpts_for(bookrev_view_text)["books.xml"]
        indexed = bookrev_db.get("books.xml")
        skeleton = build_skeleton(qpt, indexed.path_index)
        first = annotate_skeleton(
            skeleton, prepare_inv_lists(indexed.inverted_index, ("xml",)), ("xml",)
        )
        second = annotate_skeleton(
            skeleton,
            prepare_inv_lists(indexed.inverted_index, ("search",)),
            ("search",),
        )
        assert first.root is skeleton.tree
        assert second.root is skeleton.tree  # zero tree construction per query

    def test_bounds_are_sorted_and_slots_resolve(self, bookrev_db, bookrev_view_text):
        from repro.core.pdt import build_skeleton
        from repro.dewey import packed_child_bound

        qpt = qpts_for(bookrev_view_text)["reviews.xml"]
        skeleton = build_skeleton(qpt, bookrev_db.get("reviews.xml").path_index)
        bounds, slot_bounds = skeleton.subtree_bounds
        assert list(bounds) == sorted(set(bounds))
        assert len(slot_bounds) == skeleton.content_count
        for slot, key in enumerate(_content_keys(skeleton)):
            low, high = slot_bounds[slot]
            assert bounds[low] == key
            assert bounds[high] == packed_child_bound(key)

    def test_threads_annotating_a_fresh_skeleton_agree(
        self, bookrev_db, bookrev_view_text
    ):
        import sys
        import threading

        from repro.core.pdt import annotate_skeleton, build_skeleton
        from repro.core.prepare import prepare_inv_lists

        qpt = qpts_for(bookrev_view_text)["reviews.xml"]
        indexed = bookrev_db.get("reviews.xml")
        keywords = ("xml", "search", "good")
        inv_lists = prepare_inv_lists(indexed.inverted_index, keywords)
        expected = annotate_skeleton(
            build_skeleton(qpt, indexed.path_index), inv_lists, keywords
        ).tf_arrays
        skeleton = build_skeleton(qpt, indexed.path_index)
        assert skeleton._bounds is None  # built, not yet annotated
        barrier, seen = threading.Barrier(8), []

        def annotate():
            barrier.wait()
            tf_arrays = annotate_skeleton(skeleton, inv_lists, keywords).tf_arrays
            seen.append((tf_arrays, skeleton.subtree_bounds))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=annotate) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8
        bounds = skeleton.subtree_bounds
        assert skeleton.subtree_bounds is bounds  # settled
        for tf_arrays, seen_bounds in seen:
            assert tf_arrays == expected
            assert seen_bounds == bounds

    def test_memory_bytes_do_not_depend_on_who_derived_the_bounds(
        self, bookrev_db, bookrev_view_text
    ):
        from repro.core.cache import LRUCache
        from repro.core.pdt import annotate_skeleton, build_skeleton

        qpt = qpts_for(bookrev_view_text)["reviews.xml"]
        path_index = bookrev_db.get("reviews.xml").path_index
        annotated, fresh = (build_skeleton(qpt, path_index) for _ in range(2))
        annotate_skeleton(annotated, {}, ("xml",))
        assert annotated._bounds is not None and fresh._bounds is None
        tiers = LRUCache(4), LRUCache(4)
        for tier, skeleton in zip(tiers, (annotated, fresh)):
            tier.put("reviews.xml", skeleton)
        assert fresh._bounds is not None  # the put measured it
        assert annotated.memory_bytes == fresh.memory_bytes > 0
        assert tiers[0].memory_bytes == tiers[1].memory_bytes

    def test_parent_positions_match_byte_prefixes(
        self, bookrev_db, bookrev_view_text
    ):
        from repro.core.pdt import build_skeleton

        qpt = qpts_for(bookrev_view_text)["books.xml"]
        skeleton = build_skeleton(qpt, bookrev_db.get("books.xml").path_index)
        for node in skeleton.tree.iter():
            if node.parent is None or node.parent.anno is None:
                continue
            key = node.anno.dewey.packed
            # Nested under the nearest emitted proper ancestor.
            assert node.parent.anno.dewey.packed == max(
                (k for k in skeleton.keys if key.startswith(k) and k != key),
                key=len,
            )
