"""Baseline engines: naive materialization, GTP structural joins, Proj."""

import pytest

from repro.baselines.gtp import GTPEngine, GTPStatistics, structural_join
from repro.baselines.naive import BaselineEngine
from repro.baselines.projection import project_document, project_serialized
from repro.core.pdt import generate_pdt
from repro.core.qpt import generate_qpts
from repro.core.reference import reference_pdt
from repro.workloads.bookrev import BOOKREV_VIEW
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query


def qpts_for(text):
    return generate_qpts(inline_functions(parse_query(text)))


class TestStructuralJoin:
    def test_ancestor_descendant(self):
        ancestors = [(1,), (1, 2), (2,)]
        descendants = [(1, 2, 3), (3, 1)]
        matched_anc, matched_desc = structural_join(ancestors, descendants, "//")
        assert matched_anc == {(1,), (1, 2)}
        assert matched_desc == {(1, 2, 3)}

    def test_parent_child_axis(self):
        ancestors = [(1,), (1, 2)]
        descendants = [(1, 2, 3)]
        matched_anc, matched_desc = structural_join(ancestors, descendants, "/")
        assert matched_anc == {(1, 2)}
        assert matched_desc == {(1, 2, 3)}

    def test_equal_ids_not_matched(self):
        matched_anc, matched_desc = structural_join([(1, 2)], [(1, 2)], "//")
        assert matched_anc == set() and matched_desc == set()

    def test_empty_inputs(self):
        assert structural_join([], [(1,)], "//") == (set(), set())
        assert structural_join([(1,)], [], "//") == (set(), set())

    def test_nested_ancestors_both_match(self):
        ancestors = [(1,), (1, 1)]
        descendants = [(1, 1, 1)]
        matched_anc, _ = structural_join(ancestors, descendants, "//")
        assert matched_anc == {(1,), (1, 1)}

    def test_multiple_descendants_per_ancestor(self):
        ancestors = [(1,)]
        descendants = [(1, 1), (1, 2), (2, 1)]
        matched_anc, matched_desc = structural_join(ancestors, descendants, "//")
        assert matched_anc == {(1,)}
        assert matched_desc == {(1, 1), (1, 2)}


def _node_rows(result):
    """Per node of a PDT, what the shared tree builder decides: tag, text
    and the annotation's dewey, byte length (read from the result's
    skeleton column), pruned flag and content slot.  The byte length
    only where scoring reads it, at content nodes: the sweep records
    none for an ancestor it derived without a probe, GTP reads every
    record's from base data."""
    rows = []
    for node in result.root.iter():
        anno = node.anno
        if anno is None:
            rows.append((node.tag, node.text))
            continue
        length = result.byte_lengths[anno.position] if anno.pruned else None
        rows.append(
            (node.tag, node.text, anno.dewey, length, anno.pruned, anno.slot)
        )
    return rows


class TestGTP:
    #: ``zzznever`` has no postings; ``xml`` is queried twice.
    KEYWORDS = ("xml", "search", "zzznever", "data", "xml")

    def test_pruned_document_matches_reference(self, bookrev_db):
        engine = GTPEngine(bookrev_db)
        for doc, qpt in qpts_for(BOOKREV_VIEW).items():
            indexed = bookrev_db.get(doc)
            result = engine.build_pruned_document(
                qpt, self.KEYWORDS, GTPStatistics()
            )
            reference = reference_pdt(qpt, indexed.root, self.KEYWORDS)
            produced = {
                node.anno.dewey.components: node
                for node in result.root.iter()
                if node.anno is not None and node.anno.dewey is not None
            }
            assert set(produced) == set(reference)
            for dewey, expected in reference.items():
                if expected["wants_content"]:
                    assert (
                        result.tf_map(produced[dewey])
                        == expected["term_frequencies"]
                    )
            # The same tree and the same tf layout as the engine's sweep.
            swept = generate_pdt(
                qpt, indexed.path_index, indexed.inverted_index, self.KEYWORDS
            )
            assert result.tf_arrays == swept.tf_arrays
            assert result.tf_arrays["zzznever"] is None
            assert _node_rows(result) == _node_rows(swept)
            assert result.node_count == swept.node_count

    def test_gtp_accesses_base_data(self, bookrev_db):
        """The defining cost difference: GTP touches document storage."""
        qpt = qpts_for(BOOKREV_VIEW)["books.xml"]
        engine = GTPEngine(bookrev_db)
        stats = GTPStatistics()
        bookrev_db.reset_access_counters()
        engine.build_pruned_document(qpt, ("xml",), stats)
        assert stats.base_value_accesses > 0
        assert bookrev_db.get("books.xml").store.access_count > 0

    def test_statistics_populated(self, bookrev_db):
        engine = GTPEngine(bookrev_db)
        view = engine.define_view("v", BOOKREV_VIEW)
        engine.search(view, ["xml", "search"], top_k=5)
        stats = engine.last_statistics
        assert stats.tag_stream_entries > 0
        assert stats.structural_joins > 0


class TestBaselineEngine:
    def test_results_are_materialized_trees(self, bookrev_db):
        engine = BaselineEngine(bookrev_db)
        view = engine.define_view("v", BOOKREV_VIEW)
        results = engine.search(view, ["xml", "search"], top_k=5)
        assert results
        for result in results:
            assert "<title>" in result.to_xml()

    def test_detached_copies_do_not_alias_base(self, bookrev_db):
        engine = BaselineEngine(bookrev_db)
        view = engine.define_view("v", BOOKREV_VIEW)
        results = engine.search(view, ["xml"], top_k=1)
        title = next(n for n in results[0].materialized.iter() if n.tag == "title")
        base_titles = {
            id(n) for n in bookrev_db.get("books.xml").root.iter()
        }
        assert id(title) not in base_titles

    def test_timings_recorded(self, bookrev_db):
        engine = BaselineEngine(bookrev_db)
        view = engine.define_view("v", BOOKREV_VIEW)
        outcome = engine.search_detailed(view, ["xml"], top_k=5)
        assert outcome.timings.evaluator > 0


class TestProjection:
    def test_keeps_path_matches_without_twig_pruning(self, bookrev_db):
        """PROJ keeps the 1990 book even though the view's year predicate
        would exclude it (isolated-path semantics, paper Section 4)."""
        qpt = qpts_for(BOOKREV_VIEW)["books.xml"]
        result = project_document(qpt, bookrev_db.get("books.xml").root)
        years = [n.value for n in result.root.iter() if n.tag == "year"]
        assert "1990" in years

    def test_materializes_values(self, bookrev_db):
        qpt = qpts_for(BOOKREV_VIEW)["books.xml"]
        result = project_document(qpt, bookrev_db.get("books.xml").root)
        titles = [n.value for n in result.root.iter() if n.tag == "title"]
        assert all(t is not None for t in titles)

    def test_drops_unmatched_branches(self, bookrev_db):
        qpt = qpts_for(BOOKREV_VIEW)["reviews.xml"]
        result = project_document(qpt, bookrev_db.get("reviews.xml").root)
        tags = {n.tag for n in result.root.iter()}
        assert "rate" not in tags  # not on any QPT path
        assert "reviewer" not in tags

    def test_superset_of_pdt(self, bookrev_db):
        """Everything the PDT keeps, PROJ keeps too (PROJ prunes less)."""
        from repro.core.pdt import generate_pdt

        qpt = qpts_for(BOOKREV_VIEW)["books.xml"]
        indexed = bookrev_db.get("books.xml")
        pdt = generate_pdt(qpt, indexed.path_index, indexed.inverted_index, ())
        pdt_tags_values = {
            (n.tag, n.anno.dewey.components)
            for n in pdt.root.iter()
            if n.anno is not None and n.anno.dewey is not None
        }
        projected = project_document(qpt, indexed.root)
        projected_ids = {
            (n.tag, n.dewey.components if n.dewey else None)
            for n in projected.root.iter()
        }
        # Compare on tags only: projection copies lose Dewey labels.
        assert {t for t, _ in pdt_tags_values} <= {t for t, _ in projected_ids}
        assert projected.kept_nodes >= pdt.node_count

    def test_serialized_variant_matches_tree_variant(self, bookrev_db):
        from repro.xmlmodel.serializer import serialize

        qpt = qpts_for(BOOKREV_VIEW)["books.xml"]
        indexed = bookrev_db.get("books.xml")
        from_tree = project_document(qpt, indexed.root)
        from_text = project_serialized(qpt, indexed.serialized)
        assert serialize(from_tree.root) == serialize(from_text.root)

    def test_projection_keeps_only_matching_prefix(self):
        from repro.storage.database import XMLDatabase

        db = XMLDatabase()
        db.load_document("d.xml", "<r><z>nothing</z></r>")
        qpt = qpts_for(
            "for $x in fn:doc(d.xml)/r//x return <o>{$x/a}</o>"
        )["d.xml"]
        result = project_document(qpt, db.get("d.xml").root)
        # The root matches the /r prefix and is kept; nothing below does.
        assert result.kept_nodes == 1
        assert {n.tag for n in result.root.iter()} == {"r"}

    def test_projection_empty_when_root_differs(self):
        from repro.storage.database import XMLDatabase

        db = XMLDatabase()
        db.load_document("d.xml", "<other><z/></other>")
        qpt = qpts_for(
            "for $x in fn:doc(d.xml)/r//x return <o>{$x/a}</o>"
        )["d.xml"]
        result = project_document(qpt, db.get("d.xml").root)
        assert result.is_empty
        assert result.kept_nodes == 0
