"""End-to-end engine tests: the full Efficient pipeline."""

import pytest

from repro.core.engine import KeywordSearchEngine, extract_keyword_query
from repro.core.outcome import SearchResult
from repro.core.scoring import ResultStatistics, ScoredResult
from repro.errors import (
    StaleViewError,
    StorageError,
    UnsupportedQueryError,
    ViewDefinitionError,
)
from repro.xmlmodel.node import XMLNode
from repro.workloads.bookrev import BOOKREV_KEYWORD_QUERY
from repro.xquery.parser import parse_query
from repro.xquery.functions import inline_functions


@pytest.fixture()
def engine(bookrev_db):
    return KeywordSearchEngine(bookrev_db)


@pytest.fixture()
def view(engine, bookrev_view_text):
    return engine.define_view("bookrevs", bookrev_view_text)


class TestSearch:
    def test_running_example(self, engine, view):
        results = engine.search(view, ["XML", "Search"], top_k=10)
        assert len(results) == 2
        assert results[0].score >= results[1].score
        assert results[0].rank == 1

    def test_results_materialize_full_content(self, engine, view):
        results = engine.search(view, ["XML", "Search"], top_k=1)
        xml = results[0].to_xml()
        assert "<title>" in xml and "</title>" in xml
        assert "<content>" in xml

    def test_pruned_results_lack_content(self, engine, view):
        results = engine.search(view, ["XML", "Search"], top_k=1)
        pruned = results[0].pruned
        titles = [n for n in pruned.iter() if n.tag == "title"]
        assert titles and titles[0].value is None

    def test_top_k_limits(self, engine, view):
        assert len(engine.search(view, ["xml"], top_k=1)) == 1

    def test_disjunctive_mode(self, engine, view):
        conj = engine.search(view, ["search", "intelligence"], top_k=10)
        disj = engine.search(
            view, ["search", "intelligence"], top_k=10, conjunctive=False
        )
        assert len(disj) >= len(conj)

    def test_no_matches(self, engine, view):
        assert engine.search(view, ["zeppelin"], top_k=10) == []

    def test_unknown_keyword_plus_known_conjunctive(self, engine, view):
        assert engine.search(view, ["xml", "zeppelin"], top_k=10) == []

    def test_multi_token_keyword_rejected(self, engine, view):
        with pytest.raises(ValueError):
            engine.search(view, ["two words"], top_k=5)

    def test_search_by_view_name(self, engine, view):
        assert engine.search("bookrevs", ["xml"], top_k=5)

    def test_unknown_view_name(self, engine):
        with pytest.raises(ViewDefinitionError):
            engine.search("nope", ["xml"])


class TestOutcome:
    def test_outcome_statistics(self, engine, view):
        outcome = engine.search_detailed(view, ["xml", "search"], top_k=10)
        assert outcome.view_size == 2  # two books with year > 1995
        assert outcome.matching_count == 2
        assert set(outcome.idf) == {"xml", "search"}
        assert set(outcome.cache_hits) == {"books.xml", "reviews.xml"}

    def test_timings_recorded(self, engine, view):
        outcome = engine.search_detailed(view, ["xml"], top_k=5)
        timings = outcome.timings.as_dict()
        assert set(timings) == {
            "qpt", "pdt", "pdt_skeleton", "pdt_postings",
            "evaluator", "post_processing", "total",
        }
        assert timings["total"] >= timings["pdt"]
        # The skeleton/postings split attributes the PDT phase.
        split = timings["pdt_skeleton"] + timings["pdt_postings"]
        assert split > 0.0
        assert timings["pdt"] + 1e-9 >= split

    def test_store_touched_only_for_materialization(self, engine, view):
        db = engine.database
        db.reset_access_counters()
        outcome = engine.search_detailed(view, ["xml", "search"], top_k=0)
        # top_k=0: nothing materialized, stores untouched end to end.
        for name in db.document_names():
            assert db.get(name).store.access_count == 0
        assert outcome.results == []

    def test_search_is_lazy_by_default(self, engine, view):
        db = engine.database
        db.reset_access_counters()
        results = engine.search(view, ["xml", "search"], top_k=10)
        assert results
        # No document-store access until a caller reads content.
        for name in db.document_names():
            assert db.get(name).store.access_count == 0
        assert not results[0].is_materialized
        results[0].to_xml()
        assert results[0].is_materialized
        assert any(
            db.get(name).store.access_count > 0 for name in db.document_names()
        )

    def test_eager_materialization_opt_in(self, engine, view):
        db = engine.database
        db.reset_access_counters()
        results = engine.search(view, ["xml", "search"], top_k=10, materialize=True)
        assert results and all(r.is_materialized for r in results)
        assert any(
            db.get(name).store.access_count > 0 for name in db.document_names()
        )

    def test_result_without_database_raises_clear_error(self):
        scored = ScoredResult(
            index=0,
            node=XMLNode("r"),
            statistics=ResultStatistics(term_frequencies={}, byte_length=1),
        )
        result = SearchResult(rank=1, score=0.0, scored=scored)
        with pytest.raises(StorageError, match="not attached to a database"):
            result.materialize()

    def test_empty_view_produces_empty_outcome(self, engine):
        view = engine.define_view(
            "none",
            "for $b in fn:doc(books.xml)/books//book "
            "where $b/year > 3000 return <r>{$b/title}</r>",
        )
        outcome = engine.search_detailed(view, ["xml"], top_k=5)
        assert outcome.view_size == 0
        assert outcome.results == []


class TestStaleViews:
    def test_search_on_stale_view_rejected(self, engine, view, bookrev_db):
        bookrev_db.drop_document("reviews.xml")
        with pytest.raises(StaleViewError) as excinfo:
            engine.search(view, ["xml"], top_k=5)
        assert excinfo.value.view_name == "bookrevs"
        assert excinfo.value.missing == ["reviews.xml"]
        # Every dropped document is named, not only the first found.
        bookrev_db.drop_document("books.xml")
        with pytest.raises(StaleViewError) as excinfo:
            engine.search(view, ["xml"], top_k=5)
        assert excinfo.value.missing == ["books.xml", "reviews.xml"]

    def test_stale_view_name_error_is_view_definition_error(self):
        assert issubclass(StaleViewError, ViewDefinitionError)

    def test_evaluate_view_rejects_stale(self, engine, view, bookrev_db):
        bookrev_db.drop_document("reviews.xml")
        with pytest.raises(StaleViewError):
            engine.evaluate_view(view)

    def test_view_usable_again_after_reload(self, engine, view, bookrev_db):
        reviews_text = bookrev_db.get("reviews.xml").serialized
        bookrev_db.drop_document("reviews.xml")
        bookrev_db.load_document("reviews.xml", reviews_text)
        assert len(engine.search(view, ["xml", "search"], top_k=10)) == 2


class TestDefineView:
    def test_unknown_document_fails_fast(self, engine):
        with pytest.raises(Exception):
            engine.define_view(
                "bad", "for $x in fn:doc(nope.xml)/a return <r>{$x/b}</r>"
            )

    def test_view_reuse_caches_qpts(self, engine, view):
        qpt_first = view.qpts["books.xml"]
        engine.search(view, ["xml"], top_k=1)
        assert view.qpts["books.xml"] is qpt_first

    def test_view_with_no_documents_rejected(self, engine):
        with pytest.raises((ViewDefinitionError, UnsupportedQueryError)):
            engine.define_view("v", "for $x in $y/a return $x")


class TestExecuteKeywordQuery:
    def test_figure2_form(self, engine, bookrev_view_text):
        results = engine.execute(BOOKREV_KEYWORD_QUERY, top_k=10)
        view = engine.define_view("direct", bookrev_view_text)
        direct = engine.search(view, ["xml", "search"], top_k=10)
        assert [round(r.score, 9) for r in results] == [
            round(r.score, 9) for r in direct
        ]
        assert [r.to_xml() for r in results] == [r.to_xml() for r in direct]

    def test_extract_keyword_query(self):
        program = parse_query(BOOKREV_KEYWORD_QUERY)
        expr = inline_functions(program)
        view_expr, keywords, conjunctive = extract_keyword_query(expr)
        assert keywords == ("xml", "search")
        assert conjunctive

    def test_extract_requires_ftcontains(self):
        program = parse_query(
            "for $b in fn:doc(books.xml)/books//book return $b"
        )
        with pytest.raises(UnsupportedQueryError):
            extract_keyword_query(inline_functions(program))

    def test_extract_with_extra_where_conjunct(self):
        text = """
        for $b in fn:doc(books.xml)/books//book
        where $b/year > 1995 and $b ftcontains('xml')
        return $b
        """
        program = parse_query(text)
        view_expr, keywords, conjunctive = extract_keyword_query(
            inline_functions(program)
        )
        assert keywords == ("xml",)
        assert view_expr.where is not None  # the year conjunct remains

    def test_extract_mismatched_variable_rejected(self):
        text = """
        for $a in fn:doc(books.xml)/books//book
        for $b in fn:doc(reviews.xml)/reviews//review
        where $a ftcontains('xml')
        return $b
        """
        program = parse_query(text)
        with pytest.raises(UnsupportedQueryError):
            extract_keyword_query(inline_functions(program))


class TestExplain:
    def test_explain_without_keywords(self, engine, view):
        report = engine.explain(view)
        assert "QPT over books.xml" in report
        assert "probe plan" in report
        assert "/books//book/year" in report
        assert "pdt:" not in report

    def test_explain_with_keywords_includes_pdt_sizes(self, engine, view):
        report = engine.explain(view, ["xml", "search"])
        assert "pdt:" in report
        assert "keywords: xml, search" in report

    def test_explain_by_name(self, engine, view):
        assert "QPT" in engine.explain("bookrevs")


class TestWarmView:
    def test_warm_view_makes_first_contact_queries_skeleton_warm(
        self, engine, view, bookrev_db
    ):
        hits = engine.warm_view("bookrevs")
        assert hits == {"books.xml": "miss", "reviews.xml": "miss"}
        bookrev_db.reset_access_counters()
        outcome = engine.search_detailed(view, ("intelligence",), top_k=5)
        assert set(outcome.cache_hits.values()) == {"skeleton"}
        assert outcome.evaluated_hit
        assert all(
            bookrev_db.get(n).path_index.probe_count == 0
            for n in bookrev_db.document_names()
        )

    def test_warm_view_is_idempotent_and_reports_warm_state(self, engine, view):
        engine.warm_view(view)
        again = engine.warm_view(view)
        assert set(again.values()) <= {"skeleton", "pdt"}

    def test_warm_view_requires_cache(self, bookrev_db, bookrev_view_text):
        from repro.core.engine import KeywordSearchEngine

        cacheless = KeywordSearchEngine(bookrev_db, enable_cache=False)
        cacheless.define_view("v", bookrev_view_text)
        with pytest.raises(ValueError):
            cacheless.warm_view("v")

    def test_warm_view_rejects_stale(self, engine, view, bookrev_db):
        bookrev_db.drop_document("reviews.xml")
        with pytest.raises(StaleViewError):
            engine.warm_view("bookrevs")


class TestUpdateRewarm:
    """Every sub-document update re-warms the views it touches — there is
    no switch: for a view that kept its entries it is two lookups."""

    def _probes(self, db):
        return sum(
            db.get(n).path_index.probe_count for n in db.document_names()
        )

    def test_structural_edit_leaves_the_next_query_warm(
        self, engine, view, bookrev_db
    ):
        engine.search(view, ["xml"], top_k=5)
        bookrev_db.insert_subtree(
            "books.xml",
            "1",
            "<book><isbn>555-55-5555</isbn><title>New XML Search</title>"
            "<year>2006</year></book>",
        )
        bookrev_db.reset_access_counters()
        outcome = engine.search_detailed(view, ["search"], top_k=5)
        assert set(outcome.cache_hits.values()) == {"skeleton"}
        assert outcome.evaluated_hit
        assert self._probes(bookrev_db) == 0
        assert any("New XML Search" in r.to_xml() for r in outcome.results)

    def test_patchable_edit_rewarm_builds_and_evaluates_nothing(
        self, engine, view, bookrev_db
    ):
        engine.search(view, ["xml"], top_k=5)
        before = engine.cache.stats()
        bookrev_db.reset_access_counters()
        bookrev_db.insert_subtree("books.xml", "1.1.2", "<zaux>aside</zaux>")
        after = engine.cache.stats()
        assert self._probes(bookrev_db) == 0
        for tier in ("skeleton", "evaluated"):
            assert after[tier]["misses"] == before[tier]["misses"]
            assert after[tier]["hits"] == before[tier]["hits"] + (
                2 if tier == "skeleton" else 1
            )

    def test_engine_without_a_snapshot_store_never_fingerprints(
        self, engine, view, bookrev_db
    ):
        engine.search(view, ["xml"], top_k=5)
        delta = bookrev_db.insert_subtree("books.xml", "1.1.2", "<zaux>x</zaux>")
        engine.search(view, ["xml"], top_k=5)
        assert delta.old_fingerprint is None
        assert all(
            bookrev_db.get(n).store.content_sum is None
            for n in bookrev_db.document_names()
        )

    def test_rewarm_is_not_an_option(self, bookrev_db):
        with pytest.raises(TypeError):
            KeywordSearchEngine(bookrev_db, rewarm_on_update=False)


class TestThreadSafetyHooks:
    def test_warm_view_rejects_stale_view_object(self, engine, view):
        engine.define_view("bookrevs", view.text)  # redefinition
        with pytest.raises(ViewDefinitionError):
            engine.warm_view(view)  # the old object would warm nothing
        # By name (or with the re-fetched object) warming works.
        assert set(engine.warm_view("bookrevs").values()) <= {
            "miss", "skeleton", "pdt"
        }
