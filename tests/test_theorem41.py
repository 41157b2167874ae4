"""Theorem 4.1: the Efficient pipeline reproduces the materialized view's
result sequence, byte lengths, term frequencies, scores and rank order.

The Baseline engine defines the ground truth (it materializes the view over
the base documents and tokenizes real text).  Every assertion here compares
the two pipelines end to end, on the paper's running example, on generated
books/reviews data, and on the synthetic INEX workload with every view the
experiments use.
"""

from __future__ import annotations

import pytest

from repro.baselines.naive import BaselineEngine
from repro.core.engine import KeywordSearchEngine
from repro.storage.database import XMLDatabase
from repro.workloads.bookrev import BOOKREV_VIEW
from repro.workloads.params import ExperimentParams
from repro.workloads.views import (
    authors_articles_view,
    nested_view,
    selection_view,
)


def compare(db, view_text, keywords, top_k=10, conjunctive=True):
    efficient = KeywordSearchEngine(db)
    baseline = BaselineEngine(db)
    eview = efficient.define_view("v", view_text)
    bview = baseline.define_view("v", view_text)
    eout = efficient.search_detailed(eview, keywords, top_k, conjunctive)
    bout = baseline.search_detailed(bview, keywords, top_k, conjunctive)
    return eout, bout


def assert_equivalent(eout, bout, keywords):
    # Identical view sizes and idf statistics (scoring inputs).
    assert eout.view_size == bout.view_size
    for keyword in eout.idf:
        assert eout.idf[keyword] == pytest.approx(bout.idf[keyword])
    assert eout.matching_count == bout.matching_count
    # Identical ranks and scores.
    assert len(eout.results) == len(bout.results)
    for eres, bres in zip(eout.results, bout.results):
        assert eres.rank == bres.rank
        assert eres.score == pytest.approx(bres.score)
        # Identical term frequencies (Theorem 4.1 part c).
        for keyword in keywords:
            assert eres.tf(keyword) == bres.tf(keyword)
        # Identical byte lengths (part b).
        assert (
            eres.scored.statistics.byte_length
            == bres.scored.statistics.byte_length
        )
        # Identical materialized content (part a).
        assert eres.to_xml() == bres.to_xml()


class TestRunningExample:
    def test_conjunctive(self, bookrev_db):
        eout, bout = compare(bookrev_db, BOOKREV_VIEW, ["xml", "search"])
        assert_equivalent(eout, bout, ["xml", "search"])

    def test_disjunctive(self, bookrev_db):
        eout, bout = compare(
            bookrev_db, BOOKREV_VIEW, ["search", "intelligence"],
            conjunctive=False,
        )
        assert_equivalent(eout, bout, ["search", "intelligence"])

    def test_single_keyword(self, bookrev_db):
        eout, bout = compare(bookrev_db, BOOKREV_VIEW, ["xml"])
        assert_equivalent(eout, bout, ["xml"])

    def test_no_hits(self, bookrev_db):
        eout, bout = compare(bookrev_db, BOOKREV_VIEW, ["zeppelin"])
        assert eout.results == [] and bout.results == []
        assert eout.view_size == bout.view_size


class TestGeneratedBookrev:
    @pytest.mark.parametrize("keywords", [
        ["xml"],
        ["search", "xml"],
        ["indexing", "ranking"],
        ["dated"],
    ])
    def test_keyword_sets(self, large_bookrev_db, keywords):
        eout, bout = compare(large_bookrev_db, BOOKREV_VIEW, keywords)
        assert_equivalent(eout, bout, keywords)

    def test_large_k(self, large_bookrev_db):
        eout, bout = compare(
            large_bookrev_db, BOOKREV_VIEW, ["search"], top_k=1000
        )
        assert_equivalent(eout, bout, ["search"])


class TestINEXViews:
    """Every view shape the evaluation sweeps over (joins 0-3, nesting 1-4)."""

    KEYWORDS = ["thomas", "control"]

    @pytest.mark.parametrize("num_joins", [0, 1, 2, 3])
    def test_join_views(self, inex_db, num_joins):
        view_text = authors_articles_view(num_joins=num_joins)
        eout, bout = compare(inex_db, view_text, self.KEYWORDS)
        assert_equivalent(eout, bout, self.KEYWORDS)

    @pytest.mark.parametrize("nesting", [1, 2, 3, 4])
    def test_nesting_views(self, inex_db, nesting):
        view_text = nested_view(nesting_level=nesting)
        eout, bout = compare(inex_db, view_text, self.KEYWORDS)
        assert_equivalent(eout, bout, self.KEYWORDS)

    @pytest.mark.parametrize("selectivity", ["low", "medium", "high"])
    def test_selectivity_classes(self, inex_db, selectivity):
        keywords = list(ExperimentParams(
            keyword_selectivity=selectivity
        ).keywords())
        eout, bout = compare(inex_db, selection_view(), keywords)
        assert_equivalent(eout, bout, keywords)

    def test_disjunctive_inex(self, inex_db):
        eout, bout = compare(
            inex_db,
            authors_articles_view(),
            ["ieee", "burnett"],
            conjunctive=False,
        )
        assert_equivalent(eout, bout, ["ieee", "burnett"])


class TestGTPEquivalence:
    """GTP+TermJoin is a slower strategy, not different semantics."""

    def test_gtp_matches_efficient_bookrev(self, bookrev_db):
        from repro.baselines.gtp import GTPEngine

        efficient = KeywordSearchEngine(bookrev_db)
        gtp = GTPEngine(bookrev_db)
        eview = efficient.define_view("v", BOOKREV_VIEW)
        gview = gtp.define_view("v", BOOKREV_VIEW)
        eout = efficient.search_detailed(eview, ["xml", "search"], 10, True)
        gout = gtp.search_detailed(gview, ["xml", "search"], 10, True)
        assert [(r.rank, r.score.hex()) for r in eout.results] == [
            (r.rank, r.score.hex()) for r in gout.results
        ]
        assert [r.to_xml() for r in eout.results] == [
            r.to_xml() for r in gout.results
        ]

    def test_gtp_matches_efficient_inex(self, inex_db):
        from repro.baselines.gtp import GTPEngine

        view_text = authors_articles_view(num_joins=2)
        efficient = KeywordSearchEngine(inex_db)
        gtp = GTPEngine(inex_db)
        eview = efficient.define_view("v", view_text)
        gview = gtp.define_view("v", view_text)
        keywords = ["thomas", "control"]
        eout = efficient.search_detailed(eview, keywords, 10, True)
        gout = gtp.search_detailed(gview, keywords, 10, True)
        assert [(r.rank, r.score.hex()) for r in eout.results] == [
            (r.rank, r.score.hex()) for r in gout.results
        ]


class TestValuePredicate:
    """A pushed-down equality compares numbers, not spellings."""

    VIEW = """
for $b in fn:doc(items.xml)/items/b
where $b/v = 1
return $b
"""

    def test_equality_across_numeric_spellings(self):
        db = XMLDatabase()
        db.load_document(
            "items.xml",
            "<items>"
            + "".join(
                f"<b><v>{v}</v><t>xml {v}</t></b>"
                for v in ("01", "1", "1.0", "2")
            )
            + "</items>",
        )
        eout, bout = compare(db, self.VIEW, ["xml"])
        assert_equivalent(eout, bout, ["xml"])
        assert eout.view_size == 3


class TestDisjunctiveWhere:
    """Views with 'or' where clauses (the enterprise-search scenario)."""

    VIEW = """
for $book in fn:doc(books.xml)/books//book
where $book/year > 2003 or $book/year < 1995
return <pick>{$book/title}</pick>
"""

    def test_or_view_equivalence(self, bookrev_db):
        eout, bout = compare(bookrev_db, self.VIEW, ["xml"])
        assert_equivalent(eout, bout, ["xml"])
        # Both the 2004 and the 1990 book qualify.
        assert eout.view_size == 2

    def test_or_on_same_path(self, bookrev_db):
        view = """
for $book in fn:doc(books.xml)/books//book
where $book/year = 2004 or $book/year = 1990
return <pick>{$book/title}</pick>
"""
        eout, bout = compare(bookrev_db, view, ["xml"])
        assert_equivalent(eout, bout, ["xml"])
        assert eout.view_size == 2
