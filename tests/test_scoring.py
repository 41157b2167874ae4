"""Scoring tests: TF-IDF per Section 2.2, semantics, normalization, top-k."""

import sys
from typing import Mapping, Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.outcome import ViewStatistics, rank_statistics
from repro.core import scoring
from repro.baselines.records import PDTRecord, from_records
from repro.core.pdt import PDTResult
from repro.core.skeleton import patch_skeleton_byte_lengths
from repro.core.cache import TfColumn
from repro.core.scoring import (
    QueryColumns,
    ResultStatistics,
    StatisticsPlan,
    apply_scores,
    idf_from_counts,
    score_results,
    select_top_k,
)
from repro.dewey import pack
from repro.xmlmodel.node import NodeAnnotations, XMLNode
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import escape_text, serialize
from repro.xmlmodel.tokenizer import token_frequencies


def result_with_text(text: str) -> XMLNode:
    return parse_xml(f"<res>{text}</res>")


def _pruned(tag, text=None, children=(), **annotations) -> XMLNode:
    node = XMLNode(tag, text, list(children))
    node.anno = NodeAnnotations(pruned=True, **annotations)
    return node


def _pdt(tf_arrays, byte_lengths) -> PDTResult:
    """A PDT over one sibling record per byte length, in order: record
    position ``i`` carries ``byte_lengths[i]``."""
    keys = [pack((1, position + 1)) for position in range(len(byte_lengths))]
    records = {
        key: PDTRecord(key, "r", None, length)
        for key, length in zip(keys, byte_lengths)
    }
    return PDTResult(from_records("any", records, 0), (), tf_arrays)


#: The document the fixtures' content leaves belong to.
LEAF_DOC = "leaf.xml"


def pruned_node(tag: str, tfs: dict, length: int):
    """A content leaf at slot 0 and record position 0 of ``LEAF_DOC``,
    and the tf source that resolves its ``tfs`` and byte ``length``."""
    node = _pruned(tag, doc=LEAF_DOC, slot=0, position=0)
    pdt = _pdt({kw: [tf] for kw, tf in tfs.items()}, [length])
    return node, {LEAF_DOC: pdt}


def statistics_of(node: XMLNode, keywords, tf_source=None) -> ResultStatistics:
    [scored], _containing = StatisticsPlan([node]).collect(keywords, tf_source)
    return scored.statistics


class TestAggregation:
    def test_tf_from_text(self):
        stats = statistics_of(result_with_text("xml and xml search"), ["xml"])
        assert stats.term_frequencies == {"xml": 2}

    def test_tf_descends_into_children(self):
        result = parse_xml("<r><a>xml</a><b><c>xml search</c></b></r>")
        stats = statistics_of(result, ["xml", "search"])
        assert stats.term_frequencies == {"xml": 2, "search": 1}

    def test_byte_length_matches_serialization(self):
        result = parse_xml("<r><a>hi &amp; bye</a><b/></r>")
        stats = statistics_of(result, [])
        assert stats.byte_length == len(serialize(result))

    def test_pruned_annotations_used_and_not_descended(self):
        wrapper = XMLNode("res")
        pruned, tf_source = pruned_node("body", {"xml": 5}, 100)
        pruned.make_child("inner", "xml xml xml")  # must NOT double count
        wrapper.children.append(pruned)
        stats = statistics_of(wrapper, ["xml"], tf_source)
        assert stats.term_frequencies == {"xml": 5}
        assert stats.byte_length == len("<res></res>") + 100

    def test_mixed_constructed_and_pruned(self):
        wrapper = XMLNode("res", "xml intro")
        pruned, tf_source = pruned_node("c", {"xml": 2}, 7)
        wrapper.children.append(pruned)
        stats = statistics_of(wrapper, ["xml"], tf_source)
        assert stats.term_frequencies == {"xml": 3}


class TestScoring:
    def _results(self):
        return [
            result_with_text("xml xml search"),  # tf: xml 2, search 1
            result_with_text("xml alone here"),  # tf: xml 1
            result_with_text("nothing relevant"),
        ]

    def test_idf_over_whole_view(self):
        outcome = score_results(self._results(), ["xml", "search"], normalize=False)
        # |V| = 3; xml in 2, search in 1.
        assert outcome.view_size == 3
        assert outcome.idf["xml"] == pytest.approx(1.5)
        assert outcome.idf["search"] == pytest.approx(3.0)

    def test_score_formula(self):
        outcome = score_results(self._results(), ["xml", "search"], normalize=False)
        first = outcome.results[0]
        assert first.score == pytest.approx(2 * 1.5 + 1 * 3.0)

    def test_missing_keyword_idf_zero(self):
        outcome = score_results(self._results(), ["absent"], normalize=False)
        assert outcome.idf["absent"] == 0.0
        assert outcome.results == []

    def test_conjunctive_filter(self):
        outcome = score_results(self._results(), ["xml", "search"])
        assert [r.index for r in outcome.results] == [0]

    def test_disjunctive_filter(self):
        outcome = score_results(
            self._results(), ["xml", "search"], conjunctive=False
        )
        assert [r.index for r in outcome.results] == [0, 1]

    def test_normalization_divides_by_length(self):
        idf = {"xml": 1.5}
        plain = StatisticsPlan(self._results()).collect(["xml"])[0]
        normalized = StatisticsPlan(self._results()).collect(["xml"])[0]
        apply_scores(plain, idf, ["xml"], normalize=False)
        apply_scores(normalized, idf, ["xml"], normalize=True)
        assert [raw.score for raw in plain] == [3.0, 1.5, 0.0]
        for raw, norm in zip(plain, normalized):
            assert norm.score == pytest.approx(
                raw.score / raw.statistics.byte_length
            )

    def test_empty_view(self):
        outcome = score_results([], ["xml"])
        assert outcome.view_size == 0
        assert outcome.results == []
        assert outcome.idf["xml"] == 0.0


class TestTopK:
    def _outcome(self):
        results = [
            result_with_text("xml"),
            result_with_text("xml xml xml"),
            result_with_text("xml xml"),
        ]
        return score_results(results, ["xml"], normalize=False)

    def test_ranked_by_score_desc(self):
        ranked = select_top_k(self._outcome(), 3)
        assert [r.index for r in ranked] == [1, 2, 0]

    def test_k_limits(self):
        assert len(select_top_k(self._outcome(), 2)) == 2
        assert len(select_top_k(self._outcome(), 0)) == 0

    def test_k_larger_than_results(self):
        assert len(select_top_k(self._outcome(), 50)) == 3

    def test_k_none_returns_all_ranked(self):
        assert len(select_top_k(self._outcome(), None)) == 3

    def test_ties_broken_by_document_order(self):
        results = [result_with_text("xml"), result_with_text("xml")]
        outcome = score_results(results, ["xml"], normalize=False)
        ranked = select_top_k(outcome, 2)
        assert [r.index for r in ranked] == [0, 1]


# -- plan + sum == the recursive walk it replaced ---------------------------------


def _aggregate(
    node: XMLNode,
    tfs: dict[str, int],
    tf_source: Optional[Mapping[str, object]],
) -> int:
    """The statistics walk ``core/scoring.py`` ran per result per query
    until the plan replaced it — moved here as the oracle, less the
    per-node tf dicts no pruned leaf carries any more."""
    anno = node.anno
    if anno is not None and anno.pruned:
        # A pruned node's tfs and byte length live *outside* the tree;
        # scoring it without its PDT would silently yield zeros, so fail
        # loudly instead.
        pdt = tf_source.get(anno.doc) if tf_source is not None else None
        if pdt is None:
            raise ValueError(
                "cannot score a shared-skeleton PDT node: no tf_source "
                f"entry for document {anno.doc!r} (its term frequencies and "
                "byte length are read from the document's PDT, not "
                "stored on the tree)"
            )
        for keyword in tfs:
            tfs[keyword] += pdt.tf_at(anno.slot, keyword)
        return pdt.byte_lengths[anno.position]
    value = node.value
    if value is not None:
        frequencies = token_frequencies(value)
        for keyword in tfs:
            tfs[keyword] += frequencies.get(keyword, 0)
    if value is None and not node.children:
        return len(node.tag) + 3  # <tag/>
    length = 2 * len(node.tag) + 5  # <tag></tag>
    if value is not None:
        length += len(escape_text(value))
    for child in node.children:
        length += _aggregate(child, tfs, tf_source)
    return length


def oracle_statistics(nodes, keywords, tf_source):
    """``[(node, tfs, byte_length)]`` in order plus the containing counts,
    by the recursive walk."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        rows = []
        for node in nodes:
            tfs = {keyword: 0 for keyword in keywords}
            rows.append((node, tfs, _aggregate(node, tfs, tf_source)))
    finally:
        sys.setrecursionlimit(limit)
    containing = {
        keyword: sum(1 for _, tfs, _ in rows if tfs[keyword] > 0)
        for keyword in keywords
    }
    return rows, containing


DOCUMENTS = ("a.xml", "b.xml", "c.xml")
#: A document every drawn tf source other than ``None`` resolves.
FURTHER = "d.xml"
VOCABULARY = ("xml", "search", "query", "a1")
SLOTS = 5
#: Records per drawn PDT: a leaf reads its byte length at one of them.
POSITIONS = 4
TEXTS = st.sampled_from(
    [None, "", "   ", "xml", " xml search xml ", "query & <a1> a1", "Plain words."]
)
TAGS = st.sampled_from(["r", "hit", "title", "x" * 17])
#: Zero and negative too: a result that is one pruned leaf has the
#: leaf's length, and edits have driven recorded lengths negative.
BYTE_LENGTHS = st.lists(
    st.just(0) | st.integers(-50, -1) | st.integers(1, 500),
    min_size=POSITIONS,
    max_size=POSITIONS,
)


#: Pruned leaves (some with children, which must not be walked), empty
#: and text-only elements.
LEAVES = st.one_of(
    st.builds(
        _pruned,
        TAGS,
        TEXTS,
        st.just([]) | st.builds(lambda: [XMLNode("inner", "xml xml")]),
        doc=st.sampled_from((*DOCUMENTS, FURTHER)),
        slot=st.integers(0, SLOTS - 1),
        position=st.integers(0, POSITIONS - 1),
    ),
    st.builds(XMLNode, TAGS, TEXTS),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.builds(
        XMLNode, TAGS, TEXTS, st.lists(children, max_size=4)
    ),
    max_leaves=12,
)


def _nested(tree: XMLNode, depth: int) -> XMLNode:
    for level in range(depth):
        tree = XMLNode("n", "xml" if level % 500 == 0 else None, [tree])
    return tree


FORESTS = st.lists(
    st.builds(_nested, TREES, st.sampled_from([0, 0, 0, 3, 2000])), max_size=5
)
TF_ARRAYS = st.fixed_dictionaries(
    {},
    optional={
        keyword: st.sampled_from([[1, 2, 3, 0, 1], [2, 0, 0, 1, 3], None])
        | st.lists(st.integers(0, 3), min_size=SLOTS, max_size=SLOTS)
        for keyword in VOCABULARY
    },
)
PDTS = st.builds(_pdt, TF_ARRAYS, BYTE_LENGTHS)
ALL_SOURCES = st.fixed_dictionaries({doc: PDTS for doc in (*DOCUMENTS, FURTHER)})
TF_SOURCES = st.one_of(
    st.none(),
    ALL_SOURCES,
    st.fixed_dictionaries(  # some missing
        {FURTHER: PDTS}, optional={doc: PDTS for doc in DOCUMENTS}
    ),
)
KEYWORDS = st.lists(st.sampled_from(VOCABULARY), max_size=4).map(tuple)


def _engine_columns(pdts, keywords, positions, generations) -> QueryColumns:
    """``pdts`` as the engine hands them to a sum: in ``positions``'
    order (one map for every call, a view's), one tier cell per
    document and distinct keyword, and ``(doc, generation)``
    coordinates."""
    distinct = tuple(dict.fromkeys(keywords))
    return QueryColumns(
        [pdts[doc].skeleton for doc in positions],
        [
            TfColumn.of(pdts[doc].tf_arrays.get(keyword))
            for doc in positions
            for keyword in distinct
        ],
        distinct,
        positions,
        [(doc, generations[doc]) for doc in positions],
    )


def _edit_sources(data, tf_source, generations):
    """Replace some drawn PDTs, the tf arrays of some (their byte
    lengths kept) and patch some byte-length columns, each bumping its
    document's generation as the database does per edit."""
    for doc in data.draw(st.sets(st.sampled_from(sorted(tf_source)))):
        tf_source = {**tf_source, doc: data.draw(PDTS, label=doc)}
        generations[doc] += 1
    for doc in data.draw(st.sets(st.sampled_from(sorted(tf_source)))):
        tf_arrays = data.draw(TF_ARRAYS, label=doc)
        tf_source = {**tf_source, doc: PDTResult(tf_source[doc].skeleton, (), tf_arrays)}
        generations[doc] += 1
    for doc in data.draw(st.sets(st.sampled_from(sorted(tf_source)))):
        skeleton = tf_source[doc].skeleton
        delta = data.draw(st.integers(-9, 9).filter(bool))
        patch_skeleton_byte_lengths(skeleton, skeleton.keys, delta)
        generations[doc] += 1
    return tf_source


class TestPlanEqualsWalk:
    @settings(max_examples=200, deadline=None)
    @given(FORESTS, KEYWORDS, TF_SOURCES)
    def test_statistics_containing_and_order(self, forest, keywords, tf_source):
        try:
            rows, containing = oracle_statistics(forest, keywords, tf_source)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                StatisticsPlan(forest).collect(keywords, tf_source)
            assert str(raised.value) == str(error)
            return
        scored, counted = StatisticsPlan(forest).collect(keywords, tf_source)
        assert [
            (r.index, r.node, r.statistics.term_frequencies, r.statistics.byte_length)
            for r in scored
        ] == [(index, *row) for index, row in enumerate(rows)]
        assert all(r.score == 0.0 for r in scored)
        assert counted == containing

    @settings(max_examples=200, deadline=None)
    @given(
        st.data(),
        FORESTS,
        ALL_SOURCES,
        st.sampled_from([1, 2, scoring.MEMO_ENTRIES]),
        st.sampled_from(["of", "engine"]),
    )
    def test_memoized_sum_equals_a_fresh_plans(
        self, data, forest, tf_source, bound, form
    ):
        """One plan summed over a sequence of keyword sets, some PDTs
        replaced and some byte-length columns patched between the calls,
        sums exactly like a fresh plan every time, and its memo never
        outgrows the bound — fed ``QueryColumns.of`` the PDTs, or the
        lists the engine hands it: its own document order, one positions
        map for every call (a view's) and one tier cell per document and
        keyword."""
        positions = {doc: at for at, doc in enumerate(sorted(tf_source, reverse=True))}
        generations = dict.fromkeys(positions, 0)

        def columns_of(pdts, keywords):
            if form == "of":
                return QueryColumns.of(pdts, keywords)
            return _engine_columns(pdts, keywords, positions, generations)

        plan = StatisticsPlan(forest)
        with mock.patch.object(scoring, "MEMO_ENTRIES", bound):
            for _ in range(data.draw(st.integers(1, 6), label="calls")):
                keywords = data.draw(KEYWORDS, label="keywords")
                tf_source = _edit_sources(data, tf_source, generations)
                fresh = StatisticsPlan(forest).sum(QueryColumns.of(tf_source, keywords))
                summed = plan.sum(columns_of(tf_source, keywords))
                assert (summed.tfs, summed.lengths, summed.containing) == (
                    fresh.tfs,
                    fresh.lengths,
                    fresh.containing,
                )
                assert len(plan._memo) <= bound

    def test_lengths_are_read_from_skeletons_only_when_coordinates_move(self):
        leaf = _pruned("c", doc="d.xml", slot=0, position=1)
        plan = StatisticsPlan([XMLNode("hit", None, [leaf])])
        pdt = _pdt({"xml": [3]}, [4, 9])
        positions = {"d.xml": 0}

        def columns(skeleton, coordinate):
            cells = [TfColumn.of(pdt.tf_arrays["xml"])]
            return QueryColumns([skeleton], cells, ("xml",), positions, [coordinate])

        first = plan.sum(columns(pdt.skeleton, ("d.xml", 1)))
        assert first.lengths == [len("<hit></hit>") + 9]
        # Same coordinate: no skeleton needed, and the same column back.
        assert plan.sum(columns(None, ("d.xml", 1))).lengths is first.lengths
        # A moved coordinate needs the skeleton, and keeps nothing without it.
        with pytest.raises(scoring.SkeletonNeeded, match="d.xml"):
            plan.sum(columns(None, ("d.xml", 2)))
        assert plan.sum(columns(None, ("d.xml", 1))).lengths is first.lengths
        patch_skeleton_byte_lengths(pdt.skeleton, pdt.skeleton.keys, 5)
        moved = plan.sum(columns(pdt.skeleton, ("d.xml", 2)))
        assert moved.lengths == [len("<hit></hit>") + 14]
        # Keyword churn past the memo bound leaves the lengths in place.
        with mock.patch.object(scoring, "MEMO_ENTRIES", 1):
            for keyword in ("a", "b", "c"):
                plan.sum(QueryColumns(
                    [None], [TfColumn.of(None)], (keyword,), positions,
                    [("d.xml", 2)],
                ))
        assert plan.sum(columns(None, ("d.xml", 2))).lengths is moved.lengths

    def test_missing_document_raises_without_keywords_too(self):
        leaf = _pruned("c", doc="gone.xml", slot=0, position=1)
        plan = StatisticsPlan([XMLNode("hit", None, [leaf])])
        with pytest.raises(ValueError, match=r"no tf_source entry for document 'gone.xml'"):
            plan.collect(("xml",), {})
        with pytest.raises(ValueError, match="gone.xml"):
            plan.collect(("xml",))
        with pytest.raises(ValueError, match="gone.xml"):
            plan.collect(())
        [only], containing = plan.collect((), {"gone.xml": _pdt({}, [4, 9])})
        assert only.statistics.byte_length == len("<hit></hit>") + 9
        assert only.statistics.term_frequencies == {} and containing == {}

    def test_plan_reads_live_byte_lengths_and_never_rewalks(self, monkeypatch):
        leaf, tf_source = pruned_node("c", {"xml": 2}, 10)
        plan = StatisticsPlan([XMLNode("hit", "xml", [leaf])])
        monkeypatch.setattr(
            XMLNode, "value", property(lambda node: pytest.fail("walked a node"))
        )
        [before], _ = plan.collect(("xml",), tf_source)  # warms the memo
        # What a patchable edit does: publish a patched copy of the column.
        skeleton = tf_source[LEAF_DOC].skeleton
        key = skeleton.keys[leaf.anno.position]
        assert patch_skeleton_byte_lengths(skeleton, (key,), 7) == 1
        [after], _ = plan.collect(("xml",), tf_source)
        assert after.statistics.byte_length == before.statistics.byte_length + 7
        assert after.statistics.term_frequencies == {"xml": 3}


# -- column ranking == objects through the reference pipeline ---------------------

#: Some forests twice over: every score tied with another row's.
RANK_FORESTS = st.tuples(st.lists(TREES, max_size=6), st.booleans()).map(
    lambda drawn: drawn[0] * 2 if drawn[1] else drawn[0]
)


def _ranked(results):
    return [
        (
            r.index,
            r.score.hex() if isinstance(r.score, float) else r.score,
            type(r.score),
            r.statistics.term_frequencies,
            r.statistics.byte_length,
        )
        for r in results
    ]


class TestColumnRankingEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.data(),
        RANK_FORESTS,
        KEYWORDS,
        ALL_SOURCES,
        st.booleans(),
        st.sampled_from([None, -1, 0, 1, 3, "n+1"]),
    )
    def test_rank_statistics_equals_score_results_then_select_top_k(
        self, data, forest, keywords, tf_source, conjunctive, k
    ):
        """1-3 parts at offsets with gaps between them (one shard's
        fragments of a larger view) rank exactly like the whole forest
        through collect -> apply_scores -> filter_matching ->
        select_top_k, each winner at its part's offset."""
        size = len(forest)
        top_k = size + 1 if k == "n+1" else k
        cuts = data.draw(st.lists(st.integers(0, size), max_size=2))
        bounds = [0, *sorted(cuts), size]
        sizes = [stop - start for start, stop in zip(bounds, bounds[1:])]
        gap = 7  # the results of other shards' fragments before each part
        stats = ViewStatistics(
            sums=StatisticsPlan(forest, sizes).sum(QueryColumns.of(tf_source, keywords)),
            cache_hits={}, evaluated_hit=True,
            offsets=tuple(start + gap * part for part, start in enumerate(bounds[:-1])),
        )
        idf = idf_from_counts(stats.view_size, stats.containing)
        ranked, matching = rank_statistics(stats, idf, keywords, conjunctive, top_k)

        outcome = score_results(forest, keywords, conjunctive, tf_source=tf_source)
        expected = select_top_k(outcome, top_k)
        part_of = [part for part, count in enumerate(sizes) for _ in range(count)]
        assert idf == outcome.idf
        assert _ranked(ranked) == [
            (index + gap * part_of[index], *rest)
            for index, *rest in _ranked(expected)
        ]
        assert all(r.node is e.node for r, e in zip(ranked, expected))
        assert matching == len(outcome.results)

    def test_scored_is_every_row_at_the_offset(self):
        forest = [result_with_text("xml"), result_with_text("none")]
        stats = ViewStatistics(
            sums=StatisticsPlan(forest, [1, 1]).sum(QueryColumns.of({}, ("xml",))),
            cache_hits={}, evaluated_hit=True, offsets=(5, 9),
        )
        assert [(r.index, r.tf("xml"), r.score) for r in stats.scored] == [
            (5, 1, 0.0), (9, 0, 0.0)
        ]
        assert stats.scored is stats.scored  # built once, on first read


#: idf maps beside the view's own: a coordinator's global idf can move
#: under a shard's unchanged columns.
IDFS = st.fixed_dictionaries(
    {keyword: st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.25]) for keyword in VOCABULARY}
)


def _rank(plan, columns, idf, keywords, conjunctive, top_k):
    stats = ViewStatistics(sums=plan.sum(columns), cache_hits={}, evaluated_hit=True)
    if idf is None:
        idf = idf_from_counts(stats.view_size, stats.containing)
    ranked, matching = rank_statistics(stats, idf, keywords, conjunctive, top_k)
    return _ranked(ranked), [r.node for r in ranked], matching


class TestRankingMemo:
    """A plan keeps each keyword set's ranking, reused only while the
    columns and idf it was ranked from are current."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.data(),
        RANK_FORESTS,
        ALL_SOURCES,
        st.sampled_from([1, 2, scoring.MEMO_ENTRIES]),
    )
    def test_memoized_ranking_equals_a_fresh_plans(self, data, forest, tf_source, bound):
        """One plan ranked over a sequence of keyword sets, semantics,
        ``top_k`` and idf maps, some PDTs replaced and some byte-length
        columns patched between the calls, ranks exactly like a fresh
        plan every time, and its ranking memo never outgrows the bound."""
        positions = {doc: at for at, doc in enumerate(sorted(tf_source))}
        generations = dict.fromkeys(positions, 0)
        plan = StatisticsPlan(forest)
        # A few keyword sets, asked again and again.
        asked_sets = data.draw(st.lists(KEYWORDS, min_size=1, max_size=3), label="sets")
        with mock.patch.object(scoring, "MEMO_ENTRIES", bound):
            for _ in range(data.draw(st.integers(1, 8), label="calls")):
                keywords = data.draw(st.sampled_from(asked_sets), label="keywords")
                conjunctive = data.draw(st.booleans(), label="conjunctive")
                top_k = data.draw(st.sampled_from([None, 1, 10]), label="top_k")
                idf = data.draw(st.none() | IDFS, label="idf")
                if data.draw(st.booleans(), label="edit"):
                    tf_source = _edit_sources(data, tf_source, generations)
                columns = _engine_columns(tf_source, keywords, positions, generations)
                asked = (idf, keywords, conjunctive, top_k)
                assert _rank(plan, columns, *asked) == _rank(
                    StatisticsPlan(forest), QueryColumns.of(tf_source, keywords), *asked
                )
                assert len(plan._ranks) <= bound

    FOREST = [result_with_text(text) for text in (
        "xml search", "xml xml", "search", "xml search search", "none",
    )]

    def _plan(self):
        return StatisticsPlan(self.FOREST)

    @staticmethod
    def _ask(plan, keywords, conjunctive=True, top_k=10, idf=None):
        columns = QueryColumns.of({}, keywords)
        return _rank(plan, columns, idf, keywords, conjunctive, top_k)

    def test_a_repeated_keyword_set_scores_nothing(self, monkeypatch):
        plan = self._plan()
        first = self._ask(plan, ("xml", "search"), False)
        monkeypatch.setattr(
            scoring.ColumnSums, "scores", lambda *args: pytest.fail("re-scored")
        )
        assert self._ask(plan, ("xml", "search"), False) == first

    def test_duplicate_keywords_are_their_own_ranking(self):
        plan = self._plan()
        for keywords in (("xml",), ("xml", "xml"), ("xml",), ("xml", "xml")):
            assert self._ask(plan, keywords) == self._ask(self._plan(), keywords)
        once = self._ask(plan, ("xml",), idf={"xml": 1.5})
        twice = self._ask(plan, ("xml", "xml"), idf={"xml": 1.5})
        assert [r[1] for r in once[0]] != [r[1] for r in twice[0]]

    def test_page_two_ranks_past_page_one(self):
        plan = self._plan()
        first = self._ask(plan, ("search",), top_k=1)
        page_two = self._ask(plan, ("search",), top_k=2)
        assert len(first[0]) == 1 and len(page_two[0]) == 2
        assert page_two[0][:1] == first[0] and page_two[2] == first[2] == 3
        assert page_two == self._ask(self._plan(), ("search",), top_k=2)

    def test_a_moved_idf_re_ranks(self):
        plan, keywords = self._plan(), ("xml", "search")
        xml_first = self._ask(plan, keywords, False, 1, {"xml": 9.0, "search": 1.0})
        search_idf = {"xml": 1.0, "search": 9.0}
        search_first = self._ask(plan, keywords, False, 1, search_idf)
        assert xml_first[1] != search_first[1]
        assert search_first == self._ask(self._plan(), keywords, False, 1, search_idf)

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_no_results_asked_counts_matches_and_keeps_nothing(self, top_k):
        plan = self._plan()
        assert self._ask(plan, ("xml",), top_k=top_k) == ([], [], 3)
        assert plan._ranks == {}
