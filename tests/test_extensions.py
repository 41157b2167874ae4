"""Tests for the reproduction's extensions and ablation switches.

Covers: the InPdt fast-path ablation (Section 4.2.2.1 optimization), the
fixed-probe-count claim ("a fixed number of index lookups in proportion to
the size of the query, not the size of the underlying data"), the
PDT-optimized regular-query evaluation (the paper's closing future-work
item), and the rewrite module.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.stack_pdt import build_skeleton_stack
from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import build_skeleton, generate_pdt
from repro.core.prepare import prepare_inv_lists, probe_plan
from repro.core.qpt import QPT, QPTNode, generate_qpts
from repro.core.rewrite import make_base_resolver, make_pdt_resolver
from repro.dewey import unpack
from repro.errors import DocumentNotFoundError
from repro.storage.database import XMLDatabase
from repro.values import Predicate
from repro.workloads.bookrev import BOOKREV_VIEW, generate_bookrev_database
from repro.workloads.inex import INEXConfig, generate_inex_database
from repro.workloads.views import authors_articles_view
from repro.xmlmodel.serializer import serialize
from repro.xquery.evaluator import EvalContext, Evaluator
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query

from tests.test_pdt_properties import random_document, random_qpt


def qpts_for(text):
    return generate_qpts(inline_functions(parse_query(text)))


def _step(
    parent, axis, tag, *, c=False, v=False, equals=None, mandatory=False
):
    """A child of ``parent``, on an optional edge unless ``mandatory``;
    ``equals`` adds an ``=`` predicate (and, as the QPT builder does, the
    value annotation)."""
    child = QPTNode(
        tag,
        [Predicate("=", equals)] if equals is not None else [],
        v_ann=v or equals is not None,
        c_ann=c,
    )
    parent.add_child(child, axis, mandatory)
    return child


def _two_c_nodes(doc):
    """Two top-level ``//c``: one content-, one value-annotated."""
    _step(doc, "//", "c", c=True)
    _step(doc, "//", "c", v=True)


def _two_a_nodes(doc):
    """``/r/a`` and ``/r//a``, both over the whole ``/r/a`` column."""
    r = _step(doc, "/", "r")
    _step(r, "/", "a", c=True)
    _step(r, "//", "a", v=True)


def _predicated_parent(doc):
    _step(_step(_step(doc, "/", "r"), "/", "a", equals="1"), "/", "c", c=True)


def _descendant_two_below(doc):
    _step(_step(_step(doc, "/", "r"), "/", "a", c=True), "//", "c", c=True)


def _child_two_below(doc):
    _step(_step(_step(doc, "/", "r"), "/", "a", c=True), "/", "c", c=True)


def _two_mandatory_edges(doc):
    """``//a`` needing a ``/b`` child and a ``//c`` descendant; its
    elements are derived from both lists, at two depths."""
    a = _step(doc, "//", "a")
    _step(a, "/", "b", c=True, mandatory=True)
    _step(a, "//", "c", c=True, mandatory=True)


# (document, QPT shape, the skeleton's rows: Dewey id, tag, flags, value);
# flags bit 0 wants_value, bit 1 wants_content, bit 2 value present.
_EDGE_INPUTS = {
    # Each c is one row wanting both; its value comes from the v node's
    # list, not the c node's value-less one.
    "two-c-nodes-one-valued": (
        "<r><a><c>x</c></a><b><c>y</c></b></r>",
        _two_c_nodes,
        [((1, 1, 1), "c", 7, "x"), ((1, 2, 1), "c", 7, "y")],
    ),
    "one-element-two-nodes": (
        "<r><a>u</a><a>w</a></r>",
        _two_a_nodes,
        [((1,), "r", 0, None), ((1, 1), "a", 7, "u"), ((1, 2), "a", 7, "w")],
    ),
    # The whole /r/a/c column must not pass: y's parent fails the predicate.
    "predicated-parent": (
        "<r><a>1<c>x</c></a><a>2<c>y</c></a></r>",
        _predicated_parent,
        [
            ((1,), "r", 0, None),
            ((1, 1), "a", 5, "1"),
            ((1, 1, 1), "c", 2, None),
        ],
    ),
    "descendant-two-steps-below": (
        "<r><a><b><c>x</c></b></a></r>",
        _descendant_two_below,
        [
            ((1,), "r", 0, None),
            ((1, 1), "a", 2, None),
            ((1, 1, 1, 1), "c", 2, None),
        ],
    ),
    "child-two-steps-below": (
        "<r><a><b><c>x</c></b></a></r>",
        _child_two_below,
        [((1,), "r", 0, None), ((1, 1), "a", 2, None)],
    ),
    # (1, 2, 2) has no c below it and (1, 3) no b child: both fail CE, and
    # the b and c under them have no PE parent.
    "two-mandatory-edges-two-depths": (
        "<r><a><b>1</b><x><c>2</c></x></a>"
        "<d><a><b>3</b><c>4</c></a><a><b>5</b></a></d>"
        "<a><x><b>6</b></x><c>7</c></a></r>",
        _two_mandatory_edges,
        [
            ((1, 1), "a", 0, None),
            ((1, 1, 1), "b", 2, None),
            ((1, 1, 2, 1), "c", 2, None),
            ((1, 2, 1), "a", 0, None),
            ((1, 2, 1, 1), "b", 2, None),
            ((1, 2, 1, 2), "c", 2, None),
        ],
    ),
}


class TestInPdtFastPathAblation:
    """The optimization changes cost, never output: both arms of the
    paper's automaton emit the bytes the pipeline's array sweep does."""

    @staticmethod
    def _assert_both_arms_match_the_sweep(qpt, path_index):
        swept = build_skeleton(qpt, path_index)
        for fast_path in (True, False):
            arm = build_skeleton_stack(
                qpt, path_index, inpdt_fast_path=fast_path
            )
            label = f"inpdt_fast_path={fast_path}"
            assert arm.to_bytes() == swept.to_bytes(), label
            # Tier admission reads it: the columns' allocations match too.
            assert arm.memory_bytes == swept.memory_bytes, label

    def test_same_output_on_running_example(self, bookrev_db):
        for doc_name, qpt in qpts_for(BOOKREV_VIEW).items():
            self._assert_both_arms_match_the_sweep(
                qpt, bookrev_db.get(doc_name).path_index
            )

    @pytest.mark.parametrize("name", sorted(_EDGE_INPUTS))
    def test_same_output_on_edge_inputs(self, name):
        document, shape, rows = _EDGE_INPUTS[name]
        doc = QPTNode("#doc")
        shape(doc)
        qpt = QPT("d.xml", doc)
        indexed = XMLDatabase().load_document("d.xml", document)
        self._assert_both_arms_match_the_sweep(qpt, indexed.path_index)
        skeleton = build_skeleton(qpt, indexed.path_index)
        columns = (skeleton.tag_ids, skeleton.flags, skeleton.values)
        assert [
            (unpack(key), skeleton.tags[tag_id], flag, value)
            for key, tag_id, flag, value in zip(skeleton.keys, *columns)
        ] == rows

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000_000))
    def test_same_output_on_random_inputs(self, seed):
        rng = random.Random(seed)
        db = XMLDatabase()
        indexed = db.load_document("d.xml", random_document(rng))
        self._assert_both_arms_match_the_sweep(
            random_qpt(rng), indexed.path_index
        )


class TestFixedProbeCount:
    """Index probes depend on the query, not on the data size."""

    def _probe_counts(self, scale: int) -> tuple[int, int]:
        db = generate_inex_database(
            INEXConfig(scale=scale, seed=21), include_side_documents=False
        )
        qpts = qpts_for(authors_articles_view(num_joins=1))
        path_probes = inverted_probes = 0
        for doc_name, qpt in qpts.items():
            indexed = db.get(doc_name)
            db.reset_access_counters()
            generate_pdt(
                qpt, indexed.path_index, indexed.inverted_index,
                ("thomas", "control"),
            )
            path_probes += indexed.path_index.probe_count
            inverted_probes += indexed.inverted_index.probe_count
        return path_probes, inverted_probes

    def test_probe_count_independent_of_data_size(self):
        assert self._probe_counts(1) == self._probe_counts(3)

    def test_probe_plan_lists_each_needed_node_once(self):
        qpt = qpts_for(BOOKREV_VIEW)["books.xml"]
        plan = probe_plan(qpt)
        tags = [tag for tag, _, _ in plan]
        assert sorted(tags) == ["isbn", "title", "year"]
        with_values = {tag: v for tag, _, v in plan}
        assert with_values["isbn"] is True  # v node
        assert with_values["year"] is True  # predicate node
        assert with_values["title"] is False  # c-only node

    def test_inverted_probes_one_per_keyword(self, bookrev_db):
        indexed = bookrev_db.get("books.xml")
        bookrev_db.reset_access_counters()
        prepare_inv_lists(indexed.inverted_index, ("xml", "search", "theory"))
        assert indexed.inverted_index.probe_count == 3


class TestRegularQueryViaPDT:
    """The future-work extension: evaluate non-keyword queries via PDTs."""

    def test_matches_direct_evaluation(self, bookrev_db):
        engine = KeywordSearchEngine(bookrev_db)
        view = engine.define_view("v", BOOKREV_VIEW)
        via_pdt = engine.evaluate_view(view)

        evaluator = Evaluator(
            EvalContext(resolver=make_base_resolver(bookrev_db))
        )
        direct = evaluator.evaluate(view.expr)
        assert [serialize(node) for node in via_pdt] == [
            serialize(node) for node in direct
        ]

    def test_unmaterialized_results_are_pruned(self, bookrev_db):
        engine = KeywordSearchEngine(bookrev_db)
        view = engine.define_view("v", BOOKREV_VIEW)
        bookrev_db.reset_access_counters()
        pruned = engine.evaluate_view(view, materialize=False)
        assert pruned
        # No document-store access happened for pruned evaluation.
        for name in bookrev_db.document_names():
            assert bookrev_db.get(name).store.access_count == 0

    def test_matches_on_inex_workload(self):
        db = generate_bookrev_database(book_count=30, seed=17)
        engine = KeywordSearchEngine(db)
        view = engine.define_view("v", BOOKREV_VIEW)
        via_pdt = engine.evaluate_view(view)
        evaluator = Evaluator(EvalContext(resolver=make_base_resolver(db)))
        direct = evaluator.evaluate(view.expr)
        assert [serialize(n) for n in via_pdt] == [serialize(n) for n in direct]


class TestRewrite:
    def test_pdt_resolver_serves_pdt_roots(self, bookrev_db):
        qpt = qpts_for(BOOKREV_VIEW)["books.xml"]
        indexed = bookrev_db.get("books.xml")
        pdt = generate_pdt(qpt, indexed.path_index, indexed.inverted_index, ())
        resolver = make_pdt_resolver({"books.xml": pdt})
        assert resolver("books.xml") is pdt.root
        with pytest.raises(DocumentNotFoundError):
            resolver("missing.xml")

    def test_base_resolver_serves_document_roots(self, bookrev_db):
        resolver = make_base_resolver(bookrev_db)
        assert resolver("books.xml") is bookrev_db.get("books.xml").root
        with pytest.raises(DocumentNotFoundError):
            resolver("missing.xml")
