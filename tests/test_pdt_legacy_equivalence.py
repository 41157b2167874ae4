"""The shipped skeleton must be *identical* to the frozen reference.

``repro.core.pdt_legacy`` snapshots the pre-overhaul per-pattern build
(probes, tuple-stream heap merge, original finalization into an eager
record graph) — the one implementation of records, bounds and tree
that shares no code with the columnar :class:`PDTSkeleton`.  These
tests sweep every difftest view shape plus seeded random scenarios and
assert the shipped batched/array-swept ``build_skeleton`` emits exactly
the same skeletons — keys, per-record columns, tf bounds, shared tree
down to every annotation — and identical annotation results.  The
benchmark's 3x speedup claim, and the columns standing in for the
record graph, mean nothing unless this holds.
"""

from __future__ import annotations

import pytest

from difftest.generators import VIEW_SHAPES, generate_case

from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import annotate_skeleton, build_skeleton
from repro.core.pdt_legacy import legacy_build_skeleton
from repro.core.prepare import prepare_inv_lists


def _tree_form(tree):
    return [
        (node.tag, node.text, len(node.children))
        + (
            ()
            if node.anno is None
            else (
                node.anno.dewey.components,
                node.anno.dewey.packed,
                node.anno.byte_length,
                node.anno.pruned,
                node.anno.doc,
                node.anno.slot,
            )
        )
        for node in tree.iter()
    ]


def assert_matches_legacy(skeleton, legacy):
    """The columnar ``skeleton`` vs a ``LegacySkeleton`` record graph."""
    assert skeleton.doc_name == legacy.doc_name
    assert skeleton.entry_count == legacy.entry_count
    assert skeleton.node_count == legacy.node_count
    assert skeleton.content_count == legacy.content_count
    assert skeleton.keys == legacy.ordered
    assert skeleton.bounds == legacy.bounds
    assert skeleton.slot_bounds == legacy.slot_bounds
    for position, key in enumerate(skeleton.keys):
        record = legacy.records[key]
        flag = skeleton.flags[position]
        assert (
            skeleton.tags[skeleton.tag_ids[position]],
            skeleton.values[position],
            skeleton.byte_lengths[position],
            flag,
        ) == (
            record.tag,
            record.value,
            record.byte_length,
            record.wants_value
            | record.wants_content << 1
            | (record.value is not None) << 2,
        )
    assert _tree_form(skeleton.tree) == _tree_form(legacy.tree)


def _assert_skeletons_identical(batched, legacy, keywords, inv_lists):
    assert_matches_legacy(batched, legacy)
    assert (
        annotate_skeleton(batched, inv_lists, keywords).tf_arrays
        == annotate_skeleton(legacy, inv_lists, keywords).tf_arrays
    )


def _sweep_case(case):
    engine = KeywordSearchEngine(case.database, enable_cache=False)
    view = engine.define_view("equiv", case.view_text)
    keywords = tuple(
        dict.fromkeys(
            word for keyword_set in case.keyword_sets for word in keyword_set
        )
    )
    for doc_name in view.document_names:
        indexed = case.database.get(doc_name)
        qpt = view.qpts[doc_name]
        batched = build_skeleton(qpt, indexed.path_index)
        legacy = legacy_build_skeleton(qpt, indexed.path_index)
        inv_lists = prepare_inv_lists(indexed.inverted_index, keywords)
        _assert_skeletons_identical(batched, legacy, keywords, inv_lists)
        # The ablation path (stack automaton, fast path off) agrees too.
        ablation = build_skeleton(
            qpt, indexed.path_index, inpdt_fast_path=False
        )
        assert ablation.to_bytes() == batched.to_bytes()


@pytest.mark.parametrize("shape", VIEW_SHAPES)
def test_equivalence_every_view_shape(shape):
    _sweep_case(generate_case(23, shape=shape))


@pytest.mark.parametrize("seed", [5, 17, 101, 404, 808])
def test_equivalence_random_scenarios(seed):
    _sweep_case(generate_case(seed))
