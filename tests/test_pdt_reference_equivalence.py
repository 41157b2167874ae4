"""The shipped skeleton must be *exactly* the PDT of Definitions 1-3.

``repro.core.reference.reference_pdt`` computes CE / PE and the PDT
straight over the in-memory document tree — no index, no streaming, no
code shared with the pipeline.  These tests sweep every difftest view
shape plus seeded random scenarios and hold ``build_skeleton`` +
``annotate_skeleton`` to it record by record: key set, tag, both flags,
the value where one is wanted and, for a content node, its byte length
and per-keyword subtree tfs.  (The Definitions are silent on other
records' lengths and unwanted values; ``difftest/golden_skeletons.json``
and the automaton ≡ sweep byte equality below pin those cells.)  What a
skeleton derives from its columns — ``bounds``, ``slot_bounds``, the
tree — is checked against the recomputation in ``test_compression.py``.
"""

from __future__ import annotations

import pytest

from difftest.generators import VIEW_SHAPES, generate_case

from repro.baselines.stack_pdt import build_skeleton_stack
from repro.core.engine import KeywordSearchEngine
from repro.core.pdt import annotate_skeleton, build_skeleton
from repro.core.prepare import prepare_inv_lists
from repro.core.reference import reference_pdt
from repro.dewey import unpack
from tests.test_compression import assert_derived_state_matches


def _assert_skeleton_is_reference_pdt(skeleton, result, reference):
    assert sorted(map(unpack, skeleton.keys)) == sorted(reference)
    nodes = {
        node.anno.dewey.components: node
        for node in result.root.iter()
        if node.anno is not None
    }
    for position, key in enumerate(skeleton.keys):
        dewey = unpack(key)
        expected = reference[dewey]
        flag = skeleton.flags[position]
        assert (
            skeleton.tags[skeleton.tag_ids[position]],
            bool(flag & 1),
            bool(flag & 2),
        ) == (expected["tag"], expected["wants_value"], expected["wants_content"])
        if expected["wants_value"]:
            assert skeleton.values[position] == expected["value"], dewey
        if expected["wants_content"]:
            assert skeleton.byte_lengths[position] == expected["byte_length"]
            assert result.tf_map(nodes[dewey]) == expected["term_frequencies"]


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
        skeleton = build_skeleton(qpt, indexed.path_index)
        inv_lists = prepare_inv_lists(indexed.inverted_index, keywords)
        _assert_skeleton_is_reference_pdt(
            skeleton,
            annotate_skeleton(skeleton, inv_lists, keywords),
            reference_pdt(qpt, indexed.root, keywords),
        )
        assert_derived_state_matches(skeleton)
        for fast_path in (True, False):
            automaton = build_skeleton_stack(
                qpt, indexed.path_index, inpdt_fast_path=fast_path
            )
            assert automaton.to_bytes() == skeleton.to_bytes(), fast_path


@pytest.mark.parametrize("shape", VIEW_SHAPES)
def test_equivalence_every_view_shape(shape):
    _sweep_case(generate_case(23, shape=shape))


@pytest.mark.parametrize("seed", [5, 17, 101, 404, 808])
def test_equivalence_random_scenarios(seed):
    _sweep_case(generate_case(seed))
