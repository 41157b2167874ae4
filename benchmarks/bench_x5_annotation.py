"""X5 (extension): merge-join annotation vs per-node binary searches.

Not a paper figure — this isolates the per-query half of PDT generation
(the skeleton-warm hot path) and compares the two ways of computing each
content node's subtree tf from a posting list:

* **per-node bisect** (the pre-packed-key implementation): for every
  content node and keyword, ``PostingList.subtree_tf`` runs two binary
  searches over the list — O(skeleton · keywords · log postings);
* **merge-join sweep** (current): one ``cumulative_below`` pass per
  keyword over the skeleton's precomputed, sorted subtree bounds —
  O(skeleton + postings) per keyword, all flat-array reads.

``test_merge_join_beats_per_node_bisect`` is the self-enforcing
acceptance check: it times both with ``time.perf_counter`` medians and
asserts the sweep wins at scale 1.  The pytest-benchmark variants give
the usual statistics table.
"""

from __future__ import annotations

import time

from conftest import make_engine_and_view
from repro.core.pdt import annotate_skeleton, build_skeleton
from repro.core.prepare import prepare_inv_lists
from repro.dewey import DeweyID
from repro.workloads.params import ExperimentParams

PARAMS = ExperimentParams(data_scale=1)
KEYWORDS = ("thomas", "control", "search")


def _skeletons_and_lists():
    engine, view = make_engine_and_view(PARAMS)
    skeletons = {}
    inv_lists = {}
    for doc_name, qpt in view.qpts.items():
        indexed = engine.database.get(doc_name)
        skeletons[doc_name] = build_skeleton(qpt, indexed.path_index)
        inv_lists[doc_name] = prepare_inv_lists(
            indexed.inverted_index, KEYWORDS
        )
    return skeletons, inv_lists


def _per_node_bisect(skeleton, lists):
    """The PR 2 annotation inner loop: subtree_tf per (node, keyword)."""
    arrays = {}
    for keyword in KEYWORDS:
        posting_list = lists[keyword]
        arrays[keyword] = [
            posting_list.subtree_tf(DeweyID.from_packed(key))
            for key, flag in zip(skeleton.keys, skeleton.flags)
            if flag & 2  # a content node
        ]
    return arrays


def _merge_join(skeleton, lists):
    """The current annotation inner loop: one sweep per keyword."""
    arrays = {}
    for keyword in KEYWORDS:
        counts = lists[keyword].cumulative_below(skeleton.bounds)
        arrays[keyword] = [
            counts[high] - counts[low] for low, high in skeleton.slot_bounds
        ]
    return arrays


def test_annotation_per_node_bisect(benchmark):
    skeletons, inv_lists = _skeletons_and_lists()
    benchmark(
        lambda: {
            doc: _per_node_bisect(skeleton, inv_lists[doc])
            for doc, skeleton in skeletons.items()
        }
    )


def test_annotation_merge_join(benchmark):
    skeletons, inv_lists = _skeletons_and_lists()
    benchmark(
        lambda: {
            doc: _merge_join(skeleton, inv_lists[doc])
            for doc, skeleton in skeletons.items()
        }
    )


def test_annotate_skeleton_end_to_end(benchmark):
    # The full per-query half as the engine runs it (sweep + result
    # assembly over the shared tree).
    skeletons, inv_lists = _skeletons_and_lists()
    benchmark(
        lambda: {
            doc: annotate_skeleton(skeleton, inv_lists[doc], KEYWORDS)
            for doc, skeleton in skeletons.items()
        }
    )


def _median_seconds(fn, rounds=30):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def test_merge_join_beats_per_node_bisect():
    """Acceptance: the sweep outruns the bisect baseline at scale 1 —
    and computes identical tfs."""
    skeletons, inv_lists = _skeletons_and_lists()
    for doc, skeleton in skeletons.items():
        assert _merge_join(skeleton, inv_lists[doc]) == _per_node_bisect(
            skeleton, inv_lists[doc]
        )

    def bisect_pass():
        for doc, skeleton in skeletons.items():
            _per_node_bisect(skeleton, inv_lists[doc])

    def sweep_pass():
        for doc, skeleton in skeletons.items():
            _merge_join(skeleton, inv_lists[doc])

    bisect_pass(), sweep_pass()  # warm up
    bisect_median = _median_seconds(bisect_pass)
    sweep_median = _median_seconds(sweep_pass)
    assert sweep_median < bisect_median, (
        f"merge-join ({sweep_median * 1e6:.1f}us) did not beat per-node "
        f"bisect ({bisect_median * 1e6:.1f}us)"
    )
