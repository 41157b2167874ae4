"""GeneratePDT: single-pass, index-only Pruned Document Tree generation.

This module implements the paper's central algorithm (Section 4.2.2 and the
generalized Appendix E version).  Given a QPT and the lists returned by
PrepareLists, it computes the PDT — the projection of the base document
satisfying the mutual ancestor/descendant/predicate constraints — while
reading each Dewey ID exactly once and never touching the base documents.

Formulation.  The paper drives a Candidate Tree through repeated
``MinIDPath`` maintenance — a stack automaton over the k-way merge of the
id lists, kept as written in :mod:`repro.baselines.stack_pdt` (the
Section 4.2.2.1 ablation runs there).  :func:`build_skeleton` computes
the same sets in four phases over the sorted packed-key arrays the
storage layer keeps, with no per-(element, QPT node) state:

1. :func:`_collect_elements` — each QPT node's elements;
2. :func:`_candidate_elements` — CE (Definition 1), bottom-up;
3. :func:`_pdt_elements` — PE (Definition 2), top-down;
4. :func:`_emit_columns` — Definition 3's node set, written straight
   into skeleton columns.

Ids flow through the phases in their *packed* byte form (see
:mod:`repro.dewey`): bytes comparison is document order, a byte prefix is
an ancestor, and a subtree is the contiguous range
``[key, packed_child_bound(key))`` — so the candidate tests, the ancestor
chains and the skeleton's tf range bounds all operate on flat bytes with
no per-element tuple allocation.

The keyword-independent half of the work is a
:class:`~repro.core.skeleton.PDTSkeleton`, cached per ``(view,
document)`` by the engine: the surviving records as flat columns, the
tree assembled from them on demand, and every content node's subtree
bounds as indices into one sorted bounds array.
The per-query half, :func:`annotate_skeleton`, is then one merge-join
sweep per keyword over ``(bounds, posting list)`` producing a flat tf
array: O(skeleton + postings), not O(skeleton · log postings) bisects.

Equivalence with Definitions 1-3 is enforced by property tests against
``repro.core.reference``.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Optional

from repro.core.prepare import prepare_inv_lists, prepare_path_lists
from repro.core.qpt import QPT
from repro.core.skeleton import (
    PDTSkeleton,
    _HAS_VALUE,
    _WANTS_CONTENT,
    _WANTS_VALUE,
)
from repro.storage.inverted_index import InvertedIndex, PostingList
from repro.storage.path_index import PathIndex, PathList
from repro.xmlmodel.node import XMLNode


@dataclass
class PDTResult:
    """A generated PDT: its skeleton plus one query's keyword data.

    Built where a tree is read, not per document: the engine builds one
    only when the evaluator's resolver opens a document (an
    evaluated-tier miss; :meth:`repro.core.scoring.QueryColumns.get`).
    Immutable in practice; nothing downstream writes into a PDT or its
    tree.

    Everything keyword-independent reads through to ``skeleton``:
    ``doc_name``, ``node_count``, ``entry_count``, ``byte_lengths`` (the
    skeleton's current column — a patch publishes a copy — the one place
    a PDT node's byte length lives, read at ``anno.position``) and
    ``root`` — the skeleton's weakly memoized tree, assembled the first
    time something reads it (the evaluator, on an evaluated-tier miss),
    so a query served from the evaluated tier builds none.

    The per-query keyword data is ``tf_arrays``: one flat array per
    distinct keyword, indexed by the content node's ``anno.slot``
    (content nodes in document order).  A keyword with no postings maps
    to ``None`` (an implicit all-zero array), so every queried keyword
    is always present.  Scoring resolves tfs through :meth:`tf_at`.
    """

    skeleton: PDTSkeleton
    keywords: tuple[str, ...]
    tf_arrays: dict[str, Optional[list[int]]]

    @property
    def doc_name(self) -> str:
        return self.skeleton.doc_name

    @property
    def node_count(self) -> int:
        return self.skeleton.node_count

    @property
    def entry_count(self) -> int:
        return self.skeleton.entry_count

    @property
    def byte_lengths(self) -> array:
        return self.skeleton.byte_lengths

    @property
    def root(self) -> XMLNode:
        return self.skeleton.tree

    @property
    def is_empty(self) -> bool:
        return not self.skeleton.keys

    # -- per-query keyword data ---------------------------------------------

    def tf_at(self, slot: int, keyword: str) -> int:
        """Subtree tf of ``keyword`` at the content node with ``slot``."""
        array = self.tf_arrays.get(keyword)
        return array[slot] if array is not None else 0

    def tf_map(self, node: XMLNode) -> dict[str, int]:
        """The per-keyword subtree tfs of one PDT node, read at its
        content slot; a node without a slot yields all zeros."""
        slot = node.anno.slot if node.anno is not None else None
        if slot is None:
            return {keyword: 0 for keyword in self.keywords}
        return {keyword: self.tf_at(slot, keyword) for keyword in self.keywords}


def _collect_elements(
    qpt: QPT,
    path_lists: dict[int, PathList],
    path_index: PathIndex,
) -> tuple[dict, dict, dict]:
    """Phase 1, element collection: per QPT node, ``(element_keys,
    element_depths, whole)``.

    Keys are a sorted list; depths a scalar when every element sits at
    one depth, else a ``{key: depth}`` dict.  A probed node's elements
    are exactly its (predicate-filtered) path list.  An unprobed node's
    are the index's ancestor-prefix arrays at the depths its pattern
    matches on each probed path (plans memoized on the QPT) — a safe
    superset, since CE grounds its mandatory edges in the filtered
    lists.  ``whole`` maps a node whose list is one path's complete
    column to that path.

    Handoff: a probed node's keys *are* its list's ``keys``, and a
    single-source unprobed node's *are* the index's array — shared
    read-only, never copied.
    """
    # A node is probed iff it has its own path list.
    probed = path_lists
    nodes = qpt.nodes
    path_by_id = path_index.path_by_id
    prefix_plans = qpt._prefix_plans
    element_keys: dict[int, list[bytes]] = {node.index: [] for node in nodes}
    element_depths: dict[int, object] = {node.index: 0 for node in nodes}
    # Probed node -> the path whose complete key column its list is.
    whole: dict[int, tuple[str, ...]] = {}
    derived_sources: dict[int, list[tuple[int, list[bytes]]]] = {}
    depth_by_path: dict[int, int] = {}
    for node_index, path_list in path_lists.items():
        keys = path_list.keys
        path_ids = path_list.path_ids
        single = path_list.single_path
        unique_paths = (single,) if single is not None else set(path_ids)
        for path_id in unique_paths:
            if path_id in depth_by_path:
                continue
            path = path_by_id(path_id)
            depth_by_path[path_id] = len(path)
            plan = prefix_plans.get(path)
            if plan is None:
                plan = prefix_plans[path] = [
                    (depth, unprobed)
                    for depth, matches in enumerate(qpt.match_table(path), 1)
                    if (unprobed := [
                        qnode.index
                        for qnode in matches
                        if qnode.index not in probed
                    ])
                ]
            for prefix_depth, unprobed in plan:
                ancestor_keys = path_index.ancestors_on_path(
                    path_id, prefix_depth
                )
                if not ancestor_keys:
                    continue
                for target in unprobed:
                    derived_sources.setdefault(target, []).append(
                        (prefix_depth, ancestor_keys)
                    )
        # Shared with the path list — read-only by convention.
        element_keys[node_index] = keys
        if single is not None:
            # A whole-path handoff: the list is the path's own column.
            whole[node_index] = path_by_id(single)
        if len(unique_paths) == 1:
            only = next(iter(unique_paths))
            element_depths[node_index] = depth_by_path[only]
        else:
            element_depths[node_index] = dict(
                zip(keys, map(depth_by_path.__getitem__, path_ids))
            )
    for target, sources in derived_sources.items():
        if len(sources) == 1:
            depth, ancestor_keys = sources[0]
            # Shared with the index's ancestor array — read-only.
            element_keys[target] = ancestor_keys
            element_depths[target] = depth
        else:
            merged: dict[bytes, int] = {}
            for depth, ancestor_keys in sources:
                merged.update(dict.fromkeys(ancestor_keys, depth))
            element_keys[target] = sorted(merged)
            element_depths[target] = merged
    return element_keys, element_depths, whole


def _candidate_elements(
    qpt: QPT,
    element_keys: dict[int, list[bytes]],
    element_depths: dict[int, object],
) -> dict[int, list[bytes]]:
    """Phase 2, CE (Definition 1), bottom-up: the elements with a child
    candidate below them on every mandatory edge.

    One filter per mandatory edge over the shrinking survivor list.  A
    subtree is contiguous right after its root in packed order, so the
    test is one bisect plus a prefix check of the next key in a pool:
    the child's candidates on ``//``, on ``/`` those one level below
    the element (bucketed by depth as the child keeps them).

    Handoff: a node that keeps every element hands on its element list,
    so ``cand[n] is element_keys[n]`` tells PE it kept the whole list.
    """
    cand: dict[int, list[bytes]] = {}
    cand_by_depth: dict[int, dict[int, list[bytes]]] = {}
    for qnode in reversed(qpt.nodes):
        n = qnode.index
        elements = kept = element_keys[n]
        depths = element_depths[n]
        scalar_depth = isinstance(depths, int)
        for edge in qnode.mandatory_child_edges():
            child = edge.child.index
            if edge.axis == "//":
                pools = repeat(cand[child])
            elif scalar_depth:
                pools = repeat(cand_by_depth[child].get(depths + 1, ()))
            else:
                buckets = cand_by_depth[child]
                pools = [buckets.get(depths[key] + 1, ()) for key in kept]
            # bisect_right: on ``//`` (``//a//a``) the element itself may
            # be a candidate of the child, and it is no descendant.
            kept = [
                key
                for key, pool in zip(kept, pools)
                if (i := bisect_right(pool, key)) < len(pool)
                and pool[i].startswith(key)
            ]
        # A filter that kept every element hands on the list itself.
        cand[n] = elements if len(kept) == len(elements) else kept
        edge = qnode.parent_edge
        if edge is not None and edge.mandatory and edge.axis == "/":
            # The parent's CE pass probes this node's candidates per depth.
            if scalar_depth:
                cand_by_depth[n] = {depths: kept}
            else:
                buckets = {}
                for key in kept:
                    buckets.setdefault(depths[key], []).append(key)
                cand_by_depth[n] = buckets
    return cand


def _pdt_elements(
    qpt: QPT,
    element_keys: dict[int, list[bytes]],
    element_depths: dict[int, object],
    whole: dict[int, tuple[str, ...]],
    cand: dict[int, list[bytes]],
) -> dict[int, list[bytes]]:
    """Phase 3, PE (Definition 2), top-down: the candidates below a PE
    element of the parent on the edge's axis (under the document node:
    at depth 1 on ``/``, anywhere on ``//``).

    One merged prefix-stack sweep per edge over the parent's PE keys and
    the node's candidates; on ``/`` it also checks the depth step.

    Handoff: a sweep that keeps every candidate hands on the candidate
    list.  No sweep at all when the parent kept one path's whole column
    (``parents is element_keys[parent]``) and the candidates are the
    whole column of a path extending it, by one step on ``/`` or any
    number on ``//``: the PE set is then the candidate list itself.
    """
    qpt_root = qpt.root
    # ``in_pdt`` keeps *sorted lists* (cand order is preserved), so each
    # child pass is one merged stack sweep over (parents, candidates):
    # ancestors of the current candidate are exactly the stacked parent
    # keys, maintained with startswith pops — no per-key prefix decoding.
    in_pdt: dict[int, list[bytes]] = {}
    for qnode in qpt.nodes:
        n = qnode.index
        edge = qnode.parent_edge
        assert edge is not None
        if edge.parent is qpt_root:
            if edge.axis == "//":
                kept = cand[n]  # shared read-only; never mutated below
            else:
                depths = element_depths[n]
                if isinstance(depths, int):
                    kept = cand[n] if depths == 1 else []
                else:
                    kept = [key for key in cand[n] if depths[key] == 1]
        else:
            parent_index = edge.parent.index
            parents = in_pdt[parent_index]
            path, parent_path = whole.get(n), whole.get(parent_index)
            if (
                path and parent_path
                and cand[n] is element_keys[n]
                and parents is element_keys[parent_index]
                and path[: len(parent_path)] == parent_path
                and (steps := len(path) - len(parent_path)) > 0
                and (steps == 1 or edge.axis == "//")
            ):
                # Whole column under whole column: a candidate's prefix
                # of the parent path's depth is a parent element.
                in_pdt[n] = cand[n]
                continue
            kept = []
            if parents:
                direct_only = edge.axis == "/"
                if direct_only:
                    child_depths = element_depths[n]
                    parent_depths = element_depths[edge.parent.index]
                    child_scalar = isinstance(child_depths, int)
                    parent_scalar = isinstance(parent_depths, int)
                    if child_scalar and parent_scalar:
                        if parent_depths != child_depths - 1:
                            in_pdt[n] = kept
                            continue
                        # Constant depths one level apart: any deepest
                        # proper ancestor in the parent set *is* the
                        # direct parent — no per-key depth checks below.
                        direct_only = False
                stack: list[bytes] = []
                position = 0
                parent_count = len(parents)
                for key in cand[n]:
                    while stack and not key.startswith(stack[-1]):
                        stack.pop()
                    while position < parent_count:
                        parent_key = parents[position]
                        if parent_key > key:
                            break
                        position += 1
                        if key.startswith(parent_key):
                            stack.append(parent_key)
                        # else: parent_key precedes key without being an
                        # ancestor — its subtree is fully behind us, and
                        # no later (larger) candidate can descend from it.
                    if not stack:
                        continue
                    top = stack[-1]
                    if top == key:
                        # The element itself is in the parent's PE set —
                        # only a *proper* ancestor satisfies the edge.
                        if len(stack) < 2:
                            continue
                        top = stack[-2]
                    if direct_only:
                        parent_depth = (
                            parent_depths
                            if parent_scalar
                            else parent_depths[top]
                        )
                        child_depth = (
                            child_depths
                            if child_scalar
                            else child_depths[key]
                        )
                        if parent_depth == child_depth - 1:
                            kept.append(key)
                    else:
                        kept.append(key)
                if len(kept) == len(cand[n]):
                    kept = cand[n]
        in_pdt[n] = kept
    return in_pdt


def _emit_columns(
    qpt: QPT,
    path_lists: dict[int, PathList],
    in_pdt: dict[int, list[bytes]],
) -> tuple:
    """Phase 4, emission: Definition 3's node set as the columns
    :meth:`PDTSkeleton._publish` takes, one segment of rows per QPT
    node.  An element two nodes emit (same tag) is one row, flags
    OR'ed; one argsort orders the columns; tag ids follow first
    appearance, as the wire requires.

    Handoff: a node whose PE set *is* its path list's ``keys`` takes
    byte lengths (and values, when its probe fetched them or no list
    carries any) from the list's own columns; any other looks its keys
    up in maps over every list, built on first need.
    """
    row_keys: list[bytes] = []
    row_lengths: list[int] = []
    row_values: list[Optional[str]] = []
    row_flags = bytearray()
    row_tags: list[int] = []
    tag_index: dict[str, int] = {}
    segments = 0
    length_of = value_of = None
    any_values = any(each.has_values for each in path_lists.values())
    for qnode in qpt.nodes:
        n = qnode.index
        emitted = in_pdt[n]
        if not emitted:
            continue
        flag = (_WANTS_VALUE if qnode.v_ann or qnode.predicates else 0) | (
            _WANTS_CONTENT if qnode.c_ann else 0
        )
        path_list = path_lists.get(n)
        own = path_list is not None and emitted is path_list.keys
        if own and (path_list.has_values or not any_values):
            lengths, values = path_list.byte_lengths, path_list.values
        else:
            if length_of is None:
                length_of, value_of = {}, {}
                for each in path_lists.values():
                    length_of.update(zip(each.keys, each.byte_lengths))
                    if each.has_values:
                        value_of.update(zip(each.keys, each.values))
            lengths = path_list.byte_lengths if own else [
                length_of.get(key, 0) for key in emitted
            ]
            values = list(map(value_of.get, emitted))
        tag_id = tag_index.get(qnode.tag)
        if tag_id is None:
            tag_id = tag_index[qnode.tag] = len(tag_index)
        else:
            # Only a node of an already-emitted tag can meet a row again.
            row_of = dict(zip(row_keys, range(len(row_keys))))
            fresh = [key not in row_of for key in emitted]
            for key in compress(emitted, map(operator.not_, fresh)):
                row_flags[row_of[key]] |= flag
            if not any(fresh):
                continue
            emitted, lengths, values = (
                list(compress(column, fresh))
                for column in (emitted, lengths, values)
            )
        segments += 1
        count = len(emitted)
        row_keys += emitted
        row_lengths += lengths
        row_values += values
        row_flags += bytes((flag,)) * count
        row_tags += [tag_id] * count
    tags = tuple(tag_index)
    if segments > 1:
        order = operator.itemgetter(
            *sorted(range(len(row_keys)), key=row_keys.__getitem__)
        )
        row_keys, row_lengths, row_values, row_flags, row_tags = map(
            order, (row_keys, row_lengths, row_values, row_flags, row_tags)
        )
        first = list(dict.fromkeys(row_tags))
        if first != sorted(first):
            tags = tuple(map(tags.__getitem__, first))
            renumber = dict(zip(first, range(len(first))))
            # A list, not an iterator: array() sizes a list exactly.
            row_tags = list(map(renumber.__getitem__, row_tags))
    return (
        tuple(row_keys),
        # Unlike the wire's u16, memory takes any number of tags.
        array("H" if len(tags) <= 0xFFFF else "I", row_tags),
        tags,
        bytes(
            [
                flag | _HAS_VALUE if value is not None else flag
                for flag, value in zip(row_flags, row_values)
            ]
        ),
        tuple(row_values),
        array("q", row_lengths),
    )


def build_skeleton(
    qpt: QPT,
    path_index: PathIndex,
    path_lists: Optional[dict[int, PathList]] = None,
) -> PDTSkeleton:
    """Run the structural pass for a ``(view, document)`` pair: the four
    phases in order, whose columns the skeleton publishes as they come.

    Unlike the stack automaton of :mod:`repro.baselines.stack_pdt`, the
    phases compute Definitions 1-3 on sorted byte-key arrays, with no
    per-(element, QPT node) state.  Identity is the fast path: a node
    that keeps every element of its path hands the index's own lists
    through every phase as the same objects.

    ``path_lists`` can be supplied to reuse already-issued path-index
    probes (the engine's prepared tier); otherwise the keyword-free half
    of PrepareLists is issued here.  No inverted-index probe is ever
    made — the skeleton carries no keyword data.
    """
    if path_lists is None:
        path_lists = prepare_path_lists(qpt, path_index)
    element_keys, element_depths, whole = _collect_elements(
        qpt, path_lists, path_index
    )
    cand = _candidate_elements(qpt, element_keys, element_depths)
    in_pdt = _pdt_elements(qpt, element_keys, element_depths, whole, cand)
    columns = _emit_columns(qpt, path_lists, in_pdt)
    entry_count = sum(len(lst) for lst in path_lists.values())
    skeleton = PDTSkeleton(qpt.doc_name, entry_count, len(columns[0]))
    skeleton._publish(*columns)
    return skeleton


def annotate_skeleton(
    skeleton: PDTSkeleton,
    inv_lists: dict[str, PostingList],
    keywords: tuple[str, ...],
) -> PDTResult:
    """:func:`sweep_tf_arrays` onto a cached skeleton, as one PDT."""
    tf_arrays = sweep_tf_arrays(skeleton, inv_lists, keywords)
    return PDTResult(skeleton, tuple(keywords), tf_arrays)


def sweep_tf_arrays(
    skeleton: PDTSkeleton,
    inv_lists: dict[str, PostingList],
    keywords: tuple[str, ...],
) -> dict[str, Optional[list[int]]]:
    """Merge a query's posting lists onto a cached skeleton.

    This is the per-query half of PDT generation: one
    ``cumulative_below`` merge-join sweep per keyword over the skeleton's
    precomputed subtree bounds produces a flat per-content-node tf array —
    O(skeleton + postings) per keyword, no binary searches, no index probe
    of any kind, and no tree construction.

    The tf arrays are keyed by the ``keywords`` argument, *not* by which
    inverted lists happen to be non-empty: a queried keyword with zero
    postings (or one missing from ``inv_lists`` entirely) is materialized
    as an explicit all-zero entry, so the result shape is identical
    whether or not the keyword occurs in the document.
    """
    tf_arrays: dict[str, Optional[list[int]]] = {}
    bounds, slot_bounds = skeleton.subtree_bounds
    for keyword in dict.fromkeys(keywords):
        posting_list = inv_lists.get(keyword)
        if posting_list is None or len(posting_list) == 0:
            tf_arrays[keyword] = None  # zero postings -> implicit zeros
            continue
        counts = posting_list.cumulative_below(bounds)
        tf_arrays[keyword] = [
            counts[high] - counts[low] for low, high in slot_bounds
        ]
    return tf_arrays


def generate_pdt(
    qpt: QPT,
    path_index: PathIndex,
    inverted_index: InvertedIndex,
    keywords: tuple[str, ...],
) -> PDTResult:
    """Generate the PDT for ``qpt`` using only the given indices.

    ``keywords`` must already be normalized (see
    :func:`repro.xmlmodel.tokenizer.normalize_keyword`).  The structural
    pass and the keyword annotation are :func:`build_skeleton` and
    :func:`annotate_skeleton`; the engine calls them separately so a
    cached skeleton skips the first.
    """
    return annotate_skeleton(
        build_skeleton(qpt, path_index),
        prepare_inv_lists(inverted_index, keywords),
        keywords,
    )
