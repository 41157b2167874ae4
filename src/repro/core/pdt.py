"""GeneratePDT: single-pass, index-only Pruned Document Tree generation.

This module implements the paper's central algorithm (Section 4.2.2 and the
generalized Appendix E version).  Given a QPT and the lists returned by
PrepareLists, it computes the PDT — the projection of the base document
satisfying the mutual ancestor/descendant/predicate constraints — while
reading each Dewey ID exactly once and never touching the base documents.

Formulation.  The paper drives a Candidate Tree through repeated
``MinIDPath`` maintenance — a stack automaton over the k-way merge of the
id lists, kept as written in :mod:`repro.baselines.stack_pdt` (the
Section 4.2.2.1 ablation runs there).  The pipeline computes the same
CE / PE sets of Definitions 1-2 as a fixpoint swept over the sorted
packed-key arrays the storage layer already keeps
(:func:`_sweep_columns`): bisects and merges over flat ``bytes``, no
per-(element, QPT node) state, written straight into skeleton columns.

Ids flow through the sweep in their *packed* byte form (see
:mod:`repro.dewey`): bytes comparison is document order, a byte prefix is
an ancestor, and a subtree is the contiguous range
``[key, packed_child_bound(key))`` — so the candidate tests, the ancestor
chains and the skeleton's tf range bounds all operate on flat bytes with
no per-element tuple allocation.

The keyword-independent half of the work is captured by
:class:`PDTSkeleton` (cached per ``(view, document)`` by the engine): the
surviving records as flat columns (the v2 wire format's own), the tree
assembled from them on demand, and — for every content node — its
subtree boundary keys resolved to indices into one sorted bounds array.
The per-query half, :func:`annotate_skeleton`, is then one merge-join
sweep per keyword over ``(bounds, posting list)`` producing a flat tf
array: O(skeleton + postings), not O(skeleton · log postings) bisects.

Equivalence with Definitions 1-3 is enforced by property tests against
``repro.core.reference``.
"""

from __future__ import annotations

import operator
import struct
import sys
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from typing import Optional

from repro.core.prepare import prepare_inv_lists, prepare_path_lists
from repro.storage.inverted_index import PostingList
from repro.core.qpt import QPT
from repro.dewey import DeweyID, packed_child_bound, unpack
from repro.storage.inverted_index import InvertedIndex
from repro.storage.path_index import PathIndex, PathList
from repro.xmlmodel.node import NodeAnnotations, XMLNode

FRAGMENT_TAG = "#fragment"
EMPTY_TAG = "#empty-document"


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


@dataclass(slots=True)
class PDTRecord:
    """An emitted PDT element (pre-tree-construction).

    ``key`` is the element's packed Dewey byte key.  The stack automaton
    (:mod:`repro.baselines.stack_pdt`) and the GTP baseline emit these,
    and tests build them, for :meth:`PDTSkeleton.from_records`; the
    pipeline's sweep writes columns instead.  ``slots=True``: one record
    per surviving element.
    """

    key: bytes
    tag: str
    value: Optional[str]
    byte_length: int
    wants_value: bool = False
    wants_content: bool = False

    @property
    def dewey(self) -> tuple[int, ...]:
        """Decoded component tuple (diagnostics/tests; not hot-path)."""
        return unpack(self.key)


def _sweep_columns(
    qpt: QPT,
    path_lists: dict[int, PathList],
    path_index: PathIndex,
) -> tuple:
    """The structural pass: a CE/PE fixpoint swept over the packed-key
    arrays the storage layer already keeps, written straight into a
    skeleton's columns ``(keys, tag_ids, tags, flags, values,
    byte_lengths)`` — what :meth:`PDTSkeleton._publish` takes.

    Instead of driving a per-element stack automaton (one open-element
    and one item object per (element, QPT node) pair — see
    :mod:`repro.baselines.stack_pdt`), this computes Definitions 1-2
    directly on sorted byte-key arrays:

    * **elements** per QPT node: a probed node's elements are exactly its
      path list (predicates are pre-filtered by the probe, so a pattern
      match alone never qualifies); an unprobed node's elements are the
      Dewey prefixes of list entries at the depths its pattern matches —
      derived once, deduplicated by key, from prefix plans memoized on
      the QPT per data path;
    * **CE (bottom-up)**: a mandatory ``//`` edge is an emptiness test of
      the child's candidate array within ``(key, packed_child_bound(key))``
      — two bisects; a mandatory ``/`` edge bisects the child's
      candidates bucketed by depth, so "has a direct child" is one probe
      of the ``depth+1`` bucket inside the subtree range;
    * **PE (top-down)**: one merged sweep per edge over the parent's
      sorted PE keys and the node's sorted candidates — the active
      ancestor chain is a small prefix stack, ``/`` additionally checks
      the chain's deepest entry sits one level up.  No sweep when the
      parent keeps the whole column of one path and the child's
      candidates are the whole column of a path extending it (by one
      step on ``/``, by any number on ``//``): every candidate's
      ancestor on the parent's path is a parent element;
    * **emission**: one segment of rows per QPT node.  A node that keeps
      its whole path list takes byte lengths (and values, when its probe
      fetched them or no list carries any) from the list's columns; any
      other looks its keys up in key → length / value maps over every
      list, built on first need.  An element two nodes emit (they share
      its tag) is one row, flags OR'ed.  One argsort orders the columns;
      tag ids follow first appearance, as the wire requires.

    So a node that keeps every element of its path hands the index's own
    columns through CE, PE and emission as the same list objects, and a
    sweep that keeps every element hands on its input list.  Equivalence
    with ``repro.core.reference`` and with the automaton is enforced by
    the property suite and the reference-equivalence tests.
    """
    # A node is probed iff it has its own path list.
    probed = path_lists
    qpt_root = qpt.root
    nodes = qpt.nodes
    path_by_id = path_index.path_by_id
    prefix_plans = qpt._prefix_plans

    # -- element collection ---------------------------------------------------
    # Per QPT node: a *sorted key array* plus its depth information — a
    # scalar when every element sits at one depth (single-path lists,
    # single-source derivations: the arrays are shared with the index,
    # zero copies), a {key: depth} dict otherwise.  Probed nodes take
    # their lists verbatim; unprobed nodes take the index's precomputed
    # ancestor-prefix arrays: the depth-d ancestors of *every* element
    # on the path.  Deriving from the unfiltered path rather than the
    # predicate-filtered lists is a safe superset: every unprobed node
    # has a mandatory child edge, and the CE pass grounds those chains
    # in the filtered lists, so an ancestor with no surviving probed
    # descendant can never become a candidate.
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

    # -- CE: candidate elements, bottom-up (Definition 1) ---------------------
    cand: dict[int, list[bytes]] = {}
    cand_by_depth: dict[int, dict[int, list[bytes]]] = {}
    for qnode in reversed(nodes):
        n = qnode.index
        ordered_elems = element_keys[n]
        depths = element_depths[n]
        scalar_depth = isinstance(depths, int)
        mandatory = qnode.mandatory_child_edges()
        if not mandatory:
            kept = ordered_elems  # shared read-only; never mutated below
        elif len(mandatory) == 1:
            # Single mandatory edge — the common shape, unrolled.  In
            # packed order a subtree is contiguous right after its root,
            # so "has a (direct) descendant candidate" is one bisect plus
            # a prefix check of the very next candidate — no subtree
            # bound is ever materialized.
            kept = []
            edge = mandatory[0]
            child = edge.child.index
            if edge.axis == "/":
                buckets = cand_by_depth[child]
                if scalar_depth:
                    bucket = buckets.get(depths + 1)
                    if bucket is not None:
                        bucket_count = len(bucket)
                        for key in ordered_elems:
                            i = bisect_left(bucket, key)
                            if i < bucket_count and bucket[i].startswith(key):
                                kept.append(key)
                else:
                    for key in ordered_elems:
                        bucket = buckets.get(depths[key] + 1)
                        if bucket is None:
                            continue
                        i = bisect_left(bucket, key)
                        if i < len(bucket) and bucket[i].startswith(key):
                            kept.append(key)
            else:
                pool = cand[child]
                pool_count = len(pool)
                for key in ordered_elems:
                    i = bisect_right(pool, key)
                    if i < pool_count and pool[i].startswith(key):
                        kept.append(key)
        else:
            kept = []
            checks = [
                (edge.axis == "/", edge.child.index) for edge in mandatory
            ]
            for key in ordered_elems:
                ok = True
                for is_child_axis, child in checks:
                    if is_child_axis:
                        depth = depths if scalar_depth else depths[key]
                        bucket = cand_by_depth[child].get(depth + 1)
                        if bucket is None:
                            ok = False
                            break
                        i = bisect_left(bucket, key)
                        if i >= len(bucket) or not bucket[i].startswith(key):
                            ok = False
                            break
                    else:
                        pool = cand[child]
                        i = bisect_right(pool, key)
                        if i >= len(pool) or not pool[i].startswith(key):
                            ok = False
                            break
                if ok:
                    kept.append(key)
        # A sweep that kept every element hands on the list itself.
        cand[n] = ordered_elems if len(kept) == len(ordered_elems) else kept
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

    # -- PE: PDT elements, top-down (Definition 2) ----------------------------
    # ``in_pdt`` keeps *sorted lists* (cand order is preserved), so each
    # child pass is one merged stack sweep over (parents, candidates):
    # ancestors of the current candidate are exactly the stacked parent
    # keys, maintained with startswith pops — no per-key prefix decoding.
    in_pdt: dict[int, list[bytes]] = {}
    for qnode in nodes:
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

    # -- emission (Definition 3's node set), as columns -----------------------
    row_keys: list[bytes] = []
    row_lengths: list[int] = []
    row_values: list[Optional[str]] = []
    row_flags = bytearray()
    row_tags: list[int] = []
    tag_index: dict[str, int] = {}
    segments = 0
    length_of = value_of = None
    any_values = any(each.has_values for each in path_lists.values())
    for qnode in nodes:
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


# What one element of a skeleton column costs beyond its slot (CPython).
_SIZEOF_BYTES = sys.getsizeof(b"")
_SIZEOF_STR = sys.getsizeof("")
_SIZEOF_INT = sys.getsizeof(1 << 20)
_SIZEOF_PAIR = sys.getsizeof((0, 0))

#: ``flags`` bits of one record (the wire's, and the in-memory column's).
_WANTS_VALUE, _WANTS_CONTENT, _HAS_VALUE = 1, 2, 4
_ALL_FLAGS = bytes(range(8))
#: ``flags.translate(_IS_CONTENT)`` is 1 at content records, 0 elsewhere.
_IS_CONTENT = bytes(1 if flag & _WANTS_CONTENT else 0 for flag in range(256))
_VALUELESS_FLAGS = bytes(range(_HAS_VALUE))
_NEXT_BYTE = [bytes((byte + 1,)) for byte in range(0xFF)]


class PDTSkeleton:
    """The keyword-independent structural part of a PDT.

    Everything the merge pass computes — which elements of a ``(view,
    document)`` pair survive the structural ancestor/descendant/predicate
    constraints, their Dewey ids, tags, values and byte lengths — depends
    only on the view's QPT and the document, never on the query keywords
    (keywords enter the pipeline solely as per-element term-frequency
    annotations consumed by scoring).  A skeleton is therefore shared
    across *every* keyword set queried against the same view and
    document; :func:`annotate_skeleton` merges a query's posting lists
    onto it in one sweep per keyword with zero path-index work.

    Its state *is* the v2 wire format's record columns (see the header
    map below), in record (= document) order — one form whether the
    skeleton was built, restored or patched, cached or not:

    * ``keys`` — the packed Dewey keys (sorted; bytes order = document
      order, a byte prefix = an ancestor);
    * ``tag_ids`` / ``tags`` — per record, an index into the distinct
      tags in first-appearance order;
    * ``flags`` — per record, bit 0 wants_value, bit 1 wants_content,
      bit 2 value present;
    * ``values`` — materialized atomic values (``None`` where absent);
    * ``byte_lengths`` — signed, and never written once published: a
      patch publishes a copy; the only copy of a PDT node's byte length
      (queries read it through :attr:`PDTResult.byte_lengths`).

    Derived from the columns on first annotation (or ``put``), because
    only a posting sweep needs them: ``subtree_bounds``, the pair
    ``(bounds, slot_bounds)`` — the sorted, de-duplicated subtree
    boundary keys of all content nodes and, per content slot, the
    ``(low, high)`` indices into ``bounds``;
    one ``PostingList.cumulative_below(bounds)`` sweep per keyword then
    yields every content node's subtree tf by two array reads.

    ``tree``, the assembled PDT tree (values and nesting are
    keyword-independent, so one shared tree serves every keyword set;
    every node carries its record ``position`` and a content node its
    ``slot``: the per-query tfs live in :attr:`PDTResult.tf_arrays`, the
    byte lengths in the ``byte_lengths`` column), is memoized
    **weakly**: it is built from the columns only when a reader asks
    (the evaluator, through :attr:`PDTResult.root`) and kept alive
    exactly as long as some evaluated-tier entry or evaluation in flight
    references its nodes.  Nothing writes to a tree once it is built,
    and positions and slots are positional, so re-built trees are
    interchangeable.

    Three ways in, each ending in :meth:`_publish`: the structural
    sweep's columns (:func:`build_skeleton`), :meth:`from_records` (the
    records of the stack automaton in :mod:`repro.baselines.stack_pdt`
    and of the GTP baseline's structural joins) and :meth:`from_bytes`
    (decode and validate a payload).  Every way sets every column.
    Skeletons are immutable in practice apart from the byte-length
    column, which a patch replaces; the tree and bound memos are
    idempotent and each published by one attribute write, so a benign
    compute race between annotating threads settles on equivalent
    state — the skeleton tier's concurrent-read contract.
    """

    __slots__ = (
        "doc_name",
        "entry_count",
        "node_count",
        "content_count",
        "keys",
        "tag_ids",
        "tags",
        "flags",
        "values",
        "byte_lengths",
        "_bounds",
        "_tree_ref",
        "_memory_bytes",
    )

    def __init__(self, doc_name: str, entry_count: int, node_count: int):
        self.doc_name = doc_name
        self.entry_count = entry_count
        self.node_count = node_count
        self._bounds: Optional[tuple[tuple, tuple]] = None
        self._tree_ref: Optional[weakref.ref] = None
        self._memory_bytes: Optional[int] = None

    def __repr__(self) -> str:
        return f"<PDTSkeleton {self.doc_name!r} nodes={self.node_count}>"

    # -- the two ways in -----------------------------------------------------

    @classmethod
    def from_records(
        cls,
        doc_name: str,
        records: dict[bytes, PDTRecord],
        entry_count: int,
    ) -> "PDTSkeleton":
        """Finalize the baselines' records: sort them, lay out the columns."""
        keys = tuple(sorted(records))
        ordered = [records[key] for key in keys]
        tag_index: dict[str, int] = {}
        tag_ids = [
            tag_index.setdefault(record.tag, len(tag_index))
            for record in ordered
        ]
        skeleton = cls(doc_name, entry_count, len(keys))
        skeleton._publish(
            keys,
            # Unlike the wire's u16, memory takes any number of tags.
            array("H" if len(tag_index) <= 0xFFFF else "I", tag_ids),
            tuple(tag_index),
            bytes(
                [
                    (_WANTS_VALUE if record.wants_value else 0)
                    | (_WANTS_CONTENT if record.wants_content else 0)
                    | (_HAS_VALUE if record.value is not None else 0)
                    for record in ordered
                ]
            ),
            tuple([record.value for record in ordered]),
            array("q", [record.byte_length for record in ordered]),
        )
        return skeleton

    @classmethod
    def from_bytes(cls, payload) -> "PDTSkeleton":
        """Decode a :meth:`to_bytes` payload — any bytes-like buffer, an
        ``mmap`` included; the skeleton keeps no reference to it.

        Raises ``ValueError`` on any malformed, truncated, non-canonical
        or version-mismatched payload — callers (the snapshot store)
        treat that as a miss, never as corrupt state to serve.
        """
        layout = SkeletonLayout(payload)
        skeleton = cls(
            layout.doc_name, layout.entry_count, layout.record_count
        )
        skeleton._publish(*layout.columns())
        return skeleton

    def _publish(
        self,
        keys: tuple[bytes, ...],
        tag_ids: array,
        tags: tuple[str, ...],
        flags: bytes,
        values: tuple[Optional[str], ...],
        byte_lengths: array,
    ) -> None:
        """Set the columns (the one finalization every way in shares)."""
        self.keys = keys
        self.tag_ids = tag_ids
        self.tags = tags
        self.flags = flags
        self.values = values
        self.byte_lengths = byte_lengths
        self.content_count = flags.translate(_IS_CONTENT).count(1)

    # -- the subtree bounds --------------------------------------------------

    @property
    def subtree_bounds(self) -> tuple[tuple, tuple]:
        """``(bounds, slot_bounds)``, derived on first read: one memo."""
        return self._bounds or self._derive_bounds()

    def _derive_bounds(self) -> tuple[tuple, tuple]:
        keys = self.keys
        content_keys = list(compress(keys, self.flags.translate(_IS_CONTENT)))
        # packed_child_bound, minus the scan for the last component when
        # adding one to it carries nowhere: then only the last byte moves.
        uppers = [
            key[:-1] + _NEXT_BYTE[key[-1]]
            if key[-1] != 0xFF
            else packed_child_bound(key)
            for key in content_keys
        ]
        bounds = tuple(sorted(set(content_keys).union(uppers)))
        index_of = {bound: at for at, bound in enumerate(bounds)}.__getitem__
        slot_bounds = zip(map(index_of, content_keys), map(index_of, uppers))
        self._bounds = pair = (bounds, tuple(slot_bounds))
        return pair

    # -- the shared tree -----------------------------------------------------

    @property
    def tree(self) -> XMLNode:
        ref = self._tree_ref
        tree = ref() if ref is not None else None
        if tree is None:
            tree = self._build_tree()
            self._tree_ref = weakref.ref(tree)
        return tree

    def _build_tree(self) -> XMLNode:
        """Nest the records into the shared tree (Definition 3's edge
        set: parent = nearest emitted ancestor).

        Ids are decoded incrementally — a record's components extend its
        parent's already-decoded tuple by the unpacked key suffix — so
        the pass never re-decodes an ancestor prefix.
        """
        keys = self.keys
        if not keys:
            return XMLNode(EMPTY_TAG)
        tags = self.tags
        tag_ids = self.tag_ids
        flags = self.flags
        values = self.values
        doc_name = self.doc_name
        dewey_ids: list[DeweyID] = []
        stack: list[int] = []
        nodes: list[XMLNode] = []
        top_level: list[XMLNode] = []
        slot_count = 0
        append_dewey = dewey_ids.append
        append_node = nodes.append
        new_dewey = DeweyID.__new__
        new_node = XMLNode.__new__
        new_anno = NodeAnnotations.__new__
        for position, key in enumerate(keys):
            while stack and not key.startswith(keys[stack[-1]]):
                stack.pop()
            if stack:
                parent = stack[-1]
                parent_id = dewey_ids[parent]
                offset = len(parent_id._packed)
                if offset + 1 + key[offset] == len(key):
                    # Single-component suffix (the common case: the
                    # record is a child of the previous record's element).
                    components = parent_id.components + (
                        int.from_bytes(key[offset + 1:], "big"),
                    )
                else:
                    components = parent_id.components + unpack(key[offset:])
            else:
                parent = -1
                components = unpack(key)
            # dewey_from_parts, XMLNode/NodeAnnotations construction and
            # child attachment, unrolled: this loop allocates the whole
            # tree, three objects per record.
            dewey = new_dewey(DeweyID)
            dewey.components = components
            dewey._packed = key
            append_dewey(dewey)
            stack.append(position)
            flag = flags[position]
            node = new_node(XMLNode)
            node.tag = tags[tag_ids[position]]
            node.text = values[position] if flag & _WANTS_VALUE else None
            node.children = []
            node.dewey = None
            anno = new_anno(NodeAnnotations)
            anno.dewey = dewey
            anno.position = position
            anno.doc = doc_name
            if flag & _WANTS_CONTENT:
                anno.pruned = True
                anno.slot = slot_count
                slot_count += 1
            else:
                anno.pruned = False
                anno.slot = None
            node.anno = anno
            append_node(node)
            if parent >= 0:
                parent_node = nodes[parent]
                node.parent = parent_node
                parent_node.children.append(node)
            else:
                node.parent = None
                top_level.append(node)
        if len(top_level) == 1 and len(dewey_ids[0].components) == 1:
            # The document root element itself is in the PDT: it is the tree.
            return top_level[0]
        tree = XMLNode(FRAGMENT_TAG)
        for node in top_level:
            tree.append(node)
        return tree

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Encode as self-contained v2 bytes (see the header map below).

        Only the *record columns* travel — the skeleton's own state,
        joined; what else it carries (subtree bounds, the shared tree) is
        a pure function of the columns and is derived again when read, so
        the wire format cannot drift from the in-memory derivations, and
        a payload is host-independent (no pickled code, no interpreter
        state).

        A fixed offset-table header plus packed column arrays: a reader
        can address any column in O(1) (:class:`SkeletonLayout`) and
        check a payload's shape without parsing it.  The encoding is
        deterministic (tag table in first-appearance order), and
        :meth:`from_bytes` accepts nothing else, so a payload that
        decodes re-encodes to itself.
        """
        keys = self.keys
        tags = self.tags
        if len(tags) > 0xFFFF:
            raise ValueError("too many distinct tags for skeleton payload")
        doc_raw = self.doc_name.encode("utf-8")
        keys_blob = b"".join(keys)
        tag_table = b"".join(
            len(raw).to_bytes(4, "big") + raw
            for raw in [tag.encode("utf-8") for tag in tags]
        )
        value_parts = [
            value.encode("utf-8") for value in self.values if value is not None
        ]
        values_blob = b"".join(value_parts)
        return b"".join(
            (
                _V2_HEADER.pack(
                    _SKELETON_MAGIC,
                    _SKELETON_VERSION,
                    self.entry_count,
                    len(keys),
                    self.content_count,
                    len(value_parts),
                    len(tags),
                    len(doc_raw),
                    len(keys_blob),
                    len(tag_table),
                    len(values_blob),
                ),
                doc_raw,
                _wire_column("I", accumulate(map(len, keys), initial=0)),
                keys_blob,
                _wire_column("H", self.tag_ids),
                tag_table,
                self.flags,
                _wire_column("q", self.byte_lengths),
                _wire_column(
                    "I", accumulate(map(len, value_parts), initial=0)
                ),
                values_blob,
            )
        )

    # -- accounting ----------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Estimated resident footprint (memoized; patches do not move it).

        Counts everything the skeleton owns — every column and both
        bound arrays (derived here if need be); the weakly-held tree is
        evictable derived data, excluded: only query results pin it.

        Arithmetic over the column lengths — container sizes plus a
        per-element constant for what each slot points at — because
        every cache ``put`` reads this, so it must not walk the object
        graph; the tests hold it to within 10% of such a walk.  Lower
        bound keys are the key objects themselves; only an upper bound
        that is no content node's key is an extra ``bytes``.
        """
        cached = self._memory_bytes
        if cached is None:
            getsizeof = sys.getsizeof
            keys = self.keys
            count = len(keys)
            key_bytes = sum(map(len, keys))
            tags = self.tags
            present = [value for value in self.values if value is not None]
            bounds, slot_bounds = pair = self.subtree_bounds
            content_count = self.content_count
            cached = (
                getsizeof(self)
                + getsizeof(keys)
                + count * _SIZEOF_BYTES
                + key_bytes
                + getsizeof(self.tag_ids)
                + getsizeof(tags)
                + len(tags) * _SIZEOF_STR
                + sum(map(len, tags))
                + getsizeof(self.flags)
                + getsizeof(self.values)
                + len(present) * _SIZEOF_STR
                + sum(map(len, present))
                + getsizeof(self.byte_lengths)
                + getsizeof(pair) + getsizeof(bounds)
                + (len(bounds) - content_count)
                * (_SIZEOF_BYTES + key_bytes // max(count, 1))
                + getsizeof(slot_bounds)
                + content_count * _SIZEOF_PAIR
                + len(bounds) * _SIZEOF_INT
            )
            self._memory_bytes = cached
        return cached


_SKELETON_MAGIC = b"PDTS"
_SKELETON_VERSION = 2

# v2 fixed header (big-endian):
#   [0:4]   magic "PDTS"
#   [4:6]   u16 version (= 2)
#   [6:14]  u64 entry_count
#   [14:18] u32 record_count (n)
#   [18:22] u32 content_count
#   [22:26] u32 value_count (m: records whose value is present)
#   [26:30] u32 tag_count (t: distinct tags, first-appearance order)
#   [30:34] u32 doc_name byte length
#   [34:38] u32 keys blob byte length
#   [38:42] u32 tag table byte length
#   [42:46] u32 values blob byte length
# then, back to back (every section offset is O(1) arithmetic over the
# header — a reader addresses any column without parsing the ones
# before it):
#   doc_name utf-8
#   key_offsets   u32[n+1]   (relative, key_offsets[0] == 0)
#   keys blob     (concatenated packed Dewey keys)
#   tag_ids       u16[n]
#   tag table     t × (u32 length + utf-8)
#   flags         u8[n]      (bit0 wants_value, bit1 wants_content,
#                             bit2 value present)
#   byte_lengths  i64[n]     (signed: delta patches legitimately drive a
#                             pruned record's running length negative)
#   value_offsets u32[m+1]   (relative, over value-bearing records in order)
#   values blob   (concatenated utf-8 values)
_V2_HEADER = struct.Struct(">4sHQ8I")
_V2_HEADER_SIZE = _V2_HEADER.size  # 46
_LITTLE_ENDIAN = sys.byteorder == "little"


def _wire_column(typecode: str, values) -> bytes:
    """``values`` as one big-endian wire column."""
    column = array(typecode, values)
    if _LITTLE_ENDIAN:
        column.byteswap()
    return column.tobytes()


def _host_column(typecode: str, raw: bytes) -> array:
    """Inverse of :func:`_wire_column`."""
    column = array(typecode, raw)
    if _LITTLE_ENDIAN:
        column.byteswap()
    return column


def skeleton_payload_version(payload) -> int:
    """The wire version of a skeleton payload (header peek, O(1)).

    Accepts any bytes-like buffer.  Raises ``ValueError`` when the
    payload is too short or carries the wrong magic — the same contract
    as full deserialization.
    """
    if len(payload) < 6 or bytes(payload[0:4]) != _SKELETON_MAGIC:
        raise ValueError("not a PDT skeleton payload")
    return int.from_bytes(bytes(payload[4:6]), "big")


class SkeletonLayout:
    """Validated v2 section offsets over a bytes-like payload.

    Parsing is O(1) in the payload size: the fixed header names every
    section length, so all offsets are arithmetic and the single
    total-length equation rejects truncated or trailing-byte payloads
    up front.  Column *content* is validated when (and only when)
    :meth:`columns` decodes it, so the layout alone is a cheap shape
    check (the networked store's admission of peer bytes).
    """

    __slots__ = (
        "payload",
        "doc_name",
        "entry_count",
        "record_count",
        "content_count",
        "value_count",
        "tag_count",
        "key_index_offset",
        "keys_offset",
        "keys_size",
        "tag_ids_offset",
        "tag_table_offset",
        "tag_table_size",
        "flags_offset",
        "lengths_offset",
        "value_index_offset",
        "values_offset",
        "values_size",
        "total",
    )

    def __init__(self, payload):
        total = len(payload)
        if total < _V2_HEADER_SIZE:
            raise ValueError("truncated PDT skeleton payload")
        version = skeleton_payload_version(payload)
        if version != _SKELETON_VERSION:
            raise ValueError(f"unsupported PDT skeleton version {version}")
        (
            _,
            _,
            entry_count,
            record_count,
            content_count,
            value_count,
            tag_count,
            doc_size,
            keys_size,
            tag_table_size,
            values_size,
        ) = _V2_HEADER.unpack(bytes(payload[:_V2_HEADER_SIZE]))
        self.payload = payload
        self.entry_count = entry_count
        self.record_count = record_count
        self.content_count = content_count
        self.value_count = value_count
        self.tag_count = tag_count
        self.keys_size = keys_size
        self.tag_table_size = tag_table_size
        self.values_size = values_size
        offset = _V2_HEADER_SIZE
        doc_end = offset + doc_size
        self.key_index_offset = doc_end
        self.keys_offset = self.key_index_offset + 4 * (record_count + 1)
        self.tag_ids_offset = self.keys_offset + keys_size
        self.tag_table_offset = self.tag_ids_offset + 2 * record_count
        self.flags_offset = self.tag_table_offset + tag_table_size
        self.lengths_offset = self.flags_offset + record_count
        self.value_index_offset = self.lengths_offset + 8 * record_count
        self.values_offset = self.value_index_offset + 4 * (value_count + 1)
        self.total = self.values_offset + values_size
        if self.total > total:
            raise ValueError("truncated PDT skeleton payload")
        if self.total < total:
            raise ValueError("trailing bytes in PDT skeleton payload")
        try:
            self.doc_name = bytes(payload[offset:doc_end]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError("corrupt PDT skeleton doc name") from exc

    def _section(self, start: int, end: int) -> bytes:
        return bytes(self.payload[start:end])

    # -- column decoders (each validates what it touches) --------------------

    def columns(self) -> tuple:
        """``(keys, tag_ids, tags, flags, values, byte_lengths)`` — a
        :class:`PDTSkeleton`'s columns, or ``ValueError``.

        Accepts exactly what :meth:`PDTSkeleton.to_bytes` writes: sorted,
        well-formed keys, a tag table in first-appearance order with
        every entry referenced, no unknown flag bit, header counts that
        match the flags — so whatever decodes re-encodes to the payload
        it came from, byte for byte.
        """
        flags = self.flags()
        byte_lengths = _host_column(
            "q", self._section(self.lengths_offset, self.value_index_offset)
        )
        return (
            self.keys(), *self.tags(), flags, self.values(flags), byte_lengths
        )

    def keys(self) -> tuple[bytes, ...]:
        offsets = _host_column(
            "I", self._section(self.key_index_offset, self.keys_offset)
        )
        if offsets[0] != 0 or offsets[-1] != self.keys_size:
            raise ValueError("corrupt PDT skeleton key index")
        blob = self._section(self.keys_offset, self.tag_ids_offset)
        keys: list[bytes] = []
        previous = b""
        low = 0
        for high in islice(offsets, 1, None):
            if high <= low or high > len(blob):
                raise ValueError("corrupt PDT skeleton key index")
            key = blob[low:high]
            # The packed form, as pack() writes it: per component a
            # length byte and that many bytes, the first one non-zero
            # (pack(unpack(key)) == key, at a quarter of the cost).
            cursor, size = 0, high - low
            while cursor < size:
                end = cursor + 1 + key[cursor]
                if end == cursor + 1 or end > size or key[cursor + 1] == 0:
                    raise ValueError("corrupt PDT skeleton key")
                cursor = end
            if key <= previous:
                raise ValueError("PDT skeleton keys out of order")
            keys.append(key)
            previous = key
            low = high
        return tuple(keys)

    def tags(self) -> tuple[array, tuple[str, ...]]:
        """Per-record tag ids and the tag table they index."""
        table = self._section(self.tag_table_offset, self.flags_offset)
        names: list[str] = []
        cursor = 0
        for _ in range(self.tag_count):
            size_end = cursor + 4
            tag_end = size_end + int.from_bytes(table[cursor:size_end], "big")
            if size_end > len(table) or tag_end > len(table):
                raise ValueError("corrupt PDT skeleton tag table")
            names.append(table[size_end:tag_end].decode("utf-8"))
            cursor = tag_end
        if cursor != len(table) or len(set(names)) != len(names):
            raise ValueError("corrupt PDT skeleton tag table")
        tag_ids = _host_column(
            "H", self._section(self.tag_ids_offset, self.tag_table_offset)
        )
        # First appearances must read 0, 1, 2, … and reach every entry.
        if list(dict.fromkeys(tag_ids)) != list(range(len(names))):
            raise ValueError("corrupt PDT skeleton tag ids")
        return tag_ids, tuple(names)

    def flags(self) -> bytes:
        flags = self._section(self.flags_offset, self.lengths_offset)
        if flags.translate(None, _ALL_FLAGS):
            raise ValueError("corrupt PDT skeleton flags")
        if sum(flags.translate(_IS_CONTENT)) != self.content_count:
            raise ValueError("corrupt PDT skeleton content count")
        return flags

    def values(self, flags: bytes) -> tuple[Optional[str], ...]:
        offsets = _host_column(
            "I", self._section(self.value_index_offset, self.values_offset)
        )
        if (
            offsets[0] != 0
            or offsets[-1] != self.values_size
            or len(flags.translate(None, _VALUELESS_FLAGS)) != self.value_count
        ):
            raise ValueError("corrupt PDT skeleton value index")
        blob = self._section(self.values_offset, self.total)
        values: list[Optional[str]] = []
        position = 0
        for flag in flags:
            if flag & _HAS_VALUE:
                low, high = offsets[position], offsets[position + 1]
                if high < low or high > len(blob):
                    raise ValueError("corrupt PDT skeleton value index")
                values.append(blob[low:high].decode("utf-8"))
                position += 1
            else:
                values.append(None)
        return tuple(values)


def patch_skeleton_byte_lengths(
    skeleton: PDTSkeleton,
    ancestor_keys: tuple[bytes, ...],
    delta: int,
) -> int:
    """Shift the byte lengths of the edit point's ancestors in a copy.

    The delta-maintenance fast path for edits the engine classified as
    *skeleton-patchable*: no added or removed element matches the view's
    QPT anywhere along its path, so the record set — every record's
    position, the tree and the content-slot bounds — is unchanged; only
    the serialized lengths of the edit point's proper ancestors moved,
    by the same ``delta`` each.  Bisects each ancestor key into the
    sorted key column and shifts its cell of a copy of ``byte_lengths``,
    the one place the length lives, then publishes the copy: no tree is
    touched, or built, and a query or a statistics memo holding the old
    column keeps the lengths it read.  Returns the number of skeleton
    nodes patched; ancestors the skeleton does not materialize are
    skipped — their lengths are simply not part of this view.
    """
    if delta == 0 or not ancestor_keys:
        return 0
    keys = skeleton.keys
    byte_lengths = skeleton.byte_lengths[:]
    count = len(keys)
    patched = 0
    for key in ancestor_keys:
        position = bisect_left(keys, key)
        if position < count and keys[position] == key:
            byte_lengths[position] += delta
            patched += 1
    if patched:
        skeleton.byte_lengths = byte_lengths
    return patched


def build_skeleton(
    qpt: QPT,
    path_index: PathIndex,
    path_lists: Optional[dict[int, PathList]] = None,
) -> PDTSkeleton:
    """Run the structural pass for a ``(view, document)`` pair: one
    :func:`_sweep_columns` sweep, whose columns the skeleton publishes
    as they come (no records, no sort of them).

    ``path_lists`` can be supplied to reuse already-issued path-index
    probes (the engine's prepared tier); otherwise the keyword-free half
    of PrepareLists is issued here.  No inverted-index probe is ever
    made — the skeleton carries no keyword data.
    """
    if path_lists is None:
        path_lists = prepare_path_lists(qpt, path_index)
    columns = _sweep_columns(qpt, path_lists, path_index)
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
