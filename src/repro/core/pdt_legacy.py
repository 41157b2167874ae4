"""The pre-batching cold path, frozen as a benchmark/differential reference.

This module is a verbatim-behavior snapshot of the skeleton build as it
stood before the cold-path overhaul (batched path probes + the
array-backed structural merge in :mod:`repro.core.pdt`):

* :func:`legacy_prepare_path_lists` — one independent B+-tree descent per
  QPT pattern, materializing a per-entry object (the old frozen-dataclass
  path list) and re-sorting with a key lambda;
* :class:`_LegacyPDTBuilder` — the tuple-stream ``heapq.merge`` over
  per-entry generators, with per-prefix ``match_table`` lookups and
  per-item mandatory-edge list rebuilds;
* :func:`legacy_build_skeleton` — the old finalization: validated
  ``DeweyID`` construction per record and the original tree assembly.

It exists for two reasons and must not be used by the serving pipeline:

1. ``benchmarks/bench_x7_cold_path.py`` self-enforces the overhaul's
   acceptance criterion (batched cold build ≥ 3x this path at scale 1) —
   a floor that only means something against a faithful baseline;
2. ``tests/test_pdt_legacy_equivalence.py`` holds the columnar
   :class:`~repro.core.pdt.PDTSkeleton` to it — keys, per-record
   columns, bounds, tree and tf arrays.  It is the one implementation
   of records, bounds and tree that shares no code with that class
   (:class:`LegacySkeleton` is the eager record graph the columns
   replaced), so neither a speedup nor a change of representation can
   hide a semantic drift.

The reference deliberately does **not** bump ``PathIndex.probe_count``:
it is a pure function over the index contents, safe to run next to the
real pipeline without polluting probe accounting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from repro.core.pdt import EMPTY_TAG, FRAGMENT_TAG, PDTRecord
from repro.core.qpt import QPT, QPTNode
from repro.dewey import DeweyID, packed_child_bound, packed_prefix_ends, unpack
from repro.storage.path_index import PathIndex
from repro.values import Predicate, atom_key
from repro.xmlmodel.node import NodeAnnotations, XMLNode


# -- the old per-pattern probe path -------------------------------------------


@dataclass(frozen=True)
class _LegacyEntry:
    """The old per-entry path-list object (one allocation per element)."""

    key: bytes
    path_id: int
    value: Optional[str]
    byte_length: int


def _legacy_probe_path(
    path_index: PathIndex,
    path_id: int,
    predicates: tuple[Predicate, ...],
    with_values: bool,
) -> list[_LegacyEntry]:
    table = path_index._table
    equality = [p for p in predicates if p.op == "="]
    if equality:
        literal = equality[0].literal
        row = table.get((path_id, atom_key(literal)))
        if row is None:
            return []
        value = literal
        if not all(p.matches(value) for p in predicates):
            return []
        return [
            _LegacyEntry(packed, path_id, value if with_values else None, length)
            for packed, length in row
        ]
    entries: list[_LegacyEntry] = []
    for key, row in table.prefix_range((path_id,)):
        kind = key[1][0]
        value = None if kind == 0 else key[1][-1]
        if predicates and not all(p.matches(value) for p in predicates):
            continue
        keep_value = value if with_values else None
        entries.extend(
            _LegacyEntry(packed, path_id, keep_value, length)
            for packed, length in row
        )
    return entries


def _legacy_lookup_ids(
    path_index: PathIndex,
    pattern,
    predicates=(),
    with_values: bool = False,
) -> list[_LegacyEntry]:
    predicates = tuple(predicates)
    merged: list[_LegacyEntry] = []
    for path_id in path_index.expand_pattern(pattern):
        merged.extend(
            _legacy_probe_path(path_index, path_id, predicates, with_values)
        )
    merged.sort(key=lambda entry: entry.key)
    return merged


def legacy_prepare_path_lists(
    qpt: QPT, path_index: PathIndex
) -> dict[int, list[_LegacyEntry]]:
    """One independent probe (pattern expansion + descents) per QPT node."""
    path_lists: dict[int, list[_LegacyEntry]] = {}
    for node in qpt.probed_nodes():
        path_lists[node.index] = _legacy_lookup_ids(
            path_index,
            qpt.pattern(node),
            predicates=node.predicates,
            with_values=node.v_ann,
        )
    return path_lists


# -- the old merge pass --------------------------------------------------------


class _LegacyItem:
    __slots__ = ("qnode", "owner", "dm_missing", "parents", "pending",
                 "candidate", "in_pdt")

    def __init__(self, qnode: QPTNode, owner: "_LegacyOpenElement"):
        self.qnode = qnode
        self.owner = owner
        self.dm_missing = {
            edge.child.index for edge in qnode.mandatory_child_edges()
        }
        self.parents: list[_LegacyItem] = []
        self.pending: list[_LegacyItem] = []
        self.candidate = False
        self.in_pdt = False


class _LegacyOpenElement:
    __slots__ = ("key", "depth", "items", "value", "byte_length")

    def __init__(self, key: bytes, depth: int):
        self.key = key
        self.depth = depth
        self.items: list[_LegacyItem] = []
        self.value: Optional[str] = None
        self.byte_length: Optional[int] = None


class _LegacyPDTBuilder:
    """The pre-overhaul merge loop: heapq over per-entry tuple streams."""

    def __init__(
        self,
        qpt: QPT,
        path_lists: dict[int, list[_LegacyEntry]],
        path_index: PathIndex,
    ):
        self._qpt = qpt
        self._path_lists = path_lists
        self._probed = frozenset(path_lists)
        self._path_index = path_index
        self._stack: list[_LegacyOpenElement] = []
        self._records: dict[bytes, PDTRecord] = {}

    def run(self) -> dict[bytes, PDTRecord]:
        def stream(node_index, path_list):
            for entry in path_list:
                yield (entry.key, node_index, entry)

        merged = heapq.merge(
            *(
                stream(node_index, path_list)
                for node_index, path_list in self._path_lists.items()
            )
        )
        group_key: Optional[bytes] = None
        group: list[tuple[int, object]] = []
        for key, node_index, entry in merged:
            if key != group_key:
                if group_key is not None:
                    self._process_group(group_key, group)
                group_key = key
                group = []
            group.append((node_index, entry))
        if group_key is not None:
            self._process_group(group_key, group)
        while self._stack:
            self._close(self._stack.pop())
        return self._records

    def _process_group(self, key: bytes, group: list) -> None:
        while self._stack and not key.startswith(self._stack[-1].key):
            self._close(self._stack.pop())
        direct: dict[int, object] = {
            node_index: entry for node_index, entry in group
        }
        any_entry = group[0][1]
        data_path = self._path_index.path_by_id(any_entry.path_id)
        prefix_ends = packed_prefix_ends(key)
        total_depth = len(prefix_ends)
        open_depth = self._stack[-1].depth if self._stack else 0
        for depth in range(open_depth + 1, total_depth + 1):
            prefix_tags = data_path[:depth]
            matches = self._qpt.match_table(prefix_tags)[depth - 1]
            if not matches:
                continue
            element = _LegacyOpenElement(key[: prefix_ends[depth - 1]], depth)
            is_self = depth == total_depth
            for qnode in matches:
                if qnode.index in self._probed and (
                    not is_self or qnode.index not in direct
                ):
                    continue
                item = _LegacyItem(qnode, element)
                if not self._attach_parents(item, element):
                    continue
                element.items.append(item)
            if is_self:
                for node_index, entry in group:
                    if entry.value is not None:
                        element.value = entry.value
                    element.byte_length = entry.byte_length
            if element.items:
                self._stack.append(element)
                for item in element.items:
                    if not item.dm_missing:
                        self._mark_candidate(item)

    def _attach_parents(
        self, item: _LegacyItem, element: _LegacyOpenElement
    ) -> bool:
        edge = item.qnode.parent_edge
        assert edge is not None
        if edge.parent is self._qpt.root:
            return edge.axis == "//" or element.depth == 1
        want_exact = element.depth - 1 if edge.axis == "/" else None
        for ancestor in self._stack:
            if want_exact is not None and ancestor.depth != want_exact:
                continue
            for candidate in ancestor.items:
                if candidate.qnode is edge.parent:
                    item.parents.append(candidate)
        return bool(item.parents)

    def _mark_candidate(self, item: _LegacyItem) -> None:
        if item.candidate:
            return
        item.candidate = True
        child_index = item.qnode.index
        for parent in item.parents:
            missing = parent.dm_missing
            if child_index in missing:
                missing.discard(child_index)
                if not missing:
                    self._mark_candidate(parent)
        if item.qnode.parent_edge.parent is self._qpt.root or any(
            parent.in_pdt for parent in item.parents
        ):
            self._set_in_pdt(item)

    def _set_in_pdt(self, item: _LegacyItem) -> None:
        if item.in_pdt:
            return
        item.in_pdt = True
        self._emit(item)
        for waiter in item.pending:
            if waiter.candidate and not waiter.in_pdt:
                self._set_in_pdt(waiter)
        item.pending = []

    def _close(self, element: _LegacyOpenElement) -> None:
        for item in element.items:
            if not item.candidate or item.in_pdt:
                continue
            if item.qnode.parent_edge.parent is self._qpt.root or any(
                parent.in_pdt for parent in item.parents
            ):
                self._set_in_pdt(item)
                continue
            for parent in item.parents:
                parent.pending.append(item)

    def _emit(self, item: _LegacyItem) -> None:
        element = item.owner
        record = self._records.get(element.key)
        if record is None:
            record = PDTRecord(
                key=element.key,
                tag=item.qnode.tag,
                value=element.value,
                byte_length=element.byte_length or 0,
            )
            self._records[element.key] = record
        if item.qnode.v_ann or item.qnode.predicates:
            record.wants_value = True
        if item.qnode.c_ann:
            record.wants_content = True


# -- the old finalization ------------------------------------------------------


@dataclass(frozen=True)
class LegacySkeleton:
    """What the old finalization computed: the eager record graph."""

    doc_name: str
    records: dict[bytes, PDTRecord]
    ordered: tuple[bytes, ...]
    entry_count: int
    dewey_ids: tuple[DeweyID, ...]
    parents: tuple[int, ...]
    slots: tuple[Optional[int], ...]
    content_count: int
    bounds: tuple[bytes, ...]
    slot_bounds: tuple[tuple[int, int], ...]
    tree: XMLNode

    @property
    def node_count(self) -> int:
        return len(self.records)


def legacy_from_records(
    doc_name: str, records: dict[bytes, PDTRecord], entry_count: int
) -> LegacySkeleton:
    """The pre-overhaul ``PDTSkeleton.from_records``: validated DeweyID
    construction per record, per-record dict lookups, and the original
    tree-assembly loop."""
    ordered = tuple(sorted(records))
    dewey_ids: list[DeweyID] = []
    parents: list[int] = []
    slots: list[Optional[int]] = []
    bound_keys: set[bytes] = set()
    content_ranges: list[tuple[bytes, bytes]] = []
    stack: list[int] = []
    for position, key in enumerate(ordered):
        dewey_ids.append(DeweyID(unpack(key)))
        while stack and not key.startswith(ordered[stack[-1]]):
            stack.pop()
        parents.append(stack[-1] if stack else -1)
        stack.append(position)
        if records[key].wants_content:
            slots.append(len(content_ranges))
            upper = packed_child_bound(key)
            content_ranges.append((key, upper))
            bound_keys.add(key)
            bound_keys.add(upper)
        else:
            slots.append(None)
    bounds = tuple(sorted(bound_keys))
    bound_index = {bound: i for i, bound in enumerate(bounds)}
    slot_bounds = tuple(
        (bound_index[low], bound_index[high]) for low, high in content_ranges
    )
    tree = _legacy_build_tree(doc_name, records, ordered, dewey_ids, parents, slots)
    return LegacySkeleton(
        doc_name=doc_name,
        records=records,
        ordered=ordered,
        entry_count=entry_count,
        dewey_ids=tuple(dewey_ids),
        parents=tuple(parents),
        slots=tuple(slots),
        content_count=len(content_ranges),
        bounds=bounds,
        slot_bounds=slot_bounds,
        tree=tree,
    )


def _legacy_build_tree(
    doc_name: str,
    records: dict[bytes, PDTRecord],
    ordered: tuple[bytes, ...],
    dewey_ids: list[DeweyID],
    parents: list[int],
    slots: list[Optional[int]],
) -> XMLNode:
    if not records:
        return XMLNode(EMPTY_TAG)
    nodes: list[XMLNode] = []
    top_level: list[XMLNode] = []
    for position, key in enumerate(ordered):
        record = records[key]
        node = XMLNode(record.tag)
        if record.wants_value and record.value is not None:
            node.text = record.value
        anno = NodeAnnotations(
            dewey=dewey_ids[position], byte_length=record.byte_length
        )
        anno.pruned = record.wants_content
        anno.doc = doc_name
        anno.slot = slots[position]
        node.anno = anno
        nodes.append(node)
        parent = parents[position]
        if parent >= 0:
            nodes[parent].append(node)
        else:
            top_level.append(node)
    if len(top_level) == 1 and dewey_ids[0].depth == 1:
        return top_level[0]
    root = XMLNode(FRAGMENT_TAG)
    for node in top_level:
        root.append(node)
    return root


def legacy_build_skeleton(qpt: QPT, path_index: PathIndex) -> LegacySkeleton:
    """The complete pre-overhaul cold build: per-pattern probes, the
    tuple-stream heap merge, and the original finalization."""
    path_lists = legacy_prepare_path_lists(qpt, path_index)
    records = _LegacyPDTBuilder(qpt, path_lists, path_index).run()
    return legacy_from_records(
        doc_name=qpt.doc_name,
        records=records,
        entry_count=sum(len(lst) for lst in path_lists.values()),
    )
