"""GeneratePDT as the paper writes it: the single-pass stack automaton.

Section 4.2.2 (and the generalized Appendix E version) drives a Candidate
Tree through repeated ``MinIDPath`` maintenance; this module implements
the identical computation with the equivalent *stack* discipline over the
k-way merge of the id lists:

* ids are consumed in Dewey (document) order, so the open Dewey prefixes of
  the current id form a stack; a prefix is *closed* (popped) exactly when
  no further descendants can arrive — the point at which the paper removes
  a CT node and its DescendantMap is final;
* each open prefix holds one item per matching QPT node (the CTQNodeSet of
  Appendix E, needed for repeating tags such as ``//a//a``), each with its
  own DescendantMap (DM), ParentList (PL) and InPdt flag;
* an item that satisfies its descendant constraints reports to its PL
  (paper: AddCTNode lines 15-16); if additionally a parent item is already
  InPdt (or the item is anchored at the document node) it is emitted
  immediately (the InPdt fast path of Section 4.2.2.1); otherwise, when its
  element closes, it registers with its still-open parents — this register
  list *is* the PdtCache: descendants that satisfy descendant constraints
  whose ancestor constraints are still unresolved;
* when a parent item becomes InPdt it cascades through its pending
  registrations; when it closes without becoming a candidate the
  registrations are dropped, exactly like pdt-cache entries whose parent
  lists empty out (CreatePDTNodes line 26).

The query pipeline does not run this: :func:`repro.core.pdt.build_skeleton`
computes the same records with an array sweep over the packed-key columns.
The automaton is kept, beside the paper's other comparison systems, for
two jobs:

* the Section 4.2.2.1 ablation — the InPdt fast path on and off (its
  last timing is recorded in EXPERIMENTS.md);
* a second, independently structured implementation of Definitions 1-3:
  ``tests/test_extensions.py::TestInPdtFastPathAblation`` and the
  reference sweep (``test_equivalence_every_view_shape`` /
  ``test_equivalence_random_scenarios``) hold both of its arms
  byte-identical (``to_bytes()``) to ``build_skeleton``.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.records import PDTRecord, from_records
from repro.core.prepare import prepare_path_lists
from repro.core.qpt import QPT, QPTNode
from repro.core.skeleton import PDTSkeleton
from repro.dewey import packed_prefix_ends
from repro.storage.path_index import PathIndex, PathList

#: Shared DescendantMap for items with no mandatory child edges (the
#: majority: every leaf).  Safe to share because the only mutation path
#: (``_mark_candidate``'s discard) is guarded by a membership test that an
#: empty set can never pass.
_EMPTY_DM: set = set()


class _Item:
    """One (element, QPT node) pair under consideration (a CTQNodeSet entry)."""

    __slots__ = ("qnode", "owner", "dm_missing", "parents", "pending",
                 "candidate", "in_pdt")

    def __init__(self, qnode: QPTNode, owner: "_OpenElement", dm_template):
        self.qnode = qnode
        self.owner = owner
        # DescendantMap, tracked as the set of mandatory child edges not
        # yet satisfied (all-ones DM == dm_missing empty).  The template
        # is precomputed once per merge pass, not rebuilt per element.
        self.dm_missing = set(dm_template) if dm_template else _EMPTY_DM
        self.parents: list[_Item] = []  # ParentList
        self.pending: list[_Item] = []  # PdtCache registrations
        self.candidate = False
        self.in_pdt = False


class _OpenElement:
    """An open Dewey prefix on the stack (a live CT node)."""

    __slots__ = ("key", "depth", "items", "value", "byte_length")

    def __init__(self, key: bytes, depth: int):
        self.key = key
        self.depth = depth
        self.items: list[_Item] = []
        self.value: Optional[str] = None
        self.byte_length: Optional[int] = None


class _PDTBuilder:
    """Runs the single merge pass and accumulates emitted records.

    This is the paper-shaped stack automaton (CTQNodeSets, DescendantMaps,
    ParentLists, the PdtCache) — kept as the ``inpdt_fast_path`` ablation
    vehicle and as a second, independently-structured implementation the
    equivalence tests can cross-check against the default
    :func:`repro.core.pdt.build_skeleton` array sweep (which writes
    columns; this automaton still emits records for ``from_records``).

    ``inpdt_fast_path`` toggles the Section 4.2.2.1 optimization: with it
    on, an item whose ancestor constraint is already established is
    emitted the moment it becomes a candidate; with it off, every
    candidate goes through the pdt-cache (pending) machinery and is
    resolved when ancestors close — same output, more cache traffic.
    """

    def __init__(
        self,
        qpt: QPT,
        path_lists: dict[int, PathList],
        path_index: PathIndex,
        inpdt_fast_path: bool = True,
    ):
        self._qpt = qpt
        self._path_lists = path_lists
        # A node is probed iff it has its own path list.
        self._probed = frozenset(path_lists)
        self._path_index = path_index
        self._inpdt_fast_path = inpdt_fast_path
        self._stack: list[_OpenElement] = []
        self._records: dict[bytes, PDTRecord] = {}
        # Per-pass precomputation: the DescendantMap template of every QPT
        # node (indexed by node.index) and, lazily, the *full-path* match
        # table per concrete path id.  ``match_table(path)[d-1]`` equals
        # ``match_table(path[:d])[d-1]`` — matching at depth d never looks
        # deeper — so one table per data path serves every prefix depth
        # with no per-group tuple slicing.
        self._dm_templates: list[tuple[int, ...]] = [
            tuple(edge.child.index for edge in node.mandatory_child_edges())
            for node in qpt.nodes
        ]
        self._tables: dict[int, list[list[QPTNode]]] = {}
        # Registry of the open items per QPT node index: ParentList
        # construction reads the parent node's open items directly
        # instead of rescanning every stack level's item list.  Stack
        # discipline keeps each per-node list LIFO, so closing an element
        # pops its items off the tails.
        self._open_by_qnode: dict[int, list[_Item]] = {
            node.index: [] for node in qpt.nodes
        }

    # -- main loop -----------------------------------------------------------

    def run(self) -> dict[bytes, PDTRecord]:
        # Flatten the per-node path lists into five parallel arrays and
        # argsort once by packed key: each list is already a sorted run,
        # so timsort's run detection does the k-way merge at C speed with
        # zero per-entry tuple or generator allocation (the packed-key
        # arrays the storage layer keeps are swept as-is).
        all_keys: list[bytes] = []
        all_nodes: list[int] = []
        all_paths: list[int] = []
        all_values: list[Optional[str]] = []
        all_lengths: list[int] = []
        for node_index, path_list in self._path_lists.items():
            count = len(path_list)
            if not count:
                continue
            all_keys += path_list.keys
            all_nodes += [node_index] * count
            all_paths += path_list.path_ids
            all_values += path_list.values
            all_lengths += path_list.byte_lengths
        total = len(all_keys)
        order = sorted(range(total), key=all_keys.__getitem__)
        position = 0
        while position < total:
            key = all_keys[order[position]]
            stop = position + 1
            while stop < total and all_keys[order[stop]] == key:
                stop += 1
            self._process_group(
                key, order, position, stop,
                all_nodes, all_paths, all_values, all_lengths,
            )
            position = stop
        while self._stack:
            self._close(self._stack.pop())
        return self._records

    def _table_for(self, path_id: int) -> list[list[QPTNode]]:
        table = self._tables.get(path_id)
        if table is None:
            table = self._qpt.match_table(self._path_index.path_by_id(path_id))
            self._tables[path_id] = table
        return table

    def _process_group(
        self,
        key: bytes,
        order: list[int],
        start: int,
        stop: int,
        all_nodes: list[int],
        all_paths: list[int],
        all_values: list[Optional[str]],
        all_lengths: list[int],
    ) -> None:
        # Close open elements that are not ancestors of the incoming id:
        # Dewey order guarantees they can receive no further descendants.
        # Byte-prefix containment == ancestry for packed keys.
        stack = self._stack
        while stack and not key.startswith(stack[-1].key):
            self._close(stack.pop())
        # The concrete data path of the incoming element names every
        # ancestor tag, so each prefix can be matched against the QPT.
        # Its length *is* the element's depth — the packed prefix ends
        # are only decoded when an ancestor prefix must actually open.
        table = self._table_for(all_paths[order[start]])
        total_depth = len(table)
        open_depth = stack[-1].depth if stack else 0
        probed = self._probed
        dm_templates = self._dm_templates
        open_by_qnode = self._open_by_qnode
        prefix_ends: Optional[list[int]] = None
        direct: Optional[set[int]] = None
        for depth in range(open_depth + 1, total_depth + 1):
            matches = table[depth - 1]
            if not matches:
                continue
            is_self = depth == total_depth
            if is_self:
                element = _OpenElement(key, depth)
                if direct is None:
                    direct = {all_nodes[order[p]] for p in range(start, stop)}
            else:
                if prefix_ends is None:
                    prefix_ends = packed_prefix_ends(key)
                element = _OpenElement(key[: prefix_ends[depth - 1]], depth)
            for qnode in matches:
                node_index = qnode.index
                if node_index in probed and (
                    not is_self or node_index not in direct
                ):
                    # A probed node's elements must be confirmed by a direct
                    # list entry (the list is complete and pre-filtered by
                    # the node's predicates); a pattern match alone means
                    # the predicate rejected this element.
                    continue
                item = _Item(qnode, element, dm_templates[node_index])
                if not self._attach_parents(item, element):
                    continue  # ancestor constraint is unsatisfiable
                element.items.append(item)
            if is_self:
                for p in range(start, stop):
                    index = order[p]
                    value = all_values[index]
                    if value is not None:
                        element.value = value
                    element.byte_length = all_lengths[index]
            if element.items:
                stack.append(element)
                for item in element.items:
                    open_by_qnode[item.qnode.index].append(item)
                    if not item.dm_missing:
                        self._mark_candidate(item)

    def _attach_parents(self, item: _Item, element: _OpenElement) -> bool:
        """Build the ParentList; returns False if no parent can exist."""
        edge = item.qnode.parent_edge
        assert edge is not None
        if edge.parent is self._qpt.root:
            # Anchored at the document node: '/' requires the document root
            # element, '//' any depth.  Ancestor constraint auto-satisfied.
            return edge.axis == "//" or element.depth == 1
        candidates = self._open_by_qnode[edge.parent.index]
        if not candidates:
            return False
        if edge.axis == "/":
            want_exact = element.depth - 1
            item.parents = [
                candidate
                for candidate in candidates
                if candidate.owner.depth == want_exact
            ]
        else:
            item.parents = candidates[:]
        return bool(item.parents)

    # -- constraint propagation -------------------------------------------------

    def _mark_candidate(self, item: _Item) -> None:
        """Item satisfies its descendant constraints (DM all ones)."""
        if item.candidate:
            return
        item.candidate = True
        # Report to the ParentList (AddCTNode lines 15-16).
        child_index = item.qnode.index
        for parent in item.parents:
            missing = parent.dm_missing
            if child_index in missing:
                missing.discard(child_index)
                if not missing:
                    self._mark_candidate(parent)
        # InPdt fast path: ancestor constraint already established.
        if self._inpdt_fast_path:
            if item.qnode.parent_edge.parent is self._qpt.root:
                self._set_in_pdt(item)
                return
            for parent in item.parents:
                if parent.in_pdt:
                    self._set_in_pdt(item)
                    return

    def _set_in_pdt(self, item: _Item) -> None:
        if item.in_pdt:
            return
        item.in_pdt = True
        self._emit(item)
        # Cascade through the pdt-cache registrations.
        for waiter in item.pending:
            if waiter.candidate and not waiter.in_pdt:
                self._set_in_pdt(waiter)
        item.pending = []

    def _close(self, element: _OpenElement) -> None:
        """All descendants of ``element`` have been processed."""
        root = self._qpt.root
        open_by_qnode = self._open_by_qnode
        for item in element.items:
            # Stack discipline makes this item the tail of its node's
            # open-item registry: everything registered after it closed
            # first.
            open_by_qnode[item.qnode.index].pop()
            if not item.candidate or item.in_pdt:
                continue
            if item.qnode.parent_edge.parent is root:
                self._set_in_pdt(item)
                continue
            satisfied = False
            for parent in item.parents:
                if parent.in_pdt:
                    satisfied = True
                    break
            if satisfied:
                self._set_in_pdt(item)
                continue
            # Defer the ancestor check: register with every still-open
            # parent (the element's ancestors are exactly the open stack,
            # so all parents are alive here).  This is the PdtCache.
            for parent in item.parents:
                parent.pending.append(item)

    # -- emission -----------------------------------------------------------------

    def _emit(self, item: _Item) -> None:
        element = item.owner
        record = self._records.get(element.key)
        if record is None:
            tag = self._tag_of(item)
            record = PDTRecord(
                key=element.key,
                tag=tag,
                value=element.value,
                byte_length=element.byte_length or 0,
            )
            self._records[element.key] = record
        if item.qnode.v_ann or item.qnode.predicates:
            record.wants_value = True
        if item.qnode.c_ann:
            record.wants_content = True

    def _tag_of(self, item: _Item) -> str:
        return item.qnode.tag


def build_skeleton_stack(
    qpt: QPT, path_index: PathIndex, inpdt_fast_path: bool = True
) -> PDTSkeleton:
    """:func:`repro.core.pdt.build_skeleton` through the automaton: the
    same probes, the stack pass (``inpdt_fast_path`` is the builder's),
    its records finalized by :func:`~repro.baselines.records.from_records`."""
    path_lists = prepare_path_lists(qpt, path_index)
    return from_records(
        doc_name=qpt.doc_name,
        records=_PDTBuilder(
            qpt, path_lists, path_index, inpdt_fast_path
        ).run(),
        entry_count=sum(len(lst) for lst in path_lists.values()),
    )
