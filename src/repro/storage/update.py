"""Sub-document updates: subtree edits propagated as typed deltas.

A write used to be a whole-document reload: every derived structure for the
document died and the next query paid a full cold build.  The packed Dewey
encoding already makes any subtree the contiguous range
``[key, packed_child_bound(key))``, so an insert / delete / replace of a
subtree is range surgery on every Dewey-ordered array — the document store,
each affected posting list, and the touched path-index rows — plus a uniform
byte-length adjustment on the edit point's proper ancestors.

:func:`execute_subtree_update` performs that surgery in place on an
:class:`~repro.storage.database.IndexedDocument` and returns the raw edit
facts; :class:`DocumentDelta` is the typed record the database emits to its
update hooks so the cache / engine / snapshot layers can patch rather than
rebuild ("Update XML Views", Liu et al., grounds when a view delta is
computable from a base delta).

Dewey stability: edits never renumber siblings.  A delete leaves an ordinal
hole; an insert appends as the parent's new last child (one past the current
last child's ordinal, which may reuse a freed ordinal — safe, because the
freed range was removed from every index first); a replace gives the new
subtree root the old root's Dewey ID.  Rebuilding a mutated document from
its live tree therefore reproduces the delta-maintained state bit for bit,
which is exactly what the ``mutations`` difftest configuration checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dewey import DeweyID, packed_child_bound
from repro.errors import StorageError
from repro.storage.inverted_index import Posting
from repro.xmlmodel.node import XMLNode, assign_dewey_ids
from repro.xmlmodel.serializer import serialized_length
from repro.xmlmodel.tokenizer import tokenize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import IndexedDocument

#: Valid edit kinds, in the order the public database API exposes them.
UPDATE_KINDS = ("insert", "delete", "replace")


@dataclass(frozen=True)
class DocumentDelta:
    """The typed record of one subtree edit, as emitted to update hooks.

    ``key``/``bound`` delimit the edited packed-key range
    (``[key, packed_child_bound(key))`` of the edit point).
    ``old_generation``/``new_generation`` bracket the edit so caches can
    migrate surviving entries; ``old_fingerprint`` addresses the snapshot
    written before the edit (``None`` when no snapshot path ever forced
    the digest).  ``removed_paths``/``added_paths`` are the full
    root-to-element tag paths of every element removed/added — the facts
    the engine's patchability rule consumes — and ``ancestor_keys`` are
    the packed keys of the edit point's proper ancestors (root first)
    whose subtree byte lengths shifted by ``length_delta``.
    """

    doc_name: str
    kind: str
    key: bytes
    bound: bytes
    old_generation: int
    new_generation: int
    old_fingerprint: Optional[str]
    removed_paths: tuple[tuple[str, ...], ...]
    added_paths: tuple[tuple[str, ...], ...]
    ancestor_keys: tuple[bytes, ...]
    length_delta: int

    @property
    def edit_id(self) -> DeweyID:
        """The Dewey ID of the edit point (decoded view of ``key``)."""
        return DeweyID.from_packed(self.key)


def subtree_with_paths(
    root: XMLNode, base_path: tuple[str, ...]
) -> list[tuple[XMLNode, tuple[str, ...]]]:
    """Pre-order (node, root-to-node tag path) pairs for a subtree.

    Pre-order is document order, so the nodes come out sorted by packed
    Dewey key — the order every range splice expects.
    """
    out: list[tuple[XMLNode, tuple[str, ...]]] = []
    stack: list[tuple[XMLNode, tuple[str, ...]]] = [(root, base_path)]
    while stack:
        node, path = stack.pop()
        out.append((node, path))
        for child in reversed(node.children):
            stack.append((child, path + (child.tag,)))
    return out


def _node_tokens(node: XMLNode, index_tag_names: bool) -> list[str]:
    """The tokens an element contributes, mirroring ``InvertedIndex.from_tree``."""
    tokens: list[str] = []
    if index_tag_names:
        tokens.extend(tokenize(node.tag))
    if node.text:
        tokens.extend(tokenize(node.text))
    return tokens


def subtree_postings(
    nodes: list[XMLNode], *, index_tag_names: bool, store_positions: bool
) -> dict[str, list[Posting]]:
    """Per-keyword postings for Dewey-labelled nodes (pre-order input).

    Token positions are node-local (the same ``enumerate`` the full build
    uses), so postings built here splice into existing lists unchanged.
    """
    accumulator: dict[str, list[Posting]] = {}
    for node in nodes:
        tokens = _node_tokens(node, index_tag_names)
        if not tokens:
            continue
        counts: dict[str, int] = {}
        positions: dict[str, list[int]] = {}
        for position, token in enumerate(tokens):
            counts[token] = counts.get(token, 0) + 1
            if store_positions:
                positions.setdefault(token, []).append(position)
        for token, tf in counts.items():
            accumulator.setdefault(token, []).append(
                Posting(
                    dewey=node.dewey.components,
                    tf=tf,
                    positions=tuple(positions.get(token, ())),
                )
            )
    return accumulator


def execute_subtree_update(
    indexed: "IndexedDocument",
    kind: str,
    target_id: DeweyID,
    new_root: Optional[XMLNode],
    *,
    index_tag_names: bool,
) -> tuple[
    bytes,
    bytes,
    tuple[bytes, ...],
    tuple[tuple[str, ...], ...],
    tuple[tuple[str, ...], ...],
    int,
]:
    """Apply one subtree edit to a document's tree, store and indices.

    For ``insert`` the target is the *parent* under which the payload is
    appended; for ``delete``/``replace`` it is the subtree root itself
    (never the document root — that is a reload, not an edit).  Returns
    ``(key, bound, ancestor_keys, removed_paths, added_paths,
    length_delta)`` for the caller to wrap into a :class:`DocumentDelta`.
    """
    if kind not in UPDATE_KINDS:
        raise StorageError(f"unknown update kind: {kind!r}")
    document = indexed.document
    target = document.node_by_dewey(target_id)
    if target is None:
        raise StorageError(
            f"no element with id {target_id} in {document.name!r}"
        )

    if kind == "insert":
        if new_root is None:
            raise StorageError("insert requires a payload subtree")
        parent = target
        if parent.children:
            ordinal = parent.children[-1].dewey.components[-1] + 1
        else:
            ordinal = 1
        edit_id = parent.dewey.child(ordinal)
        assign_dewey_ids(new_root, root_id=edit_id)
        removed_node = None
    else:
        if target.parent is None:
            raise StorageError(
                f"cannot {kind} the document root of {document.name!r};"
                " reload the document instead"
            )
        parent = target.parent
        edit_id = target_id
        removed_node = target
        if kind == "replace":
            if new_root is None:
                raise StorageError("replace requires a payload subtree")
            assign_dewey_ids(new_root, root_id=edit_id)
        elif new_root is not None:
            raise StorageError("delete takes no payload")

    key = edit_id.packed
    bound = packed_child_bound(key)
    parent_path = tuple(parent.path_from_root())

    # Lengths and the parent's serialization overhead are computed against
    # the pre-surgery tree: an empty element (<tag/>) gaining its first
    # child grows by len(tag) + 2 (the <tag></tag> form), and the last
    # child leaving an otherwise-empty element shrinks it by the same.
    removed_len = serialized_length(removed_node) if removed_node is not None else 0
    added_len = serialized_length(new_root) if new_root is not None else 0
    overhead = 0
    if parent.value is None:
        if kind == "insert" and not parent.children:
            overhead = len(parent.tag) + 2
        elif kind == "delete" and len(parent.children) == 1:
            overhead = -(len(parent.tag) + 2)
    length_delta = added_len - removed_len + overhead

    removed_pairs = (
        subtree_with_paths(removed_node, parent_path + (removed_node.tag,))
        if removed_node is not None
        else []
    )
    # Proper ancestors of the edit point, root first — every one of their
    # subtree byte lengths shifts by the same length_delta.
    ancestor_nodes = [parent, *parent.ancestors()]
    ancestor_nodes.reverse()

    # -- tree surgery --------------------------------------------------------
    if kind == "insert":
        parent.append(new_root)
    elif kind == "delete":
        parent.children.remove(removed_node)
        removed_node.parent = None
    else:  # replace
        slot = parent.children.index(removed_node)
        parent.children[slot] = new_root
        new_root.parent = parent
        removed_node.parent = None

    added_pairs = (
        subtree_with_paths(new_root, parent_path + (new_root.tag,))
        if new_root is not None
        else []
    )
    added_info = [
        (node, path, node.dewey.packed, node.value, serialized_length(node))
        for node, path in added_pairs
    ]
    ancestor_keys = tuple(node.dewey.packed for node in ancestor_nodes)

    # -- document store ------------------------------------------------------
    indexed.store.apply_subtree_edit(
        key,
        bound,
        [(packed, node.tag, value, length) for node, _, packed, value, length in added_info],
        ancestor_keys,
        length_delta,
    )

    # -- inverted index ------------------------------------------------------
    removed_keywords: set[str] = set()
    for node, _ in removed_pairs:
        removed_keywords.update(_node_tokens(node, index_tag_names))
    added_postings = subtree_postings(
        [node for node, _ in added_pairs],
        index_tag_names=index_tag_names,
        store_positions=indexed.inverted_index.store_positions,
    )
    indexed.inverted_index.apply_subtree_edit(
        key, bound, removed_keywords, added_postings
    )

    # -- path index ----------------------------------------------------------
    indexed.path_index.apply_subtree_edit(
        key,
        bound,
        [(path, node.value, node.dewey.packed) for node, path in removed_pairs],
        [(path, value, packed, length) for _, path, packed, value, length in added_info],
        [
            (tuple(node.path_from_root()), node.value, node.dewey.packed)
            for node in ancestor_nodes
        ],
        length_delta,
    )

    removed_paths = tuple(dict.fromkeys(path for _, path in removed_pairs))
    added_paths = tuple(dict.fromkeys(path for _, path in added_pairs))
    return key, bound, ancestor_keys, removed_paths, added_paths, length_delta
