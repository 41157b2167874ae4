"""Sub-document updates: subtree edits propagated as typed deltas.

A write used to be a whole-document reload: every derived structure for the
document died and the next query paid a full cold build.  The packed Dewey
encoding already makes any subtree the contiguous range
``[key, packed_child_bound(key))``, so an insert / delete / replace of a
subtree is range surgery on every Dewey-ordered array — the document store,
each affected posting list, and the touched path-index columns — plus a uniform
byte-length adjustment on the edit point's proper ancestors.

:func:`execute_subtree_update` performs that surgery in place on an
:class:`~repro.storage.database.IndexedDocument` and returns the raw edit
facts.  What it splices in and out comes from the walk that loads a
document (:func:`~repro.storage.columns.document_columns`), run over the
payload and over the removed subtree: there is one definition of a
record, a row and a posting, so a patched index cannot drift from a built
one.  :class:`DocumentDelta` is the typed record the database emits to its
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
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.dewey import DeweyID, packed_child_bound
from repro.errors import StorageError
from repro.storage.columns import document_columns
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.serializer import own_length

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


def execute_subtree_update(
    indexed: "IndexedDocument",
    kind: str,
    target_id: DeweyID,
    new_root: Optional[XMLNode],
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
        elif new_root is not None:
            raise StorageError("delete takes no payload")

    key = edit_id.packed
    bound = packed_child_bound(key)
    parent_path = tuple(parent.path_from_root())

    # The same walk that loads a document, over the removed subtree and
    # over the payload (labelling it from the edit point down).
    walk = partial(document_columns, root_id=edit_id, base_path=parent_path)
    removed, added = walk(removed_node, label=False), walk(new_root, label=True)

    own_before = own_length(parent.tag, parent.value, bool(parent.children))

    # Proper ancestors of the edit point, root first — every one of their
    # subtree byte lengths shifts by the same length_delta.
    ancestor_nodes = [parent, *parent.ancestors()]
    ancestor_nodes.reverse()
    ancestor_keys = tuple(node.dewey.packed for node in ancestor_nodes)

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
    # Besides the subtrees, the parent's own tags change form (<tag/> vs
    # <tag></tag>) when it gains its first or loses its last child.
    length_delta = (
        added.byte_length - removed.byte_length
        + own_length(parent.tag, parent.value, bool(parent.children)) - own_before
    )

    # -- store and indices ---------------------------------------------------
    indexed.store.apply_subtree_edit(
        key, bound, added, ancestor_keys, length_delta
    )
    indexed.inverted_index.apply_subtree_edit(key, bound, removed, added)
    indexed.path_index.apply_subtree_edit(
        key,
        bound,
        removed,
        added,
        [
            (parent_path[: depth + 1], packed)
            for depth, packed in enumerate(ancestor_keys)
        ],
        length_delta,
    )

    return (
        key, bound, ancestor_keys, tuple(removed.paths), tuple(added.paths),
        length_delta,
    )
