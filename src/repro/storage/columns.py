"""The one walk: a subtree as parallel document-order columns.

Loading a document and editing one are the same pass over different
roots: :func:`document_columns` visits every element of a subtree once,
in pre-order (= packed-key order), and emits what the document store,
the path index and the inverted index are made of — tag, packed Dewey
key, atomic value, interned root-to-element path, subtree byte length
and postings.  ``index_document`` runs it over the document root,
``execute_subtree_update`` over the payload and the removed subtree; the
``from_columns`` constructors and the ``apply_subtree_edit`` methods
consume the same columns, so a built index and a patched one share one
definition of a record, a row and a posting.

Who owns which key objects: every index shares one.  When the walk
ends it allocates each element's packed key once, path by path, so a
path's key column is a run of neighbouring heap objects; the document
store keeps the ``keys`` column, and every path column and posting list
references the same objects rather than copying them.  The walked
nodes keep their own ``DeweyID.packed`` objects: handing those to the
indexes would save one more object per element, but first-contact
annotation would then stride the document-order heap (``keyword_sweep``
``annotate_skeleton`` ~160 -> ~195 us).
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple, Optional

from repro.dewey import DeweyID
from repro.errors import StorageError
from repro.xmlmodel.node import XMLNode, label_children
from repro.xmlmodel.serializer import own_length
from repro.xmlmodel.tokenizer import tokenize


class DocumentColumns(NamedTuple):
    """One subtree, element ``i`` of every column being the ``i``-th
    element in document order (``0`` is the walked root)."""

    tags: list[str]
    keys: list[bytes]
    values: list[Optional[str]]
    #: Canonical serialized length of each element's whole subtree.
    lengths: list[int]
    #: Every distinct root-to-element tag path once, in order of first
    #: appearance, and per path the column indices of its elements in
    #: document order.
    paths: list[tuple[str, ...]]
    path_rows: list[list[int]]
    #: keyword -> (column indices, tfs) of the elements directly
    #: containing it, in document order.
    postings: dict[str, tuple[list[int], list[int]]]

    @property
    def byte_length(self) -> int:
        """Serialized length of the whole walked subtree (0 for none)."""
        return self.lengths[0] if self.lengths else 0


def document_columns(
    root: Optional[XMLNode],
    *,
    label: bool,
    root_id: Optional[DeweyID] = None,
    base_path: tuple[str, ...] = (),
) -> DocumentColumns:
    """Walk the subtree at ``root`` once and return its columns (empty
    ones for ``None``: the payload of a delete, the removal of an insert).

    With ``label`` the walk assigns Dewey ids on the way down (``root``
    gets ``root_id``, default ``1``; children extend their parent's
    parts, see :func:`~repro.xmlmodel.node.label_children`); without it
    the tree keeps the labels it has — ordinal holes included — and an
    unlabelled element is a :class:`StorageError`.  ``base_path`` is the
    tag path of ``root``'s parent, for a subtree below the document root.
    """
    if root is None:
        return DocumentColumns([], [], [], [], [], [], {})
    if label:
        root.dewey = root_id if root_id is not None else DeweyID.root()
    tags: list[str] = []
    keys: list[bytes] = []
    values: list[Optional[str]] = []
    lengths: list[int] = []
    parents: list[int] = []
    path_ids: list[int] = []
    paths: list[tuple[str, ...]] = []
    path_rows: list[list[int]] = []
    # Interned per (parent path, tag): one dict of child tags per path.
    child_paths: list[dict[str, int]] = []
    postings: dict[str, tuple] = {}
    stack: list[tuple[XMLNode, int]] = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        if node.dewey is None:
            raise StorageError("indexing requires Dewey-labelled trees")
        index = len(tags)
        tag, value, children = node.tag, node.value, node.children
        if parent < 0:
            path_id = 0
            paths.append(base_path + (tag,))
            path_rows.append([])
            child_paths.append({})
        else:
            parent_path = path_ids[parent]
            path_id = child_paths[parent_path].get(tag)
            if path_id is None:
                path_id = child_paths[parent_path][tag] = len(paths)
                paths.append(paths[parent_path] + (tag,))
                path_rows.append([])
                child_paths.append({})
        tags.append(tag)
        keys.append(node.dewey.packed)
        values.append(value)
        # Own length on the way down; summed into the parents below.
        lengths.append(own_length(tag, value, bool(children)))
        parents.append(parent)
        path_ids.append(path_id)
        path_rows[path_id].append(index)

        if node.text:
            counts: dict[str, int] = {}
            for token in tokenize(node.text):
                counts[token] = counts.get(token, 0) + 1
            for token, tf in counts.items():
                rows, tfs = postings.get(token) or postings.setdefault(
                    token, ([], [])
                )
                rows.append(index)
                tfs.append(tf)
        if children:
            if label:
                label_children(node)
            stack.extend(zip(reversed(children), repeat(index)))
    for index in range(len(tags) - 1, 0, -1):
        lengths[parents[index]] += lengths[index]
    # The one key object per element every index shares, path by path
    # (``bytes(key)`` would hand back the node's own object).
    for rows in path_rows:
        for row in rows:
            keys[row] = bytes(memoryview(keys[row]))
    return DocumentColumns(tags, keys, values, lengths, paths, path_rows, postings)
