"""The XML database: named documents plus their indices.

``XMLDatabase`` is the substrate both evaluation strategies run on: the
Efficient pipeline consumes only the path and inverted indices until top-k
materialization; the Baseline evaluates directly over the stored trees.
Keeping both behind one object makes the comparison the paper makes — same
storage, different evaluation path.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from repro.dewey import DeweyID
from repro.errors import DocumentNotFoundError, StorageError
from repro.storage.columns import document_columns
from repro.storage.document_store import DocumentStore
from repro.storage.inverted_index import InvertedIndex
from repro.storage.path_index import PathIndex
from repro.storage.tag_index import TagIndex
from repro.storage.update import DocumentDelta, execute_subtree_update
from repro.xmlmodel.node import Document, XMLNode
from repro.xmlmodel.parser import parse_xml


@dataclass
class IndexedDocument:
    """One loaded document with its storage and indices.

    ``generation`` is a database-wide counter stamped at load time: two
    loads of the same name never share it.  Cache keys embed it, which
    makes entries *self-invalidating* across document reloads — a cache
    write that raced with a reload is keyed by the dead generation and
    can never be served again (the invalidation hooks then only reclaim
    memory eagerly; correctness never depends on their timing).
    """

    document: Document
    store: DocumentStore
    path_index: PathIndex
    inverted_index: InvertedIndex
    generation: int = 0
    _tag_index: Optional[TagIndex] = None
    _serialized: Optional[str] = None

    @property
    def name(self) -> str:
        return self.document.name

    @property
    def root(self) -> XMLNode:
        return self.document.root

    @property
    def tag_index(self) -> TagIndex:
        """Built lazily: only the GTP baseline needs it."""
        if self._tag_index is None:
            self._tag_index = TagIndex.from_tree(self.document.root)
        return self._tag_index

    @property
    def serialized(self) -> str:
        """The canonical serialized document (cached).

        This stands in for the on-disk XML file; the Proj baseline scans
        it (parse + project), which is what "full scan of the underlying
        documents" costs.
        """
        if self._serialized is None:
            from repro.xmlmodel.serializer import serialize

            self._serialized = serialize(self.document.root)
        return self._serialized

    @property
    def fingerprint(self) -> str:
        """Content digest of the labelled document (see
        :meth:`~repro.storage.document_store.DocumentStore.fingerprint`,
        which owns the sum because it owns the records).

        Unlike ``generation`` — a process-local counter — the
        fingerprint is stable across processes and across reloads of
        identical labelled content, and changes with *any* change of a
        tag, a text or a Dewey label.  The persistent skeleton store
        keys on it, which is the whole invalidation story: a regenerated
        document can never address a stale snapshot.  Computed lazily;
        only snapshot paths pay the first pass, and a sub-document edit
        then maintains it from the records it touched.
        """
        return self.store.fingerprint()


def index_document(
    name: str,
    source: Union[str, XMLNode, Document],
    *,
    generation: int = 0,
) -> IndexedDocument:
    """Parse (if needed), Dewey-label and index one document — no database.

    This is the pure, shared-nothing heart of :meth:`XMLDatabase.load_document`:
    it touches no shared state, so a bulk-ingestion pipeline can index
    documents before it knows their shards and
    :meth:`XMLDatabase.attach_document` the results under each target
    shard's own generation counter.
    """
    if isinstance(source, Document):
        root, label = source.root, source.root.dewey is None
    elif isinstance(source, XMLNode):
        root, label = source, True
    else:
        root, label = parse_xml(source), True
    # One walk labels the tree (unless it arrives labelled: a reloaded
    # document keeps its ordinal holes) and yields every index's columns.
    columns = document_columns(root, label=label)
    return IndexedDocument(
        document=Document(name, root, assign_ids=False),
        store=DocumentStore.from_columns(columns),
        path_index=PathIndex.from_columns(columns),
        inverted_index=InvertedIndex.from_columns(columns),
        generation=generation,
    )


class XMLDatabase:
    """A set of indexed XML documents addressable by name (``fn:doc``)."""

    def __init__(self):
        self._documents: dict[str, IndexedDocument] = {}
        # itertools.count: atomic under the GIL, so concurrent loads can
        # never stamp two documents with the same generation.
        self._generations = itertools.count(1)
        # Each entry is a zero-arg resolver returning the live callable or
        # ``None`` once its owner is gone.  Invalidation hooks fire on
        # load/drop (document identity changed: derived state is garbage);
        # update hooks fire on sub-document edits with the typed delta
        # (derived state is *patchable*) — a separate channel, so an edit
        # never triggers the invalidation storm it exists to avoid.
        self._invalidation_hooks: list[Callable[[], Optional[Callable[[str], None]]]] = []
        self._update_hooks: list[
            Callable[[], Optional[Callable[[DocumentDelta], None]]]
        ] = []

    # -- invalidation / update hooks -----------------------------------------

    def add_invalidation_hook(self, hook: Callable[[str], None]) -> None:
        """Register a callback fired with the document name whenever a
        document is loaded or dropped.  Consumers (the engine's query
        cache, view registries) use this to discard derived state.

        Bound methods are held *weakly*: a database outlives the engines
        built on it (benchmark sweeps construct one engine per parameter
        point on a shared database), and registration must not pin dead
        engines and their caches.  Plain functions are held strongly.
        """
        self._add_hook("_invalidation_hooks", hook)

    def remove_invalidation_hook(self, hook: Callable[[str], None]) -> None:
        self._remove_hook("_invalidation_hooks", hook)

    def add_update_hook(self, hook: Callable[[DocumentDelta], None]) -> None:
        """Register a callback fired with the :class:`DocumentDelta` of
        every sub-document update.  Same ownership rules as
        :meth:`add_invalidation_hook` (bound methods weak, functions
        strong)."""
        self._add_hook("_update_hooks", hook)

    def remove_update_hook(self, hook: Callable[[DocumentDelta], None]) -> None:
        self._remove_hook("_update_hooks", hook)

    def _add_hook(self, attr: str, hook: Callable) -> None:
        if self._resolve_hooks_attr(attr, prune=False).count(hook):
            return
        try:
            entry = weakref.WeakMethod(hook)
        except TypeError:
            # Plain function or builtin method: hold strongly.
            entry = lambda hook=hook: hook  # noqa: E731
        getattr(self, attr).append(entry)

    def _remove_hook(self, attr: str, hook: Callable) -> None:
        # Dead weak entries resolve to None; drop them here too, or the
        # list grows without bound across engine churn (a collected bound
        # method compares unequal to every removal argument).
        setattr(
            self,
            attr,
            [
                entry
                for entry in getattr(self, attr)
                if entry() is not None and entry() != hook
            ],
        )

    def _resolve_hooks_attr(self, attr: str, prune: bool = True) -> list[Callable]:
        live: list[Callable] = []
        survivors = []
        for entry in getattr(self, attr):
            hook = entry()
            if hook is not None:
                live.append(hook)
                survivors.append(entry)
        if prune:
            setattr(self, attr, survivors)
        return live

    def _resolve_hooks(self, prune: bool = True) -> list[Callable[[str], None]]:
        return self._resolve_hooks_attr("_invalidation_hooks", prune)

    def _notify_invalidation(self, name: str) -> None:
        for hook in self._resolve_hooks():
            hook(name)

    def _notify_update(self, delta: DocumentDelta) -> None:
        for hook in self._resolve_hooks_attr("_update_hooks"):
            hook(delta)

    # -- loading -----------------------------------------------------------

    def load_document(
        self, name: str, source: Union[str, XMLNode, Document]
    ) -> IndexedDocument:
        """Parse (if needed), Dewey-label and index a document.

        ``source`` may be XML text, an unlabelled :class:`XMLNode` tree, or
        a pre-built :class:`Document`.  A supplied ``Document`` is never
        mutated: the database stores its own wrapper (sharing the labelled
        tree), so the caller's object keeps its original name.
        """
        if name in self._documents:
            raise StorageError(f"document already loaded: {name!r}")
        indexed = index_document(
            name, source, generation=next(self._generations)
        )
        self._documents[name] = indexed
        self._notify_invalidation(name)
        return indexed

    def attach_document(self, indexed: IndexedDocument) -> IndexedDocument:
        """Adopt an already-indexed document built elsewhere.

        The ingestion pipeline indexes documents off-database (via
        :func:`index_document`) and attaches each
        to its target shard's database; the sharded difftest harness
        attaches documents a single-engine case already indexed.  The
        immutable pieces — labelled tree, store, indices, cached
        serialization/fingerprint — are *shared* with the source, not
        copied, but the adopted record gets a fresh generation from
        **this** database's counter so its cache keys can never alias
        another database's.  (The index objects carry their probe
        counters with them; databases sharing a document share those
        diagnostics, which the differential harness exploits.)
        """
        name = indexed.name
        if name in self._documents:
            raise StorageError(f"document already loaded: {name!r}")
        adopted = IndexedDocument(
            document=indexed.document,
            store=indexed.store,
            path_index=indexed.path_index,
            inverted_index=indexed.inverted_index,
            generation=next(self._generations),
            _tag_index=indexed._tag_index,
            _serialized=indexed._serialized,
        )
        self._documents[name] = adopted
        self._notify_invalidation(name)
        return adopted

    # -- sub-document updates ------------------------------------------------

    def insert_subtree(
        self,
        name: str,
        parent: Union[DeweyID, str],
        payload: Union[str, XMLNode],
    ) -> DocumentDelta:
        """Append ``payload`` as the last child of the element ``parent``.

        The new subtree root gets the ordinal one past the parent's
        current last child (1 when childless); siblings are never
        renumbered.  Emits (and returns) the :class:`DocumentDelta` after
        patching the tree, the document store and both indices in place.
        """
        return self._apply_update(name, "insert", parent, payload)

    def delete_subtree(self, name: str, target: Union[DeweyID, str]) -> DocumentDelta:
        """Remove the subtree rooted at ``target`` (never the document
        root), leaving an ordinal hole — no sibling is renumbered."""
        return self._apply_update(name, "delete", target, None)

    def replace_subtree(
        self,
        name: str,
        target: Union[DeweyID, str],
        payload: Union[str, XMLNode],
    ) -> DocumentDelta:
        """Swap the subtree rooted at ``target`` for ``payload``; the new
        subtree root inherits the old root's Dewey ID."""
        return self._apply_update(name, "replace", target, payload)

    def _apply_update(
        self,
        name: str,
        kind: str,
        target: Union[DeweyID, str],
        payload: Optional[Union[str, XMLNode]],
    ) -> DocumentDelta:
        indexed = self.get(name)
        target_id = target if isinstance(target, DeweyID) else DeweyID.parse(target)
        new_root = self._payload_root(payload) if payload is not None else None
        old_generation = indexed.generation
        # The pre-edit digest is read from the cache only: a snapshot of
        # the old content can only exist if something already forced it,
        # and a document nobody fingerprinted is never hashed by an edit.
        old_fingerprint = (
            indexed.fingerprint
            if indexed.store.content_sum is not None
            else None
        )
        key, bound, ancestor_keys, removed_paths, added_paths, length_delta = (
            execute_subtree_update(indexed, kind, target_id, new_root)
        )
        indexed._serialized = None
        indexed._tag_index = None
        indexed.generation = next(self._generations)
        delta = DocumentDelta(
            doc_name=name,
            kind=kind,
            key=key,
            bound=bound,
            old_generation=old_generation,
            new_generation=indexed.generation,
            old_fingerprint=old_fingerprint,
            removed_paths=removed_paths,
            added_paths=added_paths,
            ancestor_keys=ancestor_keys,
            length_delta=length_delta,
        )
        self._notify_update(delta)
        return delta

    @staticmethod
    def _payload_root(payload: Union[str, XMLNode]) -> XMLNode:
        if isinstance(payload, XMLNode):
            if payload.parent is not None:
                raise StorageError("update payload must be a detached subtree")
            return payload
        return parse_xml(payload)

    def drop_document(self, name: str) -> None:
        if name not in self._documents:
            raise DocumentNotFoundError(name)
        del self._documents[name]
        self._notify_invalidation(name)

    # -- access ------------------------------------------------------------

    def get(self, name: str) -> IndexedDocument:
        indexed = self._documents.get(name)
        if indexed is None:
            raise DocumentNotFoundError(name)
        return indexed

    def __contains__(self, name: str) -> bool:
        return name in self._documents

    def document_names(self) -> list[str]:
        return sorted(self._documents)

    def documents(self) -> Iterable[IndexedDocument]:
        return self._documents.values()

    # -- statistics ----------------------------------------------------------

    def statistics(self) -> dict[str, dict[str, int]]:
        """Per-document size statistics (elements, vocabulary, paths)."""
        stats: dict[str, dict[str, int]] = {}
        for name, indexed in self._documents.items():
            stats[name] = {
                "elements": len(indexed.store),
                "vocabulary": indexed.inverted_index.vocabulary_size(),
                "distinct_paths": len(indexed.path_index.data_paths),
            }
        return stats

    def reset_access_counters(self) -> None:
        """Zero every probe/access counter (used by tests and the harness)."""
        for indexed in self._documents.values():
            indexed.store.access_count = 0
            indexed.path_index.probe_count = 0
            indexed.inverted_index.probe_count = 0
            if indexed._tag_index is not None:
                indexed._tag_index.probe_count = 0
