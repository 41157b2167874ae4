"""The write path: what a sub-document edit leaves valid in the cache
tiers and the snapshot store (view maintenance under updates, as in Liu
et al.'s *Update XML Views*).  Each function takes the cache, store,
database and views it acts on; the engine's database hooks call them.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.cache import QueryCache
from repro.core.outcome import View
from repro.core.qpt import QPT
from repro.core.skeleton import PDTSkeleton, patch_skeleton_byte_lengths
from repro.core.snapshot import SkeletonStore
from repro.storage.database import XMLDatabase
from repro.storage.update import DocumentDelta


def delta_patchable(qpt: QPT, delta: DocumentDelta) -> bool:
    """Can this view's skeletons survive the edit with a byte-length
    patch alone?

    Yes iff *no* removed or added element matches a QPT node anywhere
    along its full root-to-element path: then the edit cannot change
    which elements the structural pass emits (a removed element that
    influenced the skeleton only through a probed descendant would
    have that descendant — also removed — fail this check), so the
    record set, tree shape, values and entry count are all identical
    to a rebuild, and only the edit point's ancestor byte lengths
    moved.  Patchability is a function of the QPT's structure and the
    delta's paths only — two views with equal content hashes always
    agree, which is what lets snapshots be forwarded per hash.
    """
    for path in delta.removed_paths + delta.added_paths:
        if qpt.match_table(path)[len(path) - 1]:
            return False
    return True


def apply_delta(
    cache: QueryCache,
    store: Optional[SkeletonStore],
    database: XMLDatabase,
    views: Iterable[View],
    delta: DocumentDelta,
) -> list[View]:
    """A sub-document update was applied; returns the views reading the
    document, for the caller to re-warm.

    The write path that replaces the invalidation storm: classify
    each view reading the document as patchable or not,
    migrate + patch the patchable skeleton-tier entries (and forward
    their snapshots to the new fingerprint), migrate the patchable
    views' evaluated entries (their plans read byte lengths from
    whichever skeleton serves the next query), and drop everything else
    derived from the document.
    """
    doc_name = delta.doc_name
    affected: list[View] = []
    patched_views: set[str] = set()
    for view in views:
        qpt = view.qpts.get(doc_name)
        if qpt is None:
            continue
        affected.append(view)
        if delta_patchable(qpt, delta):
            patched_views.add(view.name)
    moved, _ = cache.apply_document_delta(
        doc_name,
        delta.old_generation,
        delta.new_generation,
        patched_views,
    )
    patched_by_hash: dict[str, PDTSkeleton] = {}
    seen: set[int] = set()
    for key, skeleton in moved:
        if id(skeleton) not in seen:
            seen.add(id(skeleton))
            patch_skeleton_byte_lengths(
                skeleton, delta.ancestor_keys, delta.length_delta
            )
        patched_by_hash[key[3]] = skeleton
    _forward_snapshots(
        store, database, delta, affected, patched_views, patched_by_hash
    )
    return affected


def _forward_snapshots(
    store: Optional[SkeletonStore],
    database: XMLDatabase,
    delta: DocumentDelta,
    affected: list[View],
    patched_views: set[str],
    patched_by_hash: dict[str, PDTSkeleton],
) -> None:
    """Version the persistent tier forward across an update.

    For each affected QPT content hash: a patchable view's snapshot
    is re-written under the document's *new* fingerprint (patched in
    memory when the skeleton tier had it, else loaded from the old
    snapshot and patched), and the old-fingerprint snapshot is
    discarded — it is unaddressable by construction, so this only
    reclaims the disk instead of orphaning the file.
    """
    if store is None or delta.old_fingerprint is None:
        return
    if delta.doc_name not in database:
        return
    new_fingerprint = database.get(delta.doc_name).fingerprint
    handled: set[str] = set()
    for view in affected:
        qpt_hash = view.qpts[delta.doc_name].content_hash
        if qpt_hash in handled:
            continue
        handled.add(qpt_hash)
        if view.name in patched_views:
            skeleton = patched_by_hash.get(qpt_hash)
            if skeleton is None:
                skeleton = restore_skeleton(
                    store, delta.old_fingerprint, qpt_hash, delta.doc_name
                )
                if skeleton is not None:
                    patch_skeleton_byte_lengths(
                        skeleton, delta.ancestor_keys, delta.length_delta
                    )
            if skeleton is not None:
                store.save(new_fingerprint, qpt_hash, skeleton)
        store.discard(delta.old_fingerprint, qpt_hash)


def restore_skeleton(
    store: SkeletonStore, fingerprint: str, qpt_hash: str, doc_name: str
) -> Optional[PDTSkeleton]:
    """A stored skeleton an engine may serve — or ``None``: build it.

    The store has decoded and validated it.  A mismatched
    ``doc_name`` would mean a digest collision or a store shared
    across differently-named loads of the same content — never
    served blind.
    """
    restored = store.load(fingerprint, qpt_hash)
    if restored is None or restored.doc_name != doc_name:
        return None
    return restored


def live_snapshots(
    store: SkeletonStore, database: XMLDatabase, views: Iterable[View]
) -> set[str]:
    """The store entries some ``(document, view)`` pair can restore:
    every ``(fingerprint, qpt hash)`` coordinate reachable from
    ``views`` and the documents currently in the database.  Anything
    else in the store — older fingerprints, dropped views, other
    engines' leftovers — is unaddressable and only holds disk.
    """
    keep: set[str] = set()
    for view in views:
        for doc_name, qpt in view.qpts.items():
            if doc_name not in database:
                continue
            fingerprint = database.get(doc_name).fingerprint
            keep.add(store.entry_name(fingerprint, qpt.content_hash))
    return keep
