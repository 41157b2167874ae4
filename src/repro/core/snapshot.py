"""A file-backed persistent store for PDT skeletons.

The skeleton tier makes first-contact queries cheap *within* a process;
this store makes them cheap across processes and restarts.  A skeleton
is a pure function of ``(document content, QPT structure)``, so the
store keys each snapshot by two content digests:

* the **document fingerprint** — a sum of per-element digests over the
  labelled document
  (:attr:`repro.storage.database.IndexedDocument.fingerprint`), stable
  across loads of identical labelled content and different across any
  change of content or Dewey numbering; and
* the **QPT content hash**
  (:attr:`repro.core.qpt.QPT.content_hash`) — structure + axes +
  annotations, stable across processes.

Invalidation therefore needs no protocol: regenerating a document or
changing a view's structure changes a key component, and the old
snapshot simply can never be addressed again (``prune`` reclaims the
orphaned files; serving a stale result is impossible by construction).
The in-process cache tiers keep their ``(generation, qpt_hash)`` keys —
the store sits *behind* the skeleton tier, consulted only on a skeleton
miss and filled on every fresh build, so a restarted engine (or a
sibling process sharing the directory) loads structural work instead of
redoing path probes and the merge pass.

Writes are atomic (temp file + ``os.replace``) so concurrent readers
never observe a torn snapshot; corrupt or truncated payloads read back
as misses, never as data.

Two load paths exist.  The default **eager** path parses the payload
back into a full :class:`PDTSkeleton` on the spot.  With
``mmap_mode=True`` the store instead memory-maps v2 payloads and
returns a :class:`MappedSkeleton`: load time is an O(1) header
validation plus a page table entry, the column arrays stay on disk
until something actually dereferences them, and the first deep access
(annotation, compression) materializes the eager skeleton lazily.
Legacy v1 payloads fall back to the eager parse transparently.
"""

from __future__ import annotations

import mmap
import os
import tempfile
import threading
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.faults import FAULT_CORRUPT, FaultInjector
from repro.core.pdt import (
    PDTSkeleton,
    SkeletonLayout,
    _SKELETON_VERSION,
    patch_skeleton_byte_lengths,
    serialize_skeleton,
    skeleton_payload_version,
)
from repro.errors import InjectedFaultError

_SUFFIX = ".pdts"


class MappedSkeleton:
    """A zero-copy skeleton view over an mmap-ed v2 snapshot payload.

    Construction validates the offset-table header in O(1) — magic,
    version and the total-length equation over the section sizes — and
    decodes only the document name; the packed column arrays are left
    on disk for the OS to page in on demand.  The cheap identity facts
    an engine checks before admitting a snapshot (``doc_name``,
    ``entry_count``, ``node_count``) never touch the columns at all.

    Deep access (``tree``, ``bounds``, ``records``, annotation) routes
    through a lazily-materialized inner eager skeleton; column
    corruption beyond the header is therefore surfaced at first deep
    access (as ``ValueError``), not at load — the documented trade for
    page-in restores.  Delta patches materialize too, and flip the
    instance to re-encode on ``to_bytes`` so patched state round-trips.
    """

    __slots__ = ("_buffer", "_close", "_layout", "_inner", "_patched")

    def __init__(self, buffer, close=None):
        self._layout = SkeletonLayout(buffer)  # O(1) header validation
        self._buffer = buffer
        self._close = close
        self._inner: Optional[PDTSkeleton] = None
        self._patched = False

    # -- O(1) facts ----------------------------------------------------------

    @property
    def doc_name(self) -> str:
        return self._layout.doc_name

    @property
    def entry_count(self) -> int:
        return self._layout.entry_count

    @property
    def node_count(self) -> int:
        return self._layout.record_count

    @property
    def content_count(self) -> int:
        return self._layout.content_count

    def stats(self) -> dict[str, int]:
        return {"nodes": self.node_count, "entries": self.entry_count}

    @property
    def memory_bytes(self) -> int:
        """Mapped pages until materialized, the eager estimate after."""
        inner = self._inner
        if inner is not None:
            return inner.memory_bytes
        return len(self._buffer)

    # -- lazy deep surface ---------------------------------------------------

    def _skeleton(self) -> PDTSkeleton:
        inner = self._inner
        if inner is None:
            inner = PDTSkeleton.from_bytes(self._buffer)
            self._inner = inner
        return inner

    @property
    def records(self):
        return self._skeleton().records

    @property
    def ordered(self):
        return self._skeleton().ordered

    @property
    def parents(self):
        return self._skeleton().parents

    @property
    def slots(self):
        return self._skeleton().slots

    @property
    def dewey_ids(self):
        return self._skeleton().dewey_ids

    @property
    def bounds(self):
        return self._skeleton().bounds

    @property
    def slot_bounds(self):
        return self._skeleton().slot_bounds

    @property
    def tree(self):
        return self._skeleton().tree

    # -- serialization / maintenance -----------------------------------------

    def to_bytes(self) -> bytes:
        """The payload itself — byte-identical until patched."""
        if self._patched:
            return serialize_skeleton(self._skeleton())
        return bytes(self._buffer)

    def patch_byte_lengths(
        self, ancestor_keys: tuple[bytes, ...], delta: int
    ) -> int:
        """Apply a delta patch (materializes; marks for re-encode)."""
        inner = self._skeleton()
        patched = patch_skeleton_byte_lengths(inner, ancestor_keys, delta)
        if patched:
            self._patched = True
        return patched

    def close(self) -> None:
        """Release the underlying mapping (idempotent)."""
        close = self._close
        self._close = None
        if close is not None:
            try:
                close()
            except OSError:  # pragma: no cover - platform-specific
                pass

    def __repr__(self) -> str:
        return (
            f"<MappedSkeleton {self.doc_name!r} nodes={self.node_count} "
            f"bytes={len(self._buffer)}>"
        )


class SkeletonStore:
    """Directory of serialized skeletons keyed by content digests.

    Safe to share between processes: keys are content-derived (never
    process-local identities or generation counters), writes are atomic
    renames, and loads validate the payload before trusting it.  A
    single store instance is also safe to use from multiple threads —
    the only mutable in-memory state is the counters, which are guarded
    by a lock.

    ``mmap_mode=True`` switches :meth:`load` to the zero-copy path:
    v2 payloads come back as :class:`MappedSkeleton` (header-validated,
    columns paged in on demand); v1 payloads and platforms where
    mapping fails fall back to the eager parse.  The default stays
    eager — a fully-decoded skeleton with no open file mappings —
    which is also the strictest validation point for store hygiene
    (corrupt payloads are detected and reclaimed at load, not later).

    ``fault_injector`` arms the chaos sites ``store.load`` and
    ``store.save``: an injected *error* on a load behaves exactly like
    an unreadable file (a counted miss — the store's contract is that
    storage trouble reads back as a miss, never as data), an injected
    *corruption* mangles the bytes (a corrupt save poisons the file for
    later readers to reject; a corrupt load is rejected and reclaimed
    on the spot), and an injected error on a save propagates like a
    real write failure.
    """

    def __init__(
        self,
        root: Union[str, Path],
        mmap_mode: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.mmap_mode = mmap_mode
        self._faults = fault_injector
        self.saves = 0
        self.hits = 0
        self.misses = 0
        self.pruned = 0
        self._stats_lock = threading.Lock()

    def _count(self, counter: str) -> None:
        with self._stats_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def entry_name(doc_fingerprint: str, qpt_hash: str) -> str:
        """Filename for one snapshot: ``<qpt_hash>-<doc_fingerprint>``.

        Both components are hex digests; they are truncated to 32 chars
        each (128 bits) to keep names filesystem-friendly without
        meaningfully weakening collision resistance.
        """
        return f"{qpt_hash[:32]}-{doc_fingerprint[:32]}{_SUFFIX}"

    def path_for(self, doc_fingerprint: str, qpt_hash: str) -> Path:
        return self.root / self.entry_name(doc_fingerprint, qpt_hash)

    # -- operations ----------------------------------------------------------

    def save(
        self,
        doc_fingerprint: str,
        qpt_hash: str,
        skeleton: PDTSkeleton,
    ) -> Path:
        """Persist a skeleton; atomic, last-writer-wins.

        Concurrent writers racing on the same key write identical
        content (the key pins both inputs of the pure function), so the
        race is benign.
        """
        return self.save_payload(doc_fingerprint, qpt_hash, skeleton.to_bytes())

    def save_payload(
        self, doc_fingerprint: str, qpt_hash: str, payload: bytes
    ) -> Path:
        """Persist already-serialized wire bytes under a key; atomic.

        The write-through primitive of the networked tier: a payload
        fetched from a peer is stored verbatim (it is the same pure
        function of the key, so bytes from any honest process are
        interchangeable with a local serialization).
        """
        if self._faults is not None:
            event = self._faults.act("store.save")  # error kind raises here
            if event is not None and event.kind == FAULT_CORRUPT:
                payload = self._faults.mangle(event, payload)
        target = self.path_for(doc_fingerprint, qpt_hash)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=_SUFFIX
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._count("saves")
        return target

    def read_payload(
        self, doc_fingerprint: str, qpt_hash: str
    ) -> Optional[bytes]:
        """The raw wire bytes of one snapshot, or ``None`` when missing.

        No parsing, no counter updates — this is the serving side of
        the peer protocol (a peer streams its stored bytes verbatim;
        the *fetching* side validates before trusting them), so a
        corrupt local file is passed through for the fetcher to reject
        rather than silently repaired here.
        """
        try:
            return self.path_for(doc_fingerprint, qpt_hash).read_bytes()
        except OSError:
            return None

    def _unlink_if_unchanged(self, target: Path, before: os.stat_result) -> None:
        """Reclaim a corrupt snapshot, but only the payload we observed.

        A concurrent :meth:`save` can ``os.replace`` a fresh, valid
        snapshot in between our read and the cleanup; blindly unlinking
        would then delete the *new* writer's work.  Re-statting and
        comparing identity (inode, size, mtime) keeps cleanup scoped to
        the corrupt payload this reader actually observed.
        """
        try:
            after = target.stat()
            if (
                after.st_ino == before.st_ino
                and after.st_size == before.st_size
                and after.st_mtime_ns == before.st_mtime_ns
            ):
                target.unlink()
        except OSError:
            pass

    def load(
        self, doc_fingerprint: str, qpt_hash: str
    ) -> Optional[Union[PDTSkeleton, MappedSkeleton]]:
        """The stored skeleton, or ``None`` (missing *or* unreadable).

        A corrupt file counts as a miss and is removed so the next
        build re-snapshots cleanly (see :meth:`_unlink_if_unchanged`
        for why the cleanup is stat-guarded).  In ``mmap_mode`` a valid
        v2 payload comes back as a :class:`MappedSkeleton` without
        reading the columns; anything else falls back to the eager
        parse below.
        """
        corrupt = None
        if self._faults is not None:
            try:
                event = self._faults.act("store.load")
            except InjectedFaultError:
                # An injected read failure is an unreadable file: miss.
                self._count("misses")
                return None
            if event is not None and event.kind == FAULT_CORRUPT:
                corrupt = event
        target = self.path_for(doc_fingerprint, qpt_hash)
        if self.mmap_mode and corrupt is None:
            return self._load_mapped(target)
        try:
            before = target.stat()
            payload = target.read_bytes()
        except OSError:
            self._count("misses")
            return None
        if corrupt is not None:
            # Injected read corruption: the mangled bytes fail the parse
            # below, so the load counts as a miss and the (actually
            # fine) file is reclaimed — exactly what real on-disk rot
            # would cost: a rebuild, never wrong data.
            payload = self._faults.mangle(corrupt, payload)
        try:
            skeleton = PDTSkeleton.from_bytes(payload)
        except ValueError:
            self._count("misses")
            self._unlink_if_unchanged(target, before)
            return None
        self._count("hits")
        return skeleton

    def _load_mapped(
        self, target: Path
    ) -> Optional[Union[PDTSkeleton, MappedSkeleton]]:
        """The zero-copy load path: map pages, validate the header only."""
        try:
            before = target.stat()
            handle = open(target, "rb")
        except OSError:
            self._count("misses")
            return None
        try:
            try:
                mapping = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            finally:
                handle.close()
        except (OSError, ValueError):
            # Unmappable (e.g. an empty file): nothing valid to serve.
            self._count("misses")
            self._unlink_if_unchanged(target, before)
            return None
        try:
            version = skeleton_payload_version(mapping)
        except ValueError:
            mapping.close()
            self._count("misses")
            self._unlink_if_unchanged(target, before)
            return None
        if version != _SKELETON_VERSION:
            # Legacy payload: decode eagerly, release the mapping.
            payload = bytes(mapping)
            mapping.close()
            try:
                skeleton = PDTSkeleton.from_bytes(payload)
            except ValueError:
                self._count("misses")
                self._unlink_if_unchanged(target, before)
                return None
            self._count("hits")
            return skeleton
        try:
            mapped = MappedSkeleton(mapping, close=mapping.close)
        except ValueError:
            mapping.close()
            self._count("misses")
            self._unlink_if_unchanged(target, before)
            return None
        self._count("hits")
        return mapped

    def discard(self, doc_fingerprint: str, qpt_hash: str) -> bool:
        """Remove one snapshot if present; missing is not an error.

        Used by delta maintenance to reclaim the old-fingerprint
        snapshot after forwarding a patched skeleton to a document's
        new fingerprint — the old key is unaddressable by construction,
        so this only frees disk, never loses reachable state.
        """
        try:
            self.path_for(doc_fingerprint, qpt_hash).unlink()
            return True
        except OSError:
            return False

    def __contains__(self, key: tuple[str, str]) -> bool:
        doc_fingerprint, qpt_hash = key
        return self.path_for(doc_fingerprint, qpt_hash).exists()

    def entries(self) -> Iterator[Path]:
        """Every snapshot file currently in the store."""
        return (
            path
            for path in sorted(self.root.glob(f"*{_SUFFIX}"))
            if not path.name.startswith(".tmp-")
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def prune(self, keep: Optional[set[str]] = None) -> int:
        """Delete snapshot files, returning how many were removed.

        With ``keep`` (a set of :meth:`entry_name` filenames) only
        files *not* named survive — how engine shutdown and warm-up
        reclaim snapshots orphaned by document regeneration or view
        evolution (the old keys are unaddressable by construction, so
        this only frees disk).  Without ``keep``, the store is emptied.
        The cumulative total is surfaced as ``pruned`` in
        :meth:`stats`.
        """
        removed = 0
        for path in list(self.entries()):
            if keep is not None and path.name in keep:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            with self._stats_lock:
                self.pruned += removed
        return removed

    def stats(self) -> dict[str, int]:
        with self._stats_lock:
            snapshot = {
                "saves": self.saves,
                "hits": self.hits,
                "misses": self.misses,
                "pruned": self.pruned,
            }
        snapshot["entries"] = len(self)
        return snapshot
