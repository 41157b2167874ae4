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

:meth:`SkeletonStore.load` is the one place a snapshot is decoded and
validated: it returns a fully decoded skeleton or ``None``, and a
payload that fails to decode is a counted miss whose file is reclaimed
on the spot.
"""

from __future__ import annotations

import mmap
import os
import re
import tempfile
import threading
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.faults import FAULT_CORRUPT, FaultInjector
from repro.core.skeleton import PDTSkeleton
from repro.errors import InjectedFaultError

_SUFFIX = ".pdts"
#: What :meth:`SkeletonStore.entry_name` writes: two lower-case hex
#: digests of at most 32 characters, QPT hash first.
_ENTRY_NAME = re.compile(r"([0-9a-f]{1,32})-([0-9a-f]{1,32})\.pdts")


class SkeletonStore:
    """Directory of serialized skeletons keyed by content digests.

    Safe to share between processes: keys are content-derived (never
    process-local identities or generation counters), writes are atomic
    renames, and loads validate the payload before trusting it.  A
    single store instance is also safe to use from multiple threads —
    the only mutable in-memory state is the counters, which are guarded
    by the store's one lock.

    ``mmap_mode=True`` makes :meth:`load` read a payload through a
    read-only memory mapping instead of ``read_bytes``, closed before
    :meth:`load` returns; nothing else differs.

    ``fault_injector`` arms the chaos sites ``store.load`` and
    ``store.save``: an injected *error* on a load behaves exactly like
    an unreadable file (a counted miss — the store's contract is that
    storage trouble reads back as a miss, never as data), an injected
    *corruption* mangles the bytes (a corrupt save poisons the file for
    later readers to reject; a corrupt load is rejected and reclaimed
    on the spot), and an injected error on a save propagates like a
    real write failure.
    """

    #: The integers :meth:`stats` reports — what a coordinator sums over
    #: its shards' slices.  ``entries`` is a gauge (files on disk now);
    #: the rest count events.
    COUNTS = ("saves", "hits", "misses", "pruned", "entries")

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
        self._lock = threading.Lock()

    def _count(self, *counters: str) -> None:
        with self._lock:
            for counter in counters:
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

    @staticmethod
    def entry_key(name: str) -> Optional[tuple[str, str]]:
        """``(doc_fingerprint, qpt_hash)`` of an :meth:`entry_name`, or
        ``None`` for any name not shaped like one — so a name from
        outside the process can never address a path but a snapshot's.
        """
        match = _ENTRY_NAME.fullmatch(name)
        if match is None:
            return None
        qpt_hash, doc_fingerprint = match.groups()
        return doc_fingerprint, qpt_hash

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
    ) -> Optional[PDTSkeleton]:
        """The stored skeleton, decoded and validated — or ``None``
        (missing *or* unreadable).

        A corrupt file — any version but the current one included —
        counts as a miss and is removed so the next build re-snapshots
        cleanly (see :meth:`_unlink_if_unchanged` for why the cleanup is
        stat-guarded).
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
        mapping = None
        try:
            before = target.stat()
            if self.mmap_mode and before.st_size:
                with open(target, "rb") as handle:
                    mapping = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                payload = mapping
            else:
                payload = target.read_bytes()
        except (OSError, ValueError):
            # ValueError: the file emptied between the stat and the map.
            self._count("misses")
            return None
        try:
            if corrupt is not None:
                # Injected read corruption: the mangled bytes fail the
                # parse, so the load counts as a miss and the (actually
                # fine) file is reclaimed — exactly what real on-disk rot
                # would cost: a rebuild, never wrong data.
                payload = self._faults.mangle(corrupt, payload)
            skeleton = PDTSkeleton.from_bytes(payload)
        except ValueError:
            self._count("misses")
            self._unlink_if_unchanged(target, before)
            return None
        finally:
            if mapping is not None:
                mapping.close()
        self._count("hits")
        return skeleton

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

    def paths(self) -> Iterator[Path]:
        """Every snapshot file currently in the store."""
        return (
            path
            for path in sorted(self.root.glob(f"*{_SUFFIX}"))
            if not path.name.startswith(".tmp-")
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.paths())

    @property
    def entries(self) -> int:
        """The snapshot files on disk (a gauge :meth:`stats` reports)."""
        return len(self)

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
        for path in list(self.paths()):
            if keep is not None and path.name in keep:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            with self._lock:
                self.pruned += removed
        return removed

    def stats(self) -> dict[str, int]:
        """:attr:`COUNTS` as of one instant."""
        with self._lock:
            return {name: getattr(self, name) for name in self.COUNTS}
