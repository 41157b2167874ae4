"""A networked tier behind the skeleton snapshot store.

:class:`~repro.core.snapshot.SkeletonStore` made skeletons cheap across
*restarts*; this module makes them cheap across *hosts*.  A cold fleet
member asks a warm peer for the snapshot bytes instead of rebuilding
from path probes — and because every snapshot key is a pure content
digest (``<qpt_hash>-<doc_fingerprint>``, see the store's module
docstring), bytes fetched from any honest peer are interchangeable
with a local serialization.  The peer serves its stored v2 wire bytes
verbatim; the fetching side validates them before trusting them.

The pieces:

* :class:`SnapshotPeer` — the protocol a remote source implements:
  ``fetch(doc_fingerprint, qpt_hash) -> bytes | None``.
* :class:`HTTPSnapshotPeer` — the stdlib HTTP implementation (GET
  ``/snapshots/<entry_name>`` against a peer's serving endpoint), with
  a per-fetch timeout and bounded exponential-backoff retries.
* :class:`~repro.core.health.CircuitBreaker` — after
  ``failure_threshold`` consecutive fetch failures the network path
  opens (every load falls back to the local cold build immediately, no
  timeout waits); after ``reset_after`` seconds one half-open trial
  fetch decides whether to close it again.  The coordinator
  quarantines shards with the same state machine.
* :class:`NetworkedSkeletonStore` — a :class:`SkeletonStore` whose
  ``load`` consults its own directory first, then the peer (validated +
  written through to that directory, so one fetch warms the file tier
  for every later process too), and falls back to ``None`` — the
  engine's existing cold build — when the network cannot help.
  Concurrent misses on the *same* key are coalesced into one fetch
  (single-flight: the first caller fetches, the rest wait and re-read
  the directory).  Counts ``fetched`` / ``fetch_failed`` /
  ``fell_back`` / ``coalesced`` beside the store's own counters.

Failure semantics, in one table::

    local hit                    -> skeleton        (no network touched)
    peer hit                     -> skeleton        fetched += 1
    peer miss (404)              -> None            fell_back += 1
    fetch error (after retries)  -> None            fetch_failed += 1, fell_back += 1
    breaker open                 -> None            fell_back += 1
    corrupt peer payload         -> None            fetch_failed += 1, fell_back += 1
    follower of an in-flight key -> leader's result coalesced += 1

``None`` always means "cold-build locally" — a fleet member never
fails a query because a peer is down.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Optional, Protocol, Union

from repro.core.faults import FAULT_CORRUPT, FaultInjector
from repro.core.health import CircuitBreaker
from repro.core.skeleton import PDTSkeleton, SkeletonLayout
from repro.core.snapshot import SkeletonStore
from repro.errors import InjectedFaultError, SnapshotFetchError

__all__ = [
    "HTTPSnapshotPeer",
    "NetworkedSkeletonStore",
    "SnapshotPeer",
]


class SnapshotPeer(Protocol):
    """Anything that can produce snapshot wire bytes for a content key."""

    def fetch(self, doc_fingerprint: str, qpt_hash: str) -> Optional[bytes]:
        """The peer's stored payload, ``None`` if the peer lacks it.

        Raises :class:`~repro.errors.SnapshotFetchError` when the peer
        could not be reached (as opposed to reached-but-missing).
        """
        ...  # pragma: no cover - protocol signature


class HTTPSnapshotPeer:
    """Fetch snapshot bytes from a peer's HTTP serving endpoint.

    ``GET <base_url>/snapshots/<entry_name>`` with a per-request
    ``timeout``; transport failures are retried up to ``retries`` times
    with exponential backoff (``backoff * 2**attempt`` seconds between
    tries) before raising :class:`SnapshotFetchError`.  An HTTP 404 is
    a definitive answer — the peer does not have the snapshot — and is
    returned as ``None`` without retrying.

    Built on ``urllib`` so the fleet path adds no dependencies;
    ``opener`` and ``sleep`` are injectable for tests.  The
    ``peer.fetch`` fault site covers the whole call: an injected error
    surfaces as a :class:`SnapshotFetchError` (what a real transport
    failure looks like to callers) and an injected corruption mangles
    the fetched bytes before validation sees them.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 2.0,
        retries: int = 2,
        backoff: float = 0.05,
        opener: Optional[Callable[..., object]] = None,
        sleep: Callable[[float], None] = time.sleep,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._open = opener or urllib.request.urlopen
        self._sleep = sleep
        self._faults = fault_injector

    def fetch(self, doc_fingerprint: str, qpt_hash: str) -> Optional[bytes]:
        entry = SkeletonStore.entry_name(doc_fingerprint, qpt_hash)
        corrupt = None
        if self._faults is not None:
            try:
                event = self._faults.act("peer.fetch")
            except InjectedFaultError as exc:
                raise SnapshotFetchError(entry, str(exc)) from exc
            if event is not None and event.kind == FAULT_CORRUPT:
                corrupt = event
        url = f"{self.base_url}/snapshots/{entry}"
        last_error = "no attempt made"
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with self._open(url, timeout=self.timeout) as response:
                    payload = response.read()
                if corrupt is not None:
                    payload = self._faults.mangle(corrupt, payload)
                return payload
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return None  # definitive miss: never retry
                last_error = f"HTTP {exc.code}"
            except (urllib.error.URLError, OSError) as exc:
                reason = getattr(exc, "reason", exc)
                last_error = f"{type(exc).__name__}: {reason}"
        raise SnapshotFetchError(entry, last_error)


class NetworkedSkeletonStore(SkeletonStore):
    """A :class:`SkeletonStore` with a peer behind its misses.

    Everything but ``load`` and ``stats`` is the directory store's own:
    same ``save`` / ``discard`` / ``prune`` surface, same content-digest
    keys, and ``read_payload`` — what this process serves to *its*
    peers — stays local on purpose, so a peer asking us never triggers
    a recursive fetch storm through a third host.  ``load`` changes: a
    miss in the directory consults the peer (gated by a
    :class:`CircuitBreaker`), checks the fetched bytes' shape (the O(1)
    :class:`SkeletonLayout` header check), writes them through to the
    directory and re-loads from disk — so a fetched snapshot is decoded
    and validated exactly like a locally-saved one, and every later
    load, in this process or a sibling sharing the directory, is local.

    Network activity is counted beside the store's counters, under its
    one lock: ``fetched`` (peer supplied the bytes), ``fetch_failed``
    (the peer path errored after retries, or returned bytes that failed
    validation), ``fell_back`` (the load returned ``None`` and the
    caller will cold-build) and ``coalesced`` (a miss that rode another
    caller's fetch).  ``stats`` reports them all as of one instant, and
    the breaker's state.  ``store_kwargs`` (``mmap_mode``,
    ``fault_injector``) go to :class:`SkeletonStore`.
    """

    #: The network counters ``_count`` bumps.
    NET_COUNTS = ("fetched", "fetch_failed", "fell_back", "coalesced")
    #: The integers :meth:`stats` reports — what a coordinator sums.
    COUNTS = SkeletonStore.COUNTS + NET_COUNTS

    def __init__(
        self,
        root: Union[str, Path],
        peer: SnapshotPeer,
        single_flight_timeout: float = 30.0,
        **store_kwargs,
    ):
        super().__init__(root, **store_kwargs)
        self.peer = peer
        self.breaker = CircuitBreaker()
        self.single_flight_timeout = single_flight_timeout
        self.fetched = 0
        self.fetch_failed = 0
        self.fell_back = 0
        self.coalesced = 0
        self._inflight: dict[tuple[str, str], threading.Event] = {}

    def load(
        self, doc_fingerprint: str, qpt_hash: str
    ) -> Optional[PDTSkeleton]:
        found = super().load(doc_fingerprint, qpt_hash)
        if found is not None:
            return found
        # Single-flight: concurrent misses on the same key ride one
        # fetch.  The first caller through becomes the leader and runs
        # the networked path; followers wait for it to finish, then
        # re-read the (now write-through-warmed) directory.
        key = (doc_fingerprint, qpt_hash)
        with self._lock:
            done = self._inflight.get(key)
            if done is None:
                done = threading.Event()
                self._inflight[key] = done
                leader = True
            else:
                leader = False
        if not leader:
            finished = done.wait(self.single_flight_timeout)
            self._count("coalesced")
            if not finished:
                # A hung leader must not hang the fleet: degrade to a
                # local cold build.
                self._count("fell_back")
                return None
            restored = super().load(doc_fingerprint, qpt_hash)
            if restored is None:
                # The leader's fetch failed/missed; we fall back too.
                self._count("fell_back")
            return restored
        try:
            return self._fetch_through(doc_fingerprint, qpt_hash)
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            done.set()

    def _fetch_through(
        self, doc_fingerprint: str, qpt_hash: str
    ) -> Optional[PDTSkeleton]:
        if not self.breaker.allow():
            self._count("fell_back")
            return None
        try:
            payload = self.peer.fetch(doc_fingerprint, qpt_hash)
        except SnapshotFetchError:
            self.breaker.record_failure()
            self._count("fetch_failed", "fell_back")
            return None
        self.breaker.record_success()
        if payload is None:
            # Reached the peer, it simply lacks the snapshot: the
            # breaker stays closed, the caller cold-builds.
            self._count("fell_back")
            return None
        try:
            # O(1) structural check of bytes from outside the process —
            # magic, version, the offset table's total-length equation —
            # before anything is written to local disk.
            SkeletonLayout(payload)
        except ValueError:
            self._count("fetch_failed", "fell_back")
            return None
        self.save_payload(doc_fingerprint, qpt_hash, payload)
        # Serve it through the directory store's load, so the one
        # decode-and-validate point and the hit counters see a fetched
        # snapshot exactly like a saved one.
        restored = super().load(doc_fingerprint, qpt_hash)
        if restored is None:
            # Corruption below the offset table: the load rejected the
            # payload and reclaimed the file.
            self._count("fetch_failed", "fell_back")
            return None
        self._count("fetched")
        return restored

    def stats(self) -> dict:
        merged: dict = super().stats()
        merged["breaker_state"] = self.breaker.state
        return merged
