"""The networked snapshot tier: peer client, breaker, fallback.

Everything here runs against fakes — injectable ``opener`` / ``sleep``
/ ``clock`` keep the retry, backoff and breaker semantics deterministic
without sockets.  The real two-process wire path is exercised by
``tests/difftest/test_differential_fleet.py`` and ``tests/test_http.py``.
"""

from __future__ import annotations

import io
import threading
import time
import urllib.error

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.health import CircuitBreaker
from repro.core.snapshot import SkeletonStore
from repro.core.snapshot_net import HTTPSnapshotPeer, NetworkedSkeletonStore
from repro.errors import SnapshotFetchError
from repro.workloads.bookrev import BOOKREV_VIEW

FP = "f" * 32
QPT = "a" * 32


class FakeResponse:
    def __init__(self, payload: bytes):
        self._payload = payload

    def read(self) -> bytes:
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def http_error(code: int) -> urllib.error.HTTPError:
    return urllib.error.HTTPError(
        "http://peer/snapshots/x", code, "err", {}, io.BytesIO(b"")
    )


class ScriptedOpener:
    """Yields the scripted outcomes in order; records every call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls: list[str] = []

    def __call__(self, url, timeout=None):
        self.calls.append(url)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return FakeResponse(outcome)


class TestHTTPSnapshotPeer:
    def test_success_returns_bytes_first_try(self):
        opener = ScriptedOpener([b"payload"])
        peer = HTTPSnapshotPeer("http://peer/", opener=opener, sleep=lambda s: None)
        assert peer.fetch(FP, QPT) == b"payload"
        assert opener.calls == [
            f"http://peer/snapshots/{SkeletonStore.entry_name(FP, QPT)}"
        ]

    def test_404_is_a_definitive_miss_without_retry(self):
        opener = ScriptedOpener([http_error(404)])
        peer = HTTPSnapshotPeer("http://peer", opener=opener, sleep=lambda s: None)
        assert peer.fetch(FP, QPT) is None
        assert len(opener.calls) == 1

    def test_transport_errors_retried_with_exponential_backoff(self):
        sleeps: list[float] = []
        opener = ScriptedOpener(
            [
                urllib.error.URLError("refused"),
                ConnectionResetError("reset"),
                b"late payload",
            ]
        )
        peer = HTTPSnapshotPeer(
            "http://peer", retries=2, backoff=0.1, opener=opener,
            sleep=sleeps.append,
        )
        assert peer.fetch(FP, QPT) == b"late payload"
        assert len(opener.calls) == 3
        assert sleeps == [0.1, 0.2]

    def test_exhausted_retries_raise_snapshot_fetch_error(self):
        opener = ScriptedOpener([urllib.error.URLError("down")] * 3)
        peer = HTTPSnapshotPeer(
            "http://peer", retries=2, opener=opener, sleep=lambda s: None
        )
        with pytest.raises(SnapshotFetchError) as excinfo:
            peer.fetch(FP, QPT)
        assert len(opener.calls) == 3
        assert SkeletonStore.entry_name(FP, QPT) == excinfo.value.key

    def test_server_side_500_is_retried_then_raises(self):
        opener = ScriptedOpener([http_error(500)] * 2)
        peer = HTTPSnapshotPeer(
            "http://peer", retries=1, opener=opener, sleep=lambda s: None
        )
        with pytest.raises(SnapshotFetchError, match="HTTP 500"):
            peer.fetch(FP, QPT)
        assert len(opener.calls) == 2


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after=5.0, clock=lambda: clock[0]
        )
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()  # still closed at 2/3
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=lambda: 0.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak broken: 1, not 2

    def test_half_open_admits_one_trial_and_success_closes(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 6.0
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single trial
        assert not breaker.allow()  # everyone else still barred
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_trial_failure_restarts_the_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()  # trial failed at t=6
        assert breaker.state == "open"
        clock[0] = 10.0  # 4s into the new cooldown
        assert not breaker.allow()
        clock[0] = 11.5
        assert breaker.allow()


class StaticPeer:
    """A peer backed by a dict; optionally scripted to fail."""

    def __init__(self, payloads=None, error: bool = False):
        self.payloads = dict(payloads or {})
        self.error = error
        self.fetches = 0

    def fetch(self, doc_fingerprint, qpt_hash):
        self.fetches += 1
        if self.error:
            raise SnapshotFetchError(
                SkeletonStore.entry_name(doc_fingerprint, qpt_hash), "down"
            )
        return self.payloads.get((doc_fingerprint, qpt_hash))


@pytest.fixture()
def snapshot_payload(bookrev_db, tmp_path):
    """Real v2 wire bytes plus their content key, via a warm engine."""
    seed_store = SkeletonStore(tmp_path / "seed")
    store_engine = KeywordSearchEngine(bookrev_db, snapshot_store=seed_store)
    view = store_engine.define_view("v", BOOKREV_VIEW)
    store_engine.warm_view("v")
    qpt_hash = view.qpts["books.xml"].content_hash
    fingerprint = bookrev_db.get("books.xml").fingerprint
    payload = seed_store.read_payload(fingerprint, qpt_hash)
    assert payload is not None
    return (fingerprint, qpt_hash), payload


class TestNetworkedSkeletonStore:
    def test_local_hit_never_touches_the_peer(self, tmp_path, snapshot_payload):
        (fingerprint, qpt_hash), payload = snapshot_payload
        peer = StaticPeer()
        net = NetworkedSkeletonStore(tmp_path / "s", peer)
        net.save_payload(fingerprint, qpt_hash, payload)
        assert net.load(fingerprint, qpt_hash) is not None
        assert peer.fetches == 0
        assert net.stats() == {
            "saves": 1, "hits": 1, "misses": 0, "pruned": 0, "entries": 1,
            "fetched": 0, "fetch_failed": 0, "fell_back": 0,
            "coalesced": 0, "breaker_state": "closed",
        }

    def test_peer_hit_writes_through_and_counts_fetched(
        self, tmp_path, snapshot_payload
    ):
        (fingerprint, qpt_hash), payload = snapshot_payload
        peer = StaticPeer({(fingerprint, qpt_hash): payload})
        net = NetworkedSkeletonStore(tmp_path / "s", peer)
        restored = net.load(fingerprint, qpt_hash)
        assert restored is not None and restored.doc_name == "books.xml"
        assert net.stats()["fetched"] == 1
        # written through: the local file tier now serves it alone
        assert net.read_payload(fingerprint, qpt_hash) == payload
        assert net.load(fingerprint, qpt_hash) is not None
        assert peer.fetches == 1  # no second fetch

    def test_fetched_payload_served_mmap_mode_like_a_local_save(
        self, tmp_path, snapshot_payload
    ):
        (fingerprint, qpt_hash), payload = snapshot_payload
        net = NetworkedSkeletonStore(
            tmp_path / "s",
            StaticPeer({(fingerprint, qpt_hash): payload}),
            mmap_mode=True,
        )
        restored = net.load(fingerprint, qpt_hash)
        assert restored.to_bytes() == payload
        assert net.stats()["fetched"] == 1
        assert net.stats()["hits"] == 1

    def test_peer_payload_with_corrupt_columns_is_rebuilt_not_raised(
        self, tmp_path, bookrev_db, snapshot_payload
    ):
        # The O(1) header check lets it in and writes it through; the
        # local load that follows decodes it, rejects it and reclaims
        # the file, under mmap_mode as in the default mode.
        from tests.test_snapshot import corrupt_a_key

        (fingerprint, qpt_hash), payload = snapshot_payload
        net = NetworkedSkeletonStore(
            tmp_path / "s",
            StaticPeer({(fingerprint, qpt_hash): corrupt_a_key(payload)}),
            mmap_mode=True,
        )
        engine = KeywordSearchEngine(bookrev_db, snapshot_store=net)
        engine.define_view("v", BOOKREV_VIEW)
        reference = KeywordSearchEngine(bookrev_db, enable_cache=False)
        reference.define_view("v", BOOKREV_VIEW)
        for _ in range(2):
            assert [
                (r.rank, r.score, r.to_xml())
                for r in engine.search("v", ["xml", "search"])
            ] == [
                (r.rank, r.score, r.to_xml())
                for r in reference.search("v", ["xml", "search"])
            ]
        stats = net.stats()
        # The failure table's row: fetch_failed + fell_back, not fetched
        # (the second fell_back is the view's other document, a peer
        # miss).
        assert stats["fetched"] == 0 and stats["hits"] == 0, stats
        assert stats["fetch_failed"] == 1 and stats["fell_back"] == 2, stats
        # Reclaimed, rebuilt, re-saved: the local tier holds good bytes.
        assert net.read_payload(fingerprint, qpt_hash) == payload

    def test_peer_miss_falls_back_without_tripping_breaker(
        self, tmp_path, snapshot_payload
    ):
        (fingerprint, qpt_hash), _ = snapshot_payload
        net = NetworkedSkeletonStore(tmp_path / "s", StaticPeer())
        for _ in range(5):
            assert net.load(fingerprint, qpt_hash) is None
        stats = net.stats()
        assert stats["fell_back"] == 5 and stats["fetch_failed"] == 0
        assert net.breaker.state == "closed"

    def test_fetch_errors_trip_the_breaker_and_stop_fetching(
        self, tmp_path, snapshot_payload
    ):
        (fingerprint, qpt_hash), _ = snapshot_payload
        peer = StaticPeer(error=True)
        net = NetworkedSkeletonStore(tmp_path / "s", peer)
        # A cooldown no slow run outlasts, so the breaker stays open.
        net.breaker = CircuitBreaker(failure_threshold=3, reset_after=60.0)
        for _ in range(10):
            assert net.load(fingerprint, qpt_hash) is None
        assert peer.fetches == 3  # breaker opened after the third failure
        stats = net.stats()
        assert stats["fetch_failed"] == 3
        assert stats["fell_back"] == 10
        assert net.breaker.state == "open"
        assert net.stats()["breaker_state"] == "open"

    def test_corrupt_peer_payload_rejected_not_written_through(
        self, tmp_path, snapshot_payload
    ):
        (fingerprint, qpt_hash), payload = snapshot_payload
        corrupt = payload[:10] + b"\xff" * 8
        net = NetworkedSkeletonStore(
            tmp_path / "s", StaticPeer({(fingerprint, qpt_hash): corrupt})
        )
        assert net.load(fingerprint, qpt_hash) is None
        stats = net.stats()
        assert stats["fetch_failed"] == 1 and stats["fell_back"] == 1
        assert net.read_payload(fingerprint, qpt_hash) is None

    def test_store_delegation_surface(self, tmp_path, snapshot_payload):
        (fingerprint, qpt_hash), payload = snapshot_payload
        assert issubclass(NetworkedSkeletonStore, SkeletonStore)
        net = NetworkedSkeletonStore(tmp_path / "s", StaticPeer())
        assert net.entry_name(fingerprint, qpt_hash) == SkeletonStore.entry_name(
            fingerprint, qpt_hash
        )
        net.save_payload(fingerprint, qpt_hash, payload)
        assert (fingerprint, qpt_hash) in net
        assert len(net) == 1
        assert net.read_payload(fingerprint, qpt_hash) == payload
        assert net.prune(keep=set()) == 1
        assert len(net) == 0
        merged = net.stats()
        assert merged["pruned"] == 1 and merged["fell_back"] == 0


class BlockingPeer:
    """A peer whose fetch parks on an event until the test releases it."""

    def __init__(self, payloads=None, error: bool = False):
        self.payloads = dict(payloads or {})
        self.error = error
        self.fetches = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def fetch(self, doc_fingerprint, qpt_hash):
        self.fetches += 1
        self.entered.set()
        assert self.release.wait(10.0), "test never released the peer"
        if self.error:
            raise SnapshotFetchError(
                SkeletonStore.entry_name(doc_fingerprint, qpt_hash), "down"
            )
        return self.payloads.get((doc_fingerprint, qpt_hash))


class TestSingleFlight:
    def _herd(self, net, fingerprint, qpt_hash, peer, followers=4):
        """One leader parked in the peer + ``followers`` waiting threads.

        Deterministic ordering: the leader thread starts alone and we
        wait for it to enter the peer fetch; only then do the followers
        start, and the peer is released only after every follower is
        provably inside the single-flight wait (counted via a wrapper
        around the in-flight event — a follower that has retrieved the
        event has already lost the leader election, so its outcome is
        fixed).
        """
        results = []
        lock = threading.Lock()

        def load():
            restored = net.load(fingerprint, qpt_hash)
            with lock:
                results.append(restored)

        leader = threading.Thread(target=load)
        leader.start()
        assert peer.entered.wait(10.0)

        key = (fingerprint, qpt_hash)
        waiting = threading.Semaphore(0)
        with net._lock:
            original = net._inflight[key]

        class CountingEvent:
            def wait(self, timeout=None):
                waiting.release()
                return original.wait(timeout)

        with net._lock:
            net._inflight[key] = CountingEvent()

        threads = [threading.Thread(target=load) for _ in range(followers)]
        for thread in threads:
            thread.start()
        for _ in threads:
            assert waiting.acquire(timeout=10.0)
        peer.release.set()
        leader.join(10.0)
        for thread in threads:
            thread.join(10.0)
        return results

    def test_thundering_herd_coalesces_to_one_fetch(
        self, tmp_path, snapshot_payload
    ):
        (fingerprint, qpt_hash), payload = snapshot_payload
        peer = BlockingPeer({(fingerprint, qpt_hash): payload})
        net = NetworkedSkeletonStore(tmp_path / "s", peer)
        results = self._herd(net, fingerprint, qpt_hash, peer, followers=4)
        assert peer.fetches == 1  # the herd rode one fetch
        assert len(results) == 5
        assert all(restored is not None for restored in results)
        stats = net.stats()
        assert stats["fetched"] == 1
        assert stats["coalesced"] == 4
        assert stats["fell_back"] == 0

    def test_followers_of_a_failed_leader_fall_back(
        self, tmp_path, snapshot_payload
    ):
        (fingerprint, qpt_hash), _payload = snapshot_payload
        peer = BlockingPeer(error=True)
        net = NetworkedSkeletonStore(tmp_path / "s", peer)
        results = self._herd(net, fingerprint, qpt_hash, peer, followers=3)
        assert peer.fetches == 1
        assert results == [None, None, None, None]
        stats = net.stats()
        assert stats["fetch_failed"] == 1
        assert stats["coalesced"] == 3
        # Leader fell back once; each follower re-read a still-cold
        # local tier and fell back too.
        assert stats["fell_back"] == 4

    def test_hung_leader_does_not_hang_followers(
        self, tmp_path, snapshot_payload
    ):
        (fingerprint, qpt_hash), payload = snapshot_payload
        peer = BlockingPeer({(fingerprint, qpt_hash): payload})
        net = NetworkedSkeletonStore(
            tmp_path / "s", peer, single_flight_timeout=0.05
        )
        leader = threading.Thread(
            target=net.load, args=(fingerprint, qpt_hash)
        )
        leader.start()
        assert peer.entered.wait(10.0)
        # The leader is parked in the peer; a follower must degrade to
        # the local cold build after the single-flight timeout, not
        # inherit the hang.
        start = time.monotonic()
        assert net.load(fingerprint, qpt_hash) is None
        assert time.monotonic() - start < 5.0
        stats = net.stats()
        assert stats["coalesced"] == 1
        assert stats["fell_back"] == 1
        peer.release.set()  # unpark the leader for clean teardown
        leader.join(10.0)
