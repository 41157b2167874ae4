"""Shared failure-health primitives: circuit breaking and shard quarantine.

PR 9 grew a consecutive-failure :class:`CircuitBreaker` for the snapshot
network path; the failure-domain hardening PR promotes it here so the
corpus coordinator can reuse the same state machine per shard.
``repro.core.snapshot_net`` re-exports it, so existing imports keep
working.

:class:`FleetHealth` is one breaker per shard plus the quarantine
vocabulary the coordinator and the serving layer speak:

* a shard whose scatter calls fail ``failure_threshold`` times in a row
  is **quarantined** — the scatter skips it without submitting work
  (under ``partial_results`` the outcome degrades; fail-closed raises a
  typed :class:`~repro.errors.ShardUnavailableError`);
* after ``reset_after`` seconds, exactly one query is admitted as the
  **half-open probe**; its success heals the shard, its failure re-opens
  the quarantine for another full cooldown;
* :meth:`FleetHealth.snapshot` is the deterministic dict surfaced in
  coordinator stats, ``/health`` and ``/stats``.

One success/failure is recorded per shard per *query* (not per retry
attempt), so the quarantine threshold counts observable outages, not
internal retry churn.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    Closed (normal) until ``failure_threshold`` consecutive failures;
    then open for ``reset_after`` seconds, during which :meth:`allow`
    answers ``False`` and callers skip the guarded path entirely — a
    dead peer must cost a cold build, not a connect timeout per miss.
    After the cooldown, exactly one caller is admitted as the half-open
    trial; its success closes the breaker, its failure re-opens it for
    another full cooldown.

    Thread-safe; ``clock`` is injectable for tests (monotonic seconds).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._half_open_inflight = False
        self._opened_count = 0

    def _state(self) -> str:
        """:attr:`state`, read under the caller's hold of the lock."""
        if self._opened_at is None:
            return "closed"
        if self._half_open_inflight:
            return "half_open"
        if self._clock() - self._opened_at >= self.reset_after:
            return "half_open"
        return "open"

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (informational)."""
        with self._lock:
            return self._state()

    def snapshot(self) -> dict:
        """:attr:`state`, the current failure streak and the lifetime
        count of trips open (``"quarantines"``) as of one instant — the
        clock is read once."""
        with self._lock:
            return {
                "state": self._state(),
                "consecutive_failures": self._consecutive_failures,
                "quarantines": self._opened_count,
            }

    def allow(self) -> bool:
        """May the caller try the guarded path now?

        While open, answers ``False``.  Once the cooldown elapses, the
        first caller gets ``True`` as the half-open trial and everyone
        else keeps getting ``False`` until that trial reports back.
        """
        with self._lock:
            if self._opened_at is None:
                return True
            if self._half_open_inflight:
                return False
            if self._clock() - self._opened_at >= self.reset_after:
                self._half_open_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None
            self._half_open_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            if self._half_open_inflight:
                # The half-open trial failed: restart the cooldown.
                self._half_open_inflight = False
                self._opened_at = self._clock()
                self._opened_count += 1
                return
            self._consecutive_failures += 1
            if (
                self._consecutive_failures >= self.failure_threshold
                and self._opened_at is None
            ):
                self._opened_at = self._clock()
                self._opened_count += 1


class FleetHealth:
    """Per-shard quarantine tracking for the corpus coordinator.

    One :class:`CircuitBreaker` per shard.  The coordinator asks
    :meth:`allow` before scattering to a shard (an open breaker means
    the shard is skipped as ``"quarantined"``; a half-open breaker
    admits the query as the recovery probe) and records exactly one
    success or failure per shard per query.
    """

    def __init__(
        self,
        shard_count: int,
        failure_threshold: int = 3,
        reset_after: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = shard_count
        self._breakers = [
            CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_after=reset_after,
                clock=clock,
            )
            for _ in range(shard_count)
        ]

    def breaker(self, shard_id: int) -> CircuitBreaker:
        return self._breakers[shard_id]

    def allow(self, shard_id: int) -> bool:
        return self._breakers[shard_id].allow()

    def record_success(self, shard_id: int) -> None:
        self._breakers[shard_id].record_success()

    def record_failure(self, shard_id: int) -> None:
        self._breakers[shard_id].record_failure()

    def state(self, shard_id: int) -> str:
        return self._breakers[shard_id].state

    def snapshot(self) -> dict:
        """Deterministic structure for stats endpoints (sorted keys).

        A shard is quarantined while its state is ``"open"``; a
        half-open shard is *not*: it is serving its recovery probe.
        Each breaker is read once, and ``quarantined`` and ``serving``
        are derived from those reads: a cooldown that ends mid-snapshot
        cannot make the shard rows and the totals disagree.
        """
        shards = [breaker.snapshot() for breaker in self._breakers]
        quarantined = [
            shard for shard, row in enumerate(shards) if row["state"] == "open"
        ]
        return {
            "shards": {str(shard): row for shard, row in enumerate(shards)},
            "quarantined": quarantined,
            "serving": self.shard_count - len(quarantined),
        }
