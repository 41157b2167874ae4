"""Serving-side observability: request counters and latency recorders.

The engine's :class:`~repro.core.cache.QueryCache` already counts cache
traffic; this module counts *requests* — what was admitted, what was
shed and why, and how long the admitted ones waited and ran.  Latencies
are kept in bounded sliding windows (a serving process runs forever; an
unbounded sample list would not), so percentiles describe recent
traffic, which is what load-shedding and capacity decisions want.

Everything is guarded by one lock: recording happens on executor
threads and the event loop concurrently, and ``snapshot()`` must return
numbers that belong together (the same consistency discipline each
cache tier's ``stats()`` follows).
"""

from __future__ import annotations

import math
import threading
from collections import Counter, deque
from typing import Any, Optional


class LatencyRecorder:
    """A bounded sliding window of latency samples, in seconds.

    Keeps the last ``window`` samples plus lifetime count/total, so
    percentiles reflect recent behavior while throughput math can still
    use the all-time counters.  Not thread-safe on its own —
    :class:`ServingStats` serializes access.
    """

    def __init__(self, window: int = 2048):
        self._samples: deque[float] = deque(maxlen=window)
        self.count = 0
        self.total = 0.0
        #: Lifetime maximum (the window-scoped max lives in ``summary``).
        self.lifetime_max = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1
        self.total += seconds
        if seconds > self.lifetime_max:
            self.lifetime_max = seconds

    def percentile(self, fraction: float) -> Optional[float]:
        """The ``fraction``-quantile (0 < fraction <= 1) of the window,
        or ``None`` when no samples were recorded."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[index]

    @property
    def mean(self) -> Optional[float]:
        """Window-scoped mean — same population as the percentiles.

        (It used to divide lifetime ``total`` by lifetime ``count``,
        which made ``summary()`` mix scopes: a long-gone startup spike
        dragged the mean while p50/p95/p99/max had already forgotten
        it.  Lifetime aggregates live under explicit names now.)
        """
        if not self._samples:
            return None
        return sum(self._samples) / len(self._samples)

    @property
    def lifetime_mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def summary(self) -> dict[str, Any]:
        """Window-scoped distribution (``mean`` and ``max`` included —
        a startup spike must not pin the summary forever) plus
        explicitly-named lifetime aggregates."""
        return {
            "count": self.count,
            "window_count": len(self._samples),
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": max(self._samples) if self._samples else None,
            "lifetime_mean": self.lifetime_mean,
            "lifetime_max": self.lifetime_max if self.count else None,
        }


class ServingStats:
    """Request-level counters for one :class:`SearchServer`.

    ``submitted = completed + failed + rejected + in flight`` at every
    consistent snapshot; rejections are broken down by the typed
    ``Overloaded`` reason.  Three latencies are tracked per completed
    request: ``queue_wait`` (admission to execution start), ``service``
    (engine time inside the thread pool) and ``latency`` (end to end,
    the number a client experiences).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.degraded = 0
        self.failed = 0
        self.rejected: Counter[str] = Counter()
        self.warmed_targets = 0
        self.queue_wait = LatencyRecorder()
        self.service = LatencyRecorder()
        self.latency = LatencyRecorder()
        self._cache_hit_counts: Counter[str] = Counter()

    # -- recording (called from the loop and executor threads) ---------------

    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_rejected(self, reason: str) -> None:
        with self._lock:
            self.rejected[reason] += 1

    def record_completed(
        self,
        queue_wait: float,
        service: float,
        latency: float,
        cache_hits: Optional[dict[str, str]] = None,
        degraded: bool = False,
    ) -> None:
        with self._lock:
            self.completed += 1
            if degraded:
                # Completed, but with shards missing under the
                # partial_results policy — counted separately so
                # operators can see partial availability in /stats.
                self.degraded += 1
            self.queue_wait.record(queue_wait)
            self.service.record(service)
            self.latency.record(latency)
            if cache_hits:
                self._cache_hit_counts.update(cache_hits.values())

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def record_warmed(self, targets: int) -> None:
        with self._lock:
            self.warmed_targets += targets

    # -- reading -------------------------------------------------------------

    @property
    def rejected_total(self) -> int:
        with self._lock:
            return sum(self.rejected.values())

    def snapshot(self) -> dict[str, Any]:
        """One consistent dict of every counter and latency summary."""
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "degraded": self.degraded,
                "failed": self.failed,
                "rejected": dict(self.rejected),
                "rejected_total": sum(self.rejected.values()),
                "warmed_targets": self.warmed_targets,
                "cache_hit_counts": dict(self._cache_hit_counts),
                "queue_wait": self.queue_wait.summary(),
                "service": self.service.summary(),
                "latency": self.latency.summary(),
            }
