"""Admission control: decide per request whether to serve or shed.

A bounded system needs a typed "no": when the queue is full or a view
already has its fill of in-flight requests, rejecting *now* with
:class:`Overloaded` is strictly better than queueing into a latency
cliff.  The controller tracks **per-view inflight** — requests admitted
but not yet finished (queued + executing) — so one hot view cannot
occupy the whole queue and starve every other view.

The controller is lock-protected, so a read from another thread
(``snapshot``, ``inflight``) sees a consistent state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

#: ``Overloaded.reason`` values (typed, not free-form strings).
REASON_QUEUE_FULL = "queue_full"
REASON_VIEW_SATURATED = "view_saturated"
REASON_SERVER_STOPPED = "server_stopped"


@dataclass(frozen=True)
class Overloaded:
    """A typed rejection: the request was shed, not served.

    Carries enough state for the caller to act (retry against another
    replica, back off, or surface the numbers): which limit tripped,
    the observed value and the configured ceiling.
    """

    reason: str
    view: str
    queue_depth: int
    inflight: int
    limit: int

    def describe(self) -> str:
        return (
            f"overloaded ({self.reason}): view={self.view!r} "
            f"queue_depth={self.queue_depth} inflight={self.inflight} "
            f"limit={self.limit}"
        )


class AdmissionController:
    """Tracks per-view inflight counts; yields admit/shed decisions
    against the two bounds (``ServerConfig.max_queue_depth`` and
    ``ServerConfig.max_inflight_per_view``)."""

    def __init__(self, max_queue_depth: int, max_inflight_per_view: int):
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_view = max_inflight_per_view
        self._lock = threading.Lock()
        self._inflight: dict[str, int] = {}

    def try_admit(self, view_name: str, queue_depth: int) -> Optional[Overloaded]:
        """Admit (returns ``None``, inflight incremented) or reject.

        The queue bound (a global backstop) is checked before the
        per-view inflight bound (fairness).
        """
        with self._lock:
            inflight = self._inflight.get(view_name, 0)
            if queue_depth >= self.max_queue_depth:
                reason, limit = REASON_QUEUE_FULL, self.max_queue_depth
            elif inflight >= self.max_inflight_per_view:
                reason, limit = REASON_VIEW_SATURATED, self.max_inflight_per_view
            else:
                self._inflight[view_name] = inflight + 1
                return None
        return Overloaded(
            reason=reason,
            view=view_name,
            queue_depth=queue_depth,
            inflight=inflight,
            limit=limit,
        )

    def release(self, view_name: str) -> None:
        """A previously admitted request finished (served or errored)."""
        with self._lock:
            remaining = self._inflight.get(view_name, 0) - 1
            if remaining > 0:
                self._inflight[view_name] = remaining
            else:
                self._inflight.pop(view_name, None)

    # -- diagnostics ---------------------------------------------------------

    def inflight(self, view_name: str) -> int:
        with self._lock:
            return self._inflight.get(view_name, 0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {"inflight": dict(self._inflight)}
