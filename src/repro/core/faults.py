"""Deterministic fault injection for chaos testing the distributed layers.

The paper's pipeline assumes every module always succeeds; the sharded,
fleet-served reproduction cannot.  This module makes failure a
first-class, *reproducible* input: a seeded :class:`FaultPlan` arms
named **sites** threaded through the I/O boundaries —

* ``store.load`` / ``store.save`` — :class:`~repro.core.snapshot.SkeletonStore`
  reads and writes,
* ``peer.fetch`` — :class:`~repro.core.snapshot_net.HTTPSnapshotPeer`,
* ``shard<N>.collect`` / ``shard<N>.rank`` —
  :class:`~repro.core.sharding.ShardExecutor`'s two scatter phases,
* ``http.request`` — the :class:`~repro.serving.http.HTTPServingEndpoint`
  bridge

— and a :class:`FaultInjector` decides, at every call, whether to fire
one of four fault kinds: a raised :class:`~repro.errors.InjectedFaultError`,
an injected delay (to trip deadlines), truncated/corrupted bytes, or a
hard hang.

**Determinism is the contract.**  Whether call *n* at site *s* fires is
a pure function of ``(site, call-count, seed)``: the decision hashes
``seed | rule-index | site | n`` (BLAKE2b) into ``[0, 1)`` and compares
against the rule's rate — no RNG state, no wall clock, no thread
identity.  Two runs with the same plan and the same per-site call
sequences fire the byte-identical schedule; the chaos difftest asserts
exactly that via :meth:`FaultInjector.schedule`.

Sites are matched with :func:`fnmatch.fnmatchcase` patterns, so one rule
can arm a family (``"shard*.collect"``) or a single member
(``"shard0.rank"``).  The first matching rule in plan order decides.

Components take an optional ``fault_injector`` and call
:meth:`FaultInjector.act` at their site; a ``None`` injector costs one
attribute check on the hot path.  ``act`` *performs* error/delay/hang
faults itself and returns the :class:`FaultEvent` for ``corrupt`` faults
so the caller can route the payload through :meth:`FaultInjector.mangle`
(byte corruption is deterministic too: truncate to half and flip a
hash-chosen byte).

Hangs block on an internal event capped by ``hang_timeout`` — call
:meth:`FaultInjector.release_hangs` in test teardown so no thread leaks
past the scenario.  :meth:`FaultInjector.disable` /
:meth:`~FaultInjector.enable` gate firing without touching call
counters, which is how the chaos difftest "heals" the fault domain
mid-run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from hashlib import blake2b
from typing import Callable, Optional, Sequence

from repro.errors import InjectedFaultError

#: The four fault kinds.
FAULT_ERROR = "error"  #: raise :class:`InjectedFaultError`
FAULT_DELAY = "delay"  #: sleep ``rule.delay`` seconds
FAULT_CORRUPT = "corrupt"  #: caller mangles the payload bytes
FAULT_HANG = "hang"  #: block until ``release_hangs`` (or ``hang_timeout``)

FAULT_KINDS = (FAULT_ERROR, FAULT_DELAY, FAULT_CORRUPT, FAULT_HANG)


@dataclass(frozen=True)
class FaultRule:
    """One arming of a site (pattern) with a fault kind.

    ``rate`` fires probabilistically-but-deterministically (see the
    module docstring); ``at_calls`` fires on exactly those 1-based call
    numbers instead (takes precedence when non-empty).  ``max_fires``
    caps total firings of this rule — note the cap counts in *firing
    order*, which under concurrent callers is scheduling-dependent;
    determinism tests use serial execution or uncapped rules.
    """

    site: str
    kind: str
    rate: float = 1.0
    at_calls: tuple[int, ...] = ()
    delay: float = 0.05
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered tuple of rules — the whole chaos scenario.

    Immutable and cheap to share: two injectors built from the same plan
    produce the same decisions for the same call sequences.
    """

    seed: int
    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def single(cls, seed: int, site: str, kind: str, **kwargs) -> "FaultPlan":
        """Convenience: a plan arming one site with one rule."""
        return cls(seed=seed, rules=(FaultRule(site, kind, **kwargs),))


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault — the unit of the reproducible schedule."""

    site: str
    call: int  # 1-based per-site call number
    kind: str
    rule_index: int

    def as_tuple(self) -> tuple[str, int, str, int]:
        return (self.site, self.call, self.kind, self.rule_index)


def _hash01(seed: int, rule_index: int, site: str, call: int) -> float:
    """A uniform ``[0, 1)`` draw that is a pure function of its inputs."""
    digest = blake2b(
        f"{seed}|{rule_index}|{site}|{call}".encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class FaultInjector:
    """Executes a :class:`FaultPlan` against named call sites.

    Thread-safe: per-site call counters and the fired-event ledger are
    lock-guarded, so concurrent scatter threads each get a distinct call
    number and the canonical schedule is stable regardless of
    interleaving.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
        hang_timeout: float = 30.0,
    ):
        self.plan = plan
        self.hang_timeout = hang_timeout
        self._sleep = sleep
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._fired: list[FaultEvent] = []
        self._rule_fires: dict[int, int] = {}
        self._hang_release = threading.Event()
        self._enabled = True

    # -- lifecycle -------------------------------------------------------------

    def enable(self) -> None:
        with self._lock:
            self._enabled = True

    def disable(self) -> None:
        """Stop firing (counters keep advancing) — the 'faults cleared'
        half of a recovery scenario."""
        with self._lock:
            self._enabled = False

    @property
    def enabled(self) -> bool:
        with self._lock:
            return self._enabled

    def release_hangs(self) -> None:
        """Unblock every thread parked in a hang fault — call in teardown."""
        self._hang_release.set()

    # -- the decision ----------------------------------------------------------

    def _decide(self, site: str) -> Optional[FaultEvent]:
        with self._lock:
            call = self._calls.get(site, 0) + 1
            self._calls[site] = call
            if not self._enabled:
                return None
            for index, rule in enumerate(self.plan.rules):
                if not fnmatchcase(site, rule.site):
                    continue
                if rule.at_calls:
                    fire = call in rule.at_calls
                else:
                    fire = (
                        _hash01(self.plan.seed, index, site, call) < rule.rate
                    )
                if not fire:
                    # First matching rule owns the site for this call.
                    return None
                if rule.max_fires is not None:
                    fired = self._rule_fires.get(index, 0)
                    if fired >= rule.max_fires:
                        return None
                    self._rule_fires[index] = fired + 1
                event = FaultEvent(
                    site=site, call=call, kind=rule.kind, rule_index=index
                )
                self._fired.append(event)
                return event
            return None

    def act(self, site: str) -> Optional[FaultEvent]:
        """Count a call at ``site`` and perform any armed fault.

        * ``error`` — raises :class:`InjectedFaultError` here.
        * ``delay`` — sleeps the rule's ``delay`` here.
        * ``hang``  — blocks until :meth:`release_hangs` (capped by
          ``hang_timeout``) here.
        * ``corrupt`` — returns the event; the caller applies
          :meth:`mangle` to the payload bytes.

        Returns the fired event (or ``None``) so call sites can branch
        on ``corrupt`` without re-deciding.
        """
        event = self._decide(site)
        if event is None:
            return None
        if event.kind == FAULT_ERROR:
            raise InjectedFaultError(site, event.call, FAULT_ERROR)
        if event.kind == FAULT_DELAY:
            self._sleep(self.plan.rules[event.rule_index].delay)
        elif event.kind == FAULT_HANG:
            self._hang_release.wait(self.hang_timeout)
        return event

    def mangle(self, event: FaultEvent, payload: bytes) -> bytes:
        """Deterministically corrupt ``payload`` for a ``corrupt`` event.

        Truncates to half length and flips one hash-chosen byte — enough
        to defeat any structural validation, and a pure function of
        (plan seed, event, payload length) so two runs corrupt
        identically.
        """
        digest = blake2b(
            f"{self.plan.seed}|{event.site}|{event.call}".encode("utf-8"),
            digest_size=8,
        ).digest()
        truncated = bytearray(payload[: max(1, len(payload) // 2)])
        position = int.from_bytes(digest, "big") % len(truncated)
        truncated[position] ^= 0xFF
        return bytes(truncated)

    # -- the reproducible record ----------------------------------------------

    def call_count(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)

    def schedule(self) -> tuple[tuple[str, int, str, int], ...]:
        """Every fired fault, canonically ordered by (site, call).

        The ordering is independent of thread interleaving, so equal
        plans + equal per-site call sequences ⇒ byte-identical
        schedules — the chaos difftest's determinism assertion.
        """
        with self._lock:
            return tuple(
                sorted(
                    (event.as_tuple() for event in self._fired),
                    key=lambda item: (item[0], item[1]),
                )
            )

    def schedule_digest(self) -> str:
        """A stable hex digest of :meth:`schedule` for cheap comparison."""
        digest = blake2b(digest_size=16)
        for site, call, kind, rule_index in self.schedule():
            digest.update(f"{site}|{call}|{kind}|{rule_index};".encode())
        return digest.hexdigest()
