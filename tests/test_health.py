"""Circuit breaking and shard quarantine: the health state machine.

Clocks are injected everywhere — the quarantine lifecycle (closed →
open → half-open probe → healed or re-opened) is tested by advancing a
fake monotonic clock, never by sleeping.
"""

from __future__ import annotations

import pytest

from repro.core.health import CircuitBreaker, FleetHealth


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.snapshot()["consecutive_failures"] == 2
        assert breaker.snapshot()["quarantines"] == 0

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.snapshot()["consecutive_failures"] == 1

    def test_opens_at_threshold_and_refuses(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after=10.0, clock=clock
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.snapshot()["quarantines"] == 1
        assert not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # everyone else waits for the verdict
        assert not breaker.allow()

    def test_probe_success_heals(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.snapshot()["consecutive_failures"] == 0
        assert breaker.snapshot()["quarantines"] == 1  # lifetime counter survives healing

    def test_probe_failure_reopens_for_a_full_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.snapshot()["quarantines"] == 2
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.1)
        assert breaker.allow()  # next probe

    def test_failures_while_open_do_not_restart_the_cooldown(self):
        """Only a failed *probe* restarts the clock; stray failure
        reports while already open must not push recovery forever out."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=5.0, clock=clock
        )
        breaker.record_failure()
        opened = breaker.snapshot()["quarantines"]
        clock.advance(3.0)
        breaker.record_failure()  # reported by an in-flight straggler
        assert breaker.snapshot()["quarantines"] == opened
        clock.advance(2.0)
        assert breaker.allow()  # original cooldown still elapsed on time


class TestFleetHealth:
    def test_shard_count_must_be_positive(self):
        with pytest.raises(ValueError):
            FleetHealth(0)

    def test_quarantine_lifecycle_per_shard(self):
        clock = FakeClock()
        fleet = FleetHealth(
            3, failure_threshold=2, reset_after=5.0, clock=clock
        )
        assert fleet.snapshot()["quarantined"] == []
        assert fleet.snapshot()["serving"] == 3
        fleet.record_failure(1)
        fleet.record_failure(1)
        assert fleet.snapshot()["quarantined"] == [1]
        assert fleet.snapshot()["serving"] == 2
        assert not fleet.allow(1)
        assert fleet.allow(0) and fleet.allow(2)

        clock.advance(5.0)
        # Half-open is *serving* (its probe), so not quarantined.
        assert fleet.state(1) == "half_open"
        assert fleet.snapshot()["quarantined"] == []
        assert fleet.snapshot()["serving"] == 3
        assert fleet.allow(1)  # the probe
        fleet.record_success(1)
        assert fleet.state(1) == "closed"

    def test_snapshot_is_deterministic_and_complete(self):
        clock = FakeClock()
        fleet = FleetHealth(
            2, failure_threshold=1, reset_after=5.0, clock=clock
        )
        fleet.record_failure(0)
        snapshot = fleet.snapshot()
        assert snapshot == {
            "shards": {
                "0": {
                    "state": "open",
                    "consecutive_failures": 1,
                    "quarantines": 1,
                },
                "1": {
                    "state": "closed",
                    "consecutive_failures": 0,
                    "quarantines": 0,
                },
            },
            "quarantined": [0],
            "serving": 1,
        }
        # Same state twice -> identical structure (stats endpoints
        # serialize this with sort_keys; equality here implies bytes).
        assert fleet.snapshot() == snapshot

    def test_snapshot_reads_each_breaker_once(self):
        # A clock that advances a second per read: the cooldown ends
        # between any two reads of the breaker, so rows and totals
        # derived from separate reads would contradict each other.
        ticks = iter(range(1000))
        fleet = FleetHealth(
            1, failure_threshold=1, reset_after=3.0, clock=lambda: next(ticks)
        )
        fleet.record_failure(0)
        snapshot = fleet.snapshot()
        quarantined = snapshot["quarantined"]
        assert snapshot["serving"] + len(quarantined) == fleet.shard_count
        assert all(
            snapshot["shards"][str(shard)]["state"] == "open"
            for shard in quarantined
        )

    def test_breaker_accessor_exposes_the_real_state_machine(self):
        fleet = FleetHealth(2, failure_threshold=1, clock=FakeClock())
        fleet.record_failure(1)
        assert fleet.breaker(1).state == "open"
        assert fleet.breaker(0).state == "closed"
