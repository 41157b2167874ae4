"""A fixed pure-Python kernel that says how fast this machine is right now.

The kernel (sort + dict + bisect over a fixed pseudo-random sequence)
does the kinds of work the engine's hot paths do and nothing the repo
could ever change, so a latency divided by the kernel's own time is
comparable across runners and across the minutes-long slow spells of a
shared box: :func:`kernel_ms` is interleaved with the measurements, and
the ratio of two :func:`calibrate` calls around a workload says whether
the machine drifted while it was measured.
"""

from __future__ import annotations

import bisect
import time

_SIZE = 80_000


def _kernel() -> int:
    # A linear congruential sequence: the same values on every platform,
    # no dependency on ``random``'s algorithm.
    value, values = 12345, []
    for _ in range(_SIZE):
        value = (value * 1103515245 + 12345) % 2147483648
        values.append(value)
    ordered = sorted(values)
    counts: dict[int, int] = {}
    for item in values:
        bucket = item % 1021
        counts[bucket] = counts.get(bucket, 0) + 1
    checksum = 0
    for item in values[::4]:
        checksum += bisect.bisect_left(ordered, item)
    return checksum + len(counts)


def kernel_ms() -> float:
    """Milliseconds one kernel pass takes right now."""
    started = time.perf_counter()
    _kernel()
    return (time.perf_counter() - started) * 1000.0


def calibrate(rounds: int = 5) -> float:
    """Milliseconds for one kernel pass: the minimum of ``rounds`` (the
    minimum is the machine's speed; everything above it is interference)."""
    return min(kernel_ms() for _ in range(rounds))


if __name__ == "__main__":
    print(f"harness.calib_ms {calibrate():.3f} ms")
