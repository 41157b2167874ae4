"""X10 (extension): memory at scale — columnar skeletons + zero-copy restores.

Not a paper figure — this locks down what a skeleton costs to keep and
to restore.  One repetitive corpus (structurally identical feed
documents — see ``repro.bench.experiments.measure_memory``), two claims:

* **memory** — the skeleton tier (each entry is the v2 wire columns,
  nothing shared between entries, nothing left out of the gauge) holds
  the corpus in a fraction of the bytes of the materialized object graph
  — record table, decoded ids, tree — the columns replace;
* **restore** — ``SkeletonStore(mmap_mode=True)`` serves first contact
  by mapping pages and validating the header, instead of decoding every
  column at load.

``test_memory_floors_hold`` is the self-enforcing acceptance criterion:

* tier bytes are **≥ 3x** below a deep walk of that object graph;
* tier bytes at 12×48 stay within **+5%** of 177 968 B — what the
  hash-consed shape DAG (instances + shape table) took before it was
  retired for saving less than that over plain columns;
* the mmap restore is **≥ 2x** faster than the eager decode-restore.

Asserted on every attempt: the tier-backed engine ranks exactly like a
cache-free one, and mapped and eager restores re-serialize
byte-identically.  Bit identity across the seed matrix is the
``compressed`` difftest configuration's job.
"""

from __future__ import annotations

from repro.bench.experiments import measure_memory

MEMORY_FLOOR = 3.0
DAG_TIER_BYTES = 177_968
RESTORE_FLOOR = 2.0


def test_memory_floors_hold():
    """Up to three measurement attempts: scheduler noise can only *hurt*
    a measured ratio, so the timing floor passes if any attempt clears
    it.  The byte figures and the correctness evidence are deterministic
    — they hold on every attempt, or the accounting is broken, not
    noisy."""
    attempts = []
    for _ in range(3):
        numbers = measure_memory()
        assert numbers["identical_results"] == 1.0, (
            "the tier-backed and the cache-free engine ranked the corpus "
            "differently"
        )
        assert numbers["snapshot_bit_identical"] == 1.0, (
            "mapped and eager restores re-serialized to different bytes"
        )
        assert numbers["memory_reduction"] >= MEMORY_FLOOR, (
            f"the columns take only {numbers['memory_reduction']:.2f}x "
            f"fewer bytes ({numbers['column_bytes']:.0f}) than the object "
            f"graph ({numbers['graph_bytes']:.0f}) — floor is "
            f"{MEMORY_FLOOR}x and byte accounting is deterministic"
        )
        assert numbers["column_bytes"] <= DAG_TIER_BYTES * 1.05, (
            f"skeleton tier holds {numbers['column_bytes']:.0f} B, more "
            f"than 5% over the {DAG_TIER_BYTES} B of the shape DAG"
        )
        attempts.append(numbers)
        if numbers["restore_speedup"] >= RESTORE_FLOOR:
            return
    raise AssertionError(
        "mmap restore floor missed in every attempt: "
        + ", ".join(
            f"{n['restore_speedup']:.2f}x (floor {RESTORE_FLOOR}x)"
            for n in attempts
        )
    )
