"""The one shard router every layer shares.

Three layers place work onto shards by hashing ``(view, doc)``-style
coordinates: the query cache partitions its tiers
(:class:`repro.core.cache.ShardedLRUCache`), the serving layer routes
requests onto execution lanes, and the corpus sharding layer
(:class:`repro.core.sharding.ShardPlan`) assigns documents to shard
executors.  Before this module each derived its placement
independently (builtin ``hash`` here, an ad-hoc ``hash((view, doc))``
there), which had two failure modes: the placements could silently
disagree — a serving lane no longer aligned with the cache shard it was
supposed to mirror — and builtin ``hash`` of strings is randomized per
process (``PYTHONHASHSEED``), so nothing derived from it was stable
across processes, which a document-to-shard *plan* must be.

:class:`ShardRouter` is that single authority.  It hashes a canonical
byte encoding of the key through BLAKE2b, so routing is

* **deterministic across processes** — no ``PYTHONHASHSEED``
  dependence; the same corpus always partitions the same way, which is
  what lets an ingest manifest or a snapshot directory built by one
  process be picked up by another;
* **shared** — the cache tiers, the serving lanes and the shard plan
  all call the same object (or an equal-configured one), so the three
  can never disagree about where a coordinate lives.
"""

from __future__ import annotations

import hashlib
from typing import Hashable

__all__ = ["ShardRouter"]


def _stable_bytes(key: Hashable) -> bytes:
    """A canonical byte encoding of a routing key.

    Keys are the shard-coordinate parts of cache keys and document
    names: strings, ints and (nested) tuples of them.  ``repr`` is
    stable across processes for those types, and distinct values of one
    type never collide (``repr`` round-trips them).  Arbitrary objects
    still *work* (any ``repr`` partitions deterministically within a
    process) — they just do not promise cross-process stability, which
    only document/view coordinates need.
    """
    return repr(key).encode("utf-8", "backslashreplace")


#: Placements a router remembers before it forgets them all and starts
#: over (a serving process routes the same few coordinates forever; the
#: bound only keeps a pathological key stream from growing the dict).
_MEMO_ENTRIES = 4096


class ShardRouter:
    """Stable hash routing of keys onto ``shard_count`` shards."""

    __slots__ = ("shard_count", "_memo")

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count
        self._memo: dict[Hashable, int] = {}

    def __repr__(self) -> str:
        return f"ShardRouter(shard_count={self.shard_count})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardRouter)
            and other.shard_count == self.shard_count
        )

    def index(self, key: Hashable) -> int:
        """The shard a (cache) key's coordinates route to.

        A pure function of ``key``, so it is memoised: the ``repr`` +
        BLAKE2b is paid once per distinct key, not once per call (the
        cache tiers and the serving lanes ask about the same few
        ``(view, doc)`` coordinates on every request).  The memo is a
        plain dict — ``get`` and item assignment are atomic under the
        GIL, and two threads racing on a miss store the same value.
        It looks keys up by ``==``, which for the documented key types
        (strings, ints, tuples of them) implies an equal ``repr``.
        """
        memo = self._memo
        shard = memo.get(key)
        if shard is None:
            digest = hashlib.blake2b(_stable_bytes(key), digest_size=8).digest()
            shard = int.from_bytes(digest, "big") % self.shard_count
            if len(memo) >= _MEMO_ENTRIES:
                memo.clear()
            memo[key] = shard
        return shard

    def route(self, *coordinates: Hashable) -> int:
        """The shard for explicit coordinates (``route(view, doc)``).

        Equivalent to ``index(coordinates)`` — in particular
        ``route(view, doc)`` agrees with a sharded cache tier whose
        ``shard_key`` extracts the ``(view, doc)`` prefix of its keys,
        which is exactly the alignment the serving lanes rely on.
        """
        return self.index(coordinates)

    def place_document(self, doc_name: str) -> int:
        """The home shard of a document (used by :class:`ShardPlan`)."""
        return self.index((doc_name,))
