"""A sharded, three-tier LRU cache for the query-serving pipeline.

Repeated keyword queries are the common case a serving system sees, yet
every search used to re-issue the full PrepareLists probe set and rebuild
every PDT from scratch.  The intermediates are pure functions of stable
inputs, so they cache cleanly — and they split along the keyword axis:

* **Tier 1 — prepared lists**: keyed by ``(document, QPT content hash,
  keywords)``.  A hit skips every path-index and inverted-index probe
  for that document (``probe_count`` stays untouched).  QPTs
  participate by *content hash* (:attr:`repro.core.qpt.QPT.content_hash`
  — structure + axes + annotations), never by object identity: the keys
  are stable across processes and across redefinitions that leave the
  structure unchanged.
* **Tier 2 — PDT skeletons**: keyed by ``(view, document)`` — no
  keywords.  The skeleton is the keyword-*independent* structural part
  of the PDT (view-relevant paths, Dewey ids, the resolved structural
  joins); see :class:`repro.core.pdt.PDTSkeleton`.  A hit means a query
  with a *never-seen* keyword set skips all path-index probes and the
  whole merge pass; only per-keyword inverted-list probes and the cheap
  annotation pass remain.
* **Tier 3 — PDTs**: keyed by ``(view, document, keywords)``.  A hit
  skips PDT work entirely and reuses the pruned tree.  This is safe
  because nothing downstream mutates a PDT: the evaluator references
  PDT nodes without touching their parent pointers, scoring only reads
  annotations, and materialization copies.
* **Tier 4 — evaluated views**: keyed by ``(view, view definition
  token, per-document generations)`` — no keywords.  PDT trees are
  keyword-independent
  (per-query tfs live in flat arrays *outside* the tree, resolved by
  scoring through content-node slots), so the evaluator's output over
  them — the view's result node list — is keyword-independent too, and
  so is the structural half of the statistics pass over that list
  (:class:`repro.core.scoring.StatisticsPlan`, the entry's value).  A
  hit means a query with a never-seen keyword set skips the whole
  XQuery evaluation and never visits a result node: all that runs is
  the per-keyword posting sweep, a flat sum over the plan, and top-k.
  Safe for the same reason as tier 3: evaluation attaches result nodes
  by reference and nothing downstream writes into them.

Every tier is a :class:`ShardedLRUCache`: entries are hash-partitioned
by their ``(doc, view)`` coordinates across independent shards, each
with its own lock and LRU chain, so concurrent workers contend only
when they touch the same shard and capacity scales with the shard
count.  Statistics are kept per shard and aggregated on demand.
Eviction is LRU across queries and scan-resistant within one: a query
sweeping more ``(view, doc)`` keys than a tier holds keeps what it has
already used and drops its own newcomers (``bypassed``) instead of
flooding the tier — see :class:`LRUCache`.

All tiers are invalidated per document through the hooks
:class:`repro.storage.database.XMLDatabase` fires on ``load_document`` /
``drop_document``, and per view (skeletons and PDTs) when a view name
is redefined.  The idea — keep per-view intermediate structures alive
across queries, sharing the structure/data split — follows the
view-maintenance and DAG-compression line of work (Chebotko & Fu's
reconstruction-view selection; Böttcher et al.'s DAG-compressed search
structures).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator, Optional

from repro.core.routing import ShardRouter


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache tier (or one shard).

    ``memory_bytes`` is a *gauge* (the resident-byte estimate at
    snapshot time), not a monotone counter — ``add`` still sums it,
    because aggregating shard gauges yields the tier gauge.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Puts dropped instead of admitted because admitting them would
    #: have evicted an entry used since the putting query began (see
    #: :meth:`LRUCache.put`).  The caller still used the value it built.
    bypassed: int = 0
    memory_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def add(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        self.bypassed += other.bypassed
        self.memory_bytes += other.memory_bytes

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "bypassed": self.bypassed,
            "memory_bytes": self.memory_bytes,
            "hit_rate": self.hit_rate,
        }


def default_sizer(value: Any) -> int:
    """Bytes a cached value reports for budget accounting.

    Values expose a ``memory_bytes`` attribute (skeletons do);
    anything without one is accounted as free, so byte budgets
    constrain exactly the tiers whose values opted into accounting.
    """
    size = getattr(value, "memory_bytes", 0)
    return size if isinstance(size, int) else 0


#: "No such key" for lookups whose values may legitimately be ``None``.
_ABSENT = object()


def close_value(value: Any) -> None:
    """The default on-evict hook: release a value that holds resources.

    Values that own something beyond heap memory expose ``close()`` —
    a skeleton an ``mmap_mode`` store loaded holds an open mapping until
    its columns are decoded, whose pages and file handle survive until
    garbage collection otherwise, a real leak on a long-running server
    whose byte budget keeps churning the skeleton tier.  Everything else
    (prepared lists, PDTs, result tuples) has no ``close`` and is left
    to the collector.
    """
    close = getattr(value, "close", None)
    if callable(close):
        close()


class LRUCache:
    """A size-bounded mapping with least-recently-used eviction.

    ``capacity <= 0`` disables the cache (every ``get`` misses, ``put`` is
    a no-op), which lets callers turn a tier off without branching.  Not
    thread-safe on its own — :class:`ShardedLRUCache` serializes access
    per shard.

    Besides the entry-count bound, an optional ``byte_budget`` bounds
    the *bytes* resident in the cache: each value is measured once at
    insertion by ``sizer`` (default: its ``memory_bytes`` attribute)
    and LRU entries are evicted while the running total exceeds the
    budget.  A single value larger than the whole budget is evicted
    immediately — a hard budget, not advisory.  The running total is
    exposed as :attr:`memory_bytes`.

    Eviction is **scan-resistant**: every entry records when it was last
    used (hit or insert), and a ``put`` that names the moment its query
    began (``scan_started``, a ``time.perf_counter`` reading) never
    displaces an entry used since then — the newcomer is dropped
    instead and counted as ``bypassed``.  A query sweeping more keys
    than the cache holds would otherwise evict every entry just before
    its own next sweep reaches it (sequential flooding: zero hits at any
    capacity below the sweep); a victim used inside the sweep has a
    shorter reuse distance than the newcomer can have, so keeping it is
    the better bet.  Across queries the order is plain LRU, and a
    ``put`` without ``scan_started`` always evicts the LRU tail.

    When the cache drops a value it *owns* — LRU/byte-budget eviction,
    replacement by a different value under the same key, or
    displacement by a :meth:`rekey_where` overwrite — it runs
    ``on_evict`` (default :func:`close_value`) so resource-holding
    values release deterministically instead of leaking until garbage
    collection.  *Invalidation* paths (``invalidate_where``/``clear``)
    deliberately do **not** close: they drop dead-keyed entries that a
    concurrent in-flight query may legitimately still be reading (a
    generation bump lands mid-search), whereas eviction only removes
    the least-recently-used tail the cache alone is keeping alive.
    Pass ``on_evict=None`` to disable the hook.
    """

    def __init__(
        self,
        capacity: int,
        byte_budget: Optional[int] = None,
        sizer: Optional[Callable[[Any], int]] = None,
        on_evict: Optional[Callable[[Any], None]] = close_value,
    ):
        self.capacity = capacity
        self.byte_budget = byte_budget
        self._sizer = sizer or default_sizer
        self._on_evict = on_evict
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        #: Per resident entry: ``[accounted bytes, perf_counter reading
        #: of its last use]``.  One side table, so a ``get`` hashes the
        #: key no more often than before entries carried a stamp.
        self._meta: dict[Hashable, list] = {}
        self.memory_bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshed as most recent), or ``None``."""
        value = self._data.get(key, _ABSENT)
        if value is _ABSENT:
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self._meta[key][1] = time.perf_counter()
        self.stats.hits += 1
        return value

    def items(self) -> list[tuple[Hashable, Any]]:
        """The resident ``(key, value)`` pairs, LRU first — counts no
        hit or miss and refreshes nothing."""
        return list(self._data.items())

    def _forget(self, key: Hashable) -> None:
        """Drop a departed entry's byte accounting and use stamp."""
        self.memory_bytes -= self._meta.pop(key)[0]

    def _release(self, value: Any) -> None:
        """Run the on-evict hook on a value the cache just dropped."""
        if self._on_evict is not None:
            self._on_evict(value)

    def _victim_in_use(self, scan_started: Optional[float]) -> bool:
        """Whether the LRU victim was used since ``scan_started``."""
        if scan_started is None:
            return False
        return self._meta[next(iter(self._data))][1] >= scan_started

    def admits(
        self, key: Hashable, scan_started: Optional[float] = None
    ) -> bool:
        """Whether ``put(key, ..., scan_started)`` would keep the entry.

        Lets a caller skip a ``put`` (which measures the value first)
        that the entry-count bound is about to turn away; a refusal is
        counted as ``bypassed`` here, standing in for the ``put`` the
        caller then omits.  The byte budget cannot be judged before the
        value is measured — ``put`` applies the same rule to it.
        """
        if self.capacity <= 0:
            return False
        if key in self._data or len(self._data) < self.capacity:
            return True
        if self._victim_in_use(scan_started):
            self.stats.bypassed += 1
            return False
        return True

    def put(
        self,
        key: Hashable,
        value: Any,
        scan_started: Optional[float] = None,
    ) -> None:
        if self.capacity <= 0:
            return
        if key in self._data:
            replaced = self._data[key]
            self._data.move_to_end(key)
            self._forget(key)
            if replaced is not value:
                # Entry replacement drops the old value just as finally
                # as eviction does — same release discipline (the old
                # mmap handle used to leak here until GC).
                self._release(replaced)
        self._data[key] = value
        size = self._sizer(value)
        self._meta[key] = [size, time.perf_counter()]
        self.memory_bytes += size
        budget = self.byte_budget
        data = self._data
        while len(data) > self.capacity or (
            budget is not None and self.memory_bytes > budget and data
        ):
            if len(data) > 1 and self._victim_in_use(scan_started):
                # The victim was used since the putting query began, so
                # its next use is nearer than the newcomer's can be:
                # turn the newcomer away.  The caller holds (and is
                # about to use) it — dropped, never released.
                del data[key]
                self._forget(key)
                self.stats.bypassed += 1
                break
            evicted_key, evicted_value = data.popitem(last=False)
            self._forget(evicted_key)
            self.stats.evictions += 1
            if evicted_value is not value:
                # An over-budget value can evict *itself* on insertion;
                # the caller still holds (and is about to use) it, so
                # only drop it — releasing is for values whose last
                # reference was the cache's.
                self._release(evicted_value)

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        doomed = [key for key in self._data if predicate(key)]
        for key in doomed:
            del self._data[key]
            self._forget(key)
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def rekey_where(
        self,
        predicate: Callable[[Hashable], Hashable],
        transform: Callable[[Hashable], Hashable],
    ) -> list[tuple[Hashable, Any]]:
        """Move matching entries to ``transform(key)`` and return them.

        The delta-maintenance migration primitive: a surviving entry is
        re-addressed under its new coordinates (e.g. a fresh document
        generation) instead of being dropped and rebuilt.  Moved entries
        become most-recently-used; returns ``(new_key, value)`` pairs so
        the caller can patch the values in place afterwards.  Byte
        accounting and the use stamp follow the entry (the value is not
        re-measured, and re-addressing it is not a use).
        """
        moved: list[tuple[Hashable, Any]] = []
        for key in [k for k in self._data if predicate(k)]:
            value = self._data.pop(key)
            meta = self._meta.pop(key)
            new_key = transform(key)
            if new_key in self._meta:  # overwrite: drop the old accounting
                self._forget(new_key)
                displaced = self._data.get(new_key)
                if displaced is not None and displaced is not value:
                    self._release(displaced)
            self._data[new_key] = value
            self._meta[new_key] = meta
            moved.append((new_key, value))
        return moved

    def clear(self) -> int:
        count = len(self._data)
        self._data.clear()
        self._meta.clear()
        self.memory_bytes = 0
        self.stats.invalidations += count
        return count


class ShardedLRUCache:
    """Hash-partitioned LRU: independent shards, each with its own lock.

    ``shard_key(key)`` extracts the partition coordinates (for the query
    tiers: the ``(doc, view)`` part of the key, *not* the keywords, so
    all entries of one view/document land in one shard and document
    invalidation touches a predictable place).  ``capacity`` is the
    total across shards; each shard gets an equal slice, so eviction
    pressure is per-partition — one hot view cannot evict the world.

    Thread-safe: every mapping operation takes only its shard's lock;
    ``invalidate_where`` and ``clear`` visit the shards one at a time
    and never hold two locks at once.  Statistics and size snapshots
    (``shard_stats``, ``stats``, ``stats_dict``, ``shard_sizes``,
    ``__len__``) instead hold *every* shard lock for the duration of the
    copy, so the aggregate they report corresponds to one instant of the
    cache's history — counters from different shards are never mixed
    across concurrent updates.  There is still no lock-ordering hazard:
    snapshots are the only path that holds more than one lock, and they
    always acquire in fixed shard order.
    """

    @staticmethod
    def _distribute(total: int, parts: int) -> list[int]:
        """Split ``total`` across ``parts`` without exceeding it.

        The first ``total % parts`` shards take one extra slot, so the
        per-shard slices sum to exactly ``total``.  (The previous ceil
        division handed *every* shard the rounded-up slice, letting the
        aggregate overshoot the configured bound by up to
        ``parts - 1``.)  Note the corollary: with ``total < parts``
        some shards get zero slots — the configured capacity is the
        contract, not a per-shard minimum.
        """
        base, remainder = divmod(total, parts)
        return [
            base + (1 if index < remainder else 0) for index in range(parts)
        ]

    def __init__(
        self,
        capacity: int,
        shards: int = 8,
        shard_key: Optional[Callable[[Hashable], Hashable]] = None,
        router: Optional[ShardRouter] = None,
        byte_budget: Optional[int] = None,
        sizer: Optional[Callable[[Any], int]] = None,
        on_evict: Optional[Callable[[Any], None]] = close_value,
    ):
        self.capacity = capacity
        self.byte_budget = byte_budget
        self.shard_count = max(1, shards)
        if router is not None and router.shard_count != self.shard_count:
            raise ValueError(
                f"router routes onto {router.shard_count} shards but the "
                f"cache has {self.shard_count}"
            )
        #: The shared :class:`~repro.core.routing.ShardRouter` — stable
        #: (no ``PYTHONHASHSEED`` dependence) and shareable with the
        #: serving lanes and the corpus shard plan, so every layer that
        #: partitions by ``(view, doc)`` agrees on placement.
        self.router = router or ShardRouter(self.shard_count)
        capacities = self._distribute(max(capacity, 0), self.shard_count)
        if byte_budget is None:
            budgets: list[Optional[int]] = [None] * self.shard_count
        else:
            budgets = list(
                self._distribute(max(byte_budget, 0), self.shard_count)
            )
        self._shards = [
            LRUCache(capacities[index], budgets[index], sizer, on_evict)
            for index in range(self.shard_count)
        ]
        self._locks = [threading.Lock() for _ in range(self.shard_count)]
        self._shard_key = shard_key or (lambda key: key)

    # -- partitioning --------------------------------------------------------

    def shard_index(self, key: Hashable) -> int:
        return self.router.index(self._shard_key(key))

    @contextmanager
    def _hold_all_locks(self) -> Iterator[None]:
        """Acquire every shard lock, in fixed shard order.

        Deadlock-free: all other code paths hold at most one shard lock
        at a time, and every multi-lock path comes through here with the
        same acquisition order.
        """
        acquired: list[threading.Lock] = []
        try:
            for lock in self._locks:
                lock.acquire()
                acquired.append(lock)
            yield
        finally:
            for lock in reversed(acquired):
                lock.release()

    # -- mapping operations --------------------------------------------------

    def __len__(self) -> int:
        with self._hold_all_locks():
            return sum(len(shard) for shard in self._shards)

    def __contains__(self, key: Hashable) -> bool:
        index = self.shard_index(key)
        with self._locks[index]:
            return key in self._shards[index]

    def get(self, key: Hashable) -> Optional[Any]:
        index = self.shard_index(key)
        with self._locks[index]:
            return self._shards[index].get(key)

    def admits(
        self, key: Hashable, scan_started: Optional[float] = None
    ) -> bool:
        index = self.shard_index(key)
        with self._locks[index]:
            return self._shards[index].admits(key, scan_started)

    def put(
        self,
        key: Hashable,
        value: Any,
        scan_started: Optional[float] = None,
    ) -> None:
        index = self.shard_index(key)
        with self._locks[index]:
            self._shards[index].put(key, value, scan_started)

    def items(self) -> list[tuple[Hashable, Any]]:
        """Every shard's :meth:`LRUCache.items`, as of one instant."""
        with self._hold_all_locks():
            return [item for shard in self._shards for item in shard.items()]

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        dropped = 0
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                dropped += shard.invalidate_where(predicate)
        return dropped

    def rekey_where(
        self,
        predicate: Callable[[Hashable], Hashable],
        transform: Callable[[Hashable], Hashable],
    ) -> list[tuple[Hashable, Any]]:
        """Per-shard :meth:`LRUCache.rekey_where` (one lock at a time).

        ``transform`` must preserve the shard coordinates (for the query
        tiers: the view/document prefix the shard key reads) — the entry
        is reinserted into the shard it was found in.  Generation
        rewrites satisfy this by construction: generations never
        participate in shard selection.
        """
        moved: list[tuple[Hashable, Any]] = []
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                moved.extend(shard.rekey_where(predicate, transform))
        return moved

    def clear(self) -> int:
        dropped = 0
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                dropped += shard.clear()
        return dropped

    # -- diagnostics ---------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters across all shards (a consistent snapshot)."""
        total = CacheStats()
        for snapshot in self.shard_stats():
            total.add(snapshot)
        return total

    def shard_stats(self) -> list[CacheStats]:
        """A per-shard snapshot of the counters, in shard order.

        All shard locks are held while copying, so the snapshot is
        *consistent*: it reflects one instant of the cache's history.
        Visiting shards one at a time instead would let a counter bump
        land between the copies and produce an aggregate state the cache
        was never actually in (e.g. an operation sequenced strictly
        before another shard's already-snapshotted traffic going
        missing from the totals).
        """
        with self._hold_all_locks():
            return [
                CacheStats(
                    hits=shard.stats.hits,
                    misses=shard.stats.misses,
                    evictions=shard.stats.evictions,
                    invalidations=shard.stats.invalidations,
                    bypassed=shard.stats.bypassed,
                    memory_bytes=shard.memory_bytes,
                )
                for shard in self._shards
            ]

    def shard_sizes(self) -> list[int]:
        with self._hold_all_locks():
            return [len(shard) for shard in self._shards]

    @property
    def memory_bytes(self) -> int:
        """Accounted bytes resident across all shards (one instant)."""
        with self._hold_all_locks():
            return sum(shard.memory_bytes for shard in self._shards)

    def stats_dict(self) -> dict[str, Any]:
        """Aggregate counters plus the per-shard breakdown.

        Built from one consistent ``shard_stats`` snapshot, so the
        aggregate equals the shard sum *and* both describe the same
        instant even while other threads keep counting.
        """
        shards = self.shard_stats()
        total = CacheStats()
        for snapshot in shards:
            total.add(snapshot)
        combined = total.as_dict()
        combined["shards"] = [s.as_dict() for s in shards]
        return combined


@dataclass
class QueryCache:
    """The engine's three tiers: prepared lists, PDT skeletons, PDTs.

    Key layouts (positions relied on by the invalidation helpers):

    * prepared:  ``(doc_name, generation, qpt_hash, keywords)`` — sharded
      by ``doc_name``
    * skeleton:  ``(view_name, doc_name, generation, qpt_hash)`` —
      sharded by ``(view_name, doc_name)``
    * pdt:       ``(view_name, doc_name, generation, qpt_hash,
      keywords)`` — sharded by ``(view_name, doc_name)``
    * evaluated: ``(view_name, view_token, ((doc_name, generation,
      qpt_hash), ...))`` → ``(statistics plan over the result nodes,
      {doc_name: PDT root})`` — sharded by ``view_name`` (one entry
      spans every document the view reads, so it cannot partition
      finer); ``view_token`` is the registered definition's *identity*:
      the cached result nodes depend on the whole expression (not just
      the QPT) and are process-local anyway, and the identity keeps a
      put racing a view redefinition unreachable forever

    Keywords never participate in shard selection: all keyword variants
    of one ``(view, doc)`` pair share a shard, so skeleton reuse and
    invalidation are single-shard operations.

    ``qpt_hash`` is the QPT's *content hash*
    (:attr:`repro.core.qpt.QPT.content_hash`), never its object
    identity: a structurally identical QPT built in a fresh process —
    or by re-registering the same view text — produces the same keys,
    which is what lets the persistent skeleton store and any future
    shared tier serve entries across process boundaries.

    Keys are *self-invalidating* under concurrency: the document
    ``generation`` changes on every reload and the content hash changes
    with any structural redefinition, so a cache write that raced with
    either event is keyed by dead coordinates and can never be served
    (a redefinition that leaves the structure identical keeps the old
    entries valid by construction — same hash, same skeletons).  The
    ``invalidate_*`` helpers still drop entries eagerly (memory, not
    correctness).
    """

    prepared_capacity: int = 256
    pdt_capacity: int = 128
    skeleton_capacity: int = 64
    evaluated_capacity: int = 64
    #: Optional per-tier byte budgets (``None`` = unbounded bytes, the
    #: entry-count capacity still applies).  Values report their own
    #: footprint through ``memory_bytes`` (see
    #: :func:`default_sizer`) — skeletons report their columns, not
    #: the object graph of the tree built from them.
    prepared_byte_budget: Optional[int] = None
    pdt_byte_budget: Optional[int] = None
    skeleton_byte_budget: Optional[int] = None
    evaluated_byte_budget: Optional[int] = None
    shard_count: int = 8
    #: The single routing authority for every tier (defaults to a
    #: :class:`~repro.core.routing.ShardRouter` over ``shard_count``).
    #: Passing a shared instance lets the serving layer and the corpus
    #: shard plan route with the *same object* the cache partitions by.
    router: Optional[ShardRouter] = None
    prepared: ShardedLRUCache = field(init=False)
    pdts: ShardedLRUCache = field(init=False)
    skeletons: ShardedLRUCache = field(init=False)
    evaluated: ShardedLRUCache = field(init=False)

    def __post_init__(self) -> None:
        if self.router is None:
            self.router = ShardRouter(self.shard_count)
        self.prepared = ShardedLRUCache(
            self.prepared_capacity,
            self.shard_count,
            shard_key=lambda k: k[0],
            router=self.router,
            byte_budget=self.prepared_byte_budget,
        )
        self.pdts = ShardedLRUCache(
            self.pdt_capacity,
            self.shard_count,
            shard_key=lambda k: k[:2],
            router=self.router,
            byte_budget=self.pdt_byte_budget,
        )
        self.skeletons = ShardedLRUCache(
            self.skeleton_capacity,
            self.shard_count,
            shard_key=lambda k: k[:2],
            router=self.router,
            byte_budget=self.skeleton_byte_budget,
        )
        self.evaluated = ShardedLRUCache(
            self.evaluated_capacity,
            self.shard_count,
            shard_key=lambda k: k[0],
            router=self.router,
            byte_budget=self.evaluated_byte_budget,
        )

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def prepared_key(
        doc_name: str,
        generation: int,
        qpt_hash: object,
        keywords: tuple[str, ...],
    ) -> tuple:
        return (doc_name, generation, qpt_hash, keywords)

    @staticmethod
    def skeleton_key(
        view_name: str, doc_name: str, generation: int, qpt_hash: object
    ) -> tuple:
        return (view_name, doc_name, generation, qpt_hash)

    @staticmethod
    def pdt_key(
        view_name: str,
        doc_name: str,
        generation: int,
        qpt_hash: object,
        keywords: tuple[str, ...],
    ) -> tuple:
        return (view_name, doc_name, generation, qpt_hash, keywords)

    @staticmethod
    def evaluated_key(
        view_name: str,
        view_token: object,
        doc_coordinates: tuple[tuple[str, int, object], ...],
    ) -> tuple:
        """``doc_coordinates``: sorted ``(doc_name, generation, qpt_hash)``.

        Unlike the other tiers, the cached value (the view's result
        nodes) depends on the *whole view expression* — return clauses
        and cross-document predicates included — not just the QPT, and
        it never crosses a process boundary (result nodes are live
        objects).  The key therefore carries the definition's *identity*
        — ``view_token``, an object minted once per registered
        definition (:attr:`repro.core.engine.View.token`) and hashed by
        address, never the expression, whose dataclass hash is
        structural and uncached: two definitions with identical QPTs but
        different return clauses can never alias, and a put racing a
        view redefinition lands under the dead definition's key, where
        it can never be served — the self-invalidation guarantee the
        other tiers get from generations + content hashes.
        """
        return (view_name, view_token, doc_coordinates)

    # -- shard routing -------------------------------------------------------

    def shard_for(self, view_name: str, doc_name: str) -> int:
        """The shard index the ``(view, doc)``-keyed tiers route to.

        The skeleton and PDT tiers share a shard count and both
        partition by the ``(view_name, doc_name)`` prefix of their keys,
        so they agree on this index.  The serving layer uses it to align
        per-``(view, doc)`` concurrency lanes with the cache's
        partitioning: requests that would contend on a shard's lock are
        serialized in front of the cache instead of inside it, and a hot
        view's traffic lands on a predictable lane.

        Delegates to the shared :class:`ShardRouter` — by construction
        identical to ``self.skeletons.shard_index((view_name,
        doc_name))``, and stable across processes.
        """
        return self.router.route(view_name, doc_name)

    # -- invalidation --------------------------------------------------------

    def invalidate_document(self, doc_name: str) -> int:
        """Drop all entries derived from ``doc_name`` (every tier)."""
        dropped = self.prepared.invalidate_where(lambda k: k[0] == doc_name)
        dropped += self.skeletons.invalidate_where(lambda k: k[1] == doc_name)
        dropped += self.pdts.invalidate_where(lambda k: k[1] == doc_name)
        dropped += self.evaluated.invalidate_where(
            lambda k: any(coord[0] == doc_name for coord in k[2])
        )
        return dropped

    def apply_document_delta(
        self,
        doc_name: str,
        old_generation: int,
        new_generation: int,
        patched_views: set[str],
    ) -> tuple[list[tuple[tuple, Any]], int]:
        """Delta-aware invalidation for one sub-document update.

        Skeleton entries of ``patched_views`` (the views the engine
        classified as skeleton-patchable for this edit) are *migrated* to
        the new generation instead of dropped — the caller then patches
        the skeleton objects in place.  An evaluated entry of such a view
        is migrated with it, **iff the tree its result nodes point into
        is, by identity, the live tree of the skeleton just migrated**:
        result nodes reference that shared tree, so the caller's patch
        corrects every byte length scoring will read.  An entry
        evaluated over any other tree (the skeleton was evicted or
        bypassed and rebuilt since) holds lengths nobody patches and is
        dropped.  Everything else derived from the document dies:
        prepared lists (they hold pre-edit index arrays), skeletons of
        non-patchable views or older generations, all PDTs (their tf
        annotations embed pre-edit postings), and the remaining
        evaluated results spanning the document.  Returns the moved
        ``(new_key, skeleton)`` pairs and the number of entries dropped.
        """
        moved = self.skeletons.rekey_where(
            lambda k: (
                k[1] == doc_name
                and k[2] == old_generation
                and k[0] in patched_views
            ),
            lambda k: (k[0], k[1], new_generation, k[3]),
        )
        migrated = {(key[0], key[3]): skeleton for key, skeleton in moved}
        surviving = set()
        if migrated:
            for key, (_, roots) in self.evaluated.items():
                for name, generation, qpt_hash in key[2]:
                    if name == doc_name and generation == old_generation:
                        skeleton = migrated.get((key[0], qpt_hash))
                        if (
                            skeleton is not None
                            and skeleton.tree is roots[doc_name]
                        ):
                            surviving.add(key)
        if surviving:
            self.evaluated.rekey_where(
                surviving.__contains__,
                lambda k: (
                    k[0],
                    k[1],
                    tuple(
                        (name, new_generation if name == doc_name else gen, h)
                        for name, gen, h in k[2]
                    ),
                ),
            )
        dropped = self.prepared.invalidate_where(lambda k: k[0] == doc_name)
        dropped += self.skeletons.invalidate_where(
            lambda k: k[1] == doc_name and k[2] != new_generation
        )
        dropped += self.pdts.invalidate_where(lambda k: k[1] == doc_name)
        dropped += self.evaluated.invalidate_where(
            lambda k: any(
                name == doc_name and generation != new_generation
                for name, generation, _ in k[2]
            )
        )
        return moved, dropped

    def invalidate_view(self, view_name: str) -> int:
        """Drop the skeletons, PDTs and evaluated results of a (re)defined
        view.

        Prepared lists survive: they are keyed by QPT content hash, so a
        structural redefinition keys new entries under a new hash (stale
        ones age out of the LRU) and an identical redefinition keeps
        hitting the still-valid old entries.
        """
        dropped = self.skeletons.invalidate_where(lambda k: k[0] == view_name)
        dropped += self.pdts.invalidate_where(lambda k: k[0] == view_name)
        dropped += self.evaluated.invalidate_where(lambda k: k[0] == view_name)
        return dropped

    def clear(self) -> int:
        return (
            self.prepared.clear()
            + self.skeletons.clear()
            + self.pdts.clear()
            + self.evaluated.clear()
        )

    # -- diagnostics ---------------------------------------------------------

    def stats(self) -> dict[str, dict[str, Any]]:
        """Aggregate + per-shard counters for every tier."""
        return {
            "prepared": self.prepared.stats_dict(),
            "skeleton": self.skeletons.stats_dict(),
            "pdt": self.pdts.stats_dict(),
            "evaluated": self.evaluated.stats_dict(),
        }
