"""A three-tier LRU cache for the query-serving pipeline.

Repeated keyword queries are the common case a serving system sees, yet
every search used to re-issue the full PrepareLists probe set and rebuild
every PDT from scratch.  The intermediates are pure functions of stable
inputs, so they cache cleanly — and they split along the keyword axis:

* **Tier 1 — PDT skeletons**: keyed by ``(view, document)`` — no
  keywords.  The skeleton is the keyword-*independent* structural part
  of the PDT (view-relevant paths, Dewey ids, the resolved structural
  joins); see :class:`repro.core.skeleton.PDTSkeleton`.  A hit means a query
  with a *never-seen* keyword set skips all path-index probes and the
  whole merge pass; only per-keyword inverted-list probes and the cheap
  annotation pass remain.  QPTs participate by *content hash*
  (:attr:`repro.core.qpt.QPT.content_hash` — structure + axes +
  annotations), never by object identity: the keys are stable across
  processes and across redefinitions that leave the structure unchanged.
* **Tier 2 — PDT tf columns**: keyed by ``(view, document, keyword)``.
  A keyword enters a PDT only as its own tf column, swept from its own
  inverted list, so the column is the same whichever keywords share
  the query.  A hit skips that keyword's probe and posting sweep, so a
  skeleton rebuilt under held columns probes no inverted list at all
  (PrepareLists' keyword half runs only for the columns the tier lacks).
  Columns are shared read-only across queries: scoring only reads them.
* **Tier 3 — evaluated views**: keyed by ``(view, view definition
  token, per-document generations)`` — no keywords.  PDT trees are
  keyword-independent
  (per-query tfs live in flat arrays *outside* the tree, resolved by
  scoring through content-node slots), so the evaluator's output over
  them — the view's result node list — is keyword-independent too, and
  so is the structural half of the statistics pass over that list
  (:class:`repro.core.scoring.StatisticsPlan`, the entry's value).  A
  hit means a query with a never-seen keyword set skips the whole
  XQuery evaluation and never visits a result node: all that runs is
  the posting sweep of each keyword tier 2 lacks, column sums over the
  plan, and top-k.  Safe because evaluation attaches result nodes by
  reference and nothing downstream writes into them.

Every tier is one :class:`LRUCache` behind one lock, so a tier's whole
capacity is available to whichever keys are hot — residency is the
capacity, never how keys hash.  Serving has at most a few requests in
the engine at once, all under one GIL, so one lock per tier costs
nothing a partitioned tier would save.
Eviction is LRU across queries and scan-resistant within one: a query
sweeping more ``(view, doc)`` keys than a tier holds keeps what it has
already used and drops its own newcomers (``bypassed``) instead of
flooding the tier — see :class:`LRUCache`.

All tiers are invalidated per document through the hooks
:class:`repro.storage.database.XMLDatabase` fires on ``load_document`` /
``drop_document``, and per view (skeletons, tf columns and evaluated
views) when a view name is redefined.  The idea — keep per-view
intermediate structures alive across queries, sharing the structure/data
split — follows the view-maintenance and DAG-compression line of work
(Chebotko & Fu's reconstruction-view selection; Böttcher et al.'s
DAG-compressed search structures).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, NamedTuple, Optional


def hit_rate(counts: Mapping[str, int]) -> float:
    """``hits / (hits + misses)`` of one tier's counts, 0.0 before any
    lookup — a tier's own and a coordinator's summed over its shards."""
    lookups = counts["hits"] + counts["misses"]
    return counts["hits"] / lookups if lookups else 0.0


class TfColumn(NamedTuple):
    """A PDT-tier value: one keyword's tf column over one skeleton's
    content slots — ``values`` is ``None`` when the keyword has no
    postings in the document (all zeros) — and the bytes it holds."""

    values: Optional[list[int]]
    memory_bytes: int

    @classmethod
    def of(cls, values: Optional[list[int]]) -> "TfColumn":
        return cls(values, 0 if values is None else sys.getsizeof(values))


class LRUCache:
    """A size-bounded mapping with least-recently-used eviction — one
    query-cache tier.

    ``capacity <= 0`` disables the cache (every ``get`` misses, ``put`` is
    a no-op), which lets callers turn a tier off without branching.
    Thread-safe: every public operation holds the cache's one lock, so
    counters, snapshots and the LRU chain always describe one instant.

    Each entry is one slot, ``[value, accounted bytes, last use]``, in
    the one ordered map: a hit hashes its key twice (the lookup and the
    move to the MRU end) and stores its stamp into the slot it found.

    Besides the entry-count bound, an optional ``byte_budget`` bounds
    the *bytes* resident in the cache: each value is measured once at
    insertion by its ``memory_bytes`` attribute (skeletons have one;
    anything without one is free, so a budget constrains exactly the
    values that opted into accounting) and LRU entries are evicted
    while the running total exceeds the budget.  A single value larger
    than the whole budget is evicted immediately — a hard budget, not
    advisory.  The running total is exposed as :attr:`memory_bytes`.

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

    The counters are plain int attributes, bumped under the lock the
    operation already holds; :meth:`stats` is their one read.
    """

    #: The integers :meth:`stats` reports — what a coordinator sums over
    #: its shards.  ``memory_bytes`` is a gauge (resident bytes now);
    #: the rest count events.
    COUNTS = (
        "hits", "misses", "evictions", "invalidations", "bypassed",
        "memory_bytes",
    )

    def __init__(self, capacity: int, byte_budget: Optional[int] = None):
        self.capacity = capacity
        self.byte_budget = byte_budget
        self._lock = threading.Lock()
        #: key -> ``[value, accounted bytes, perf_counter reading of its
        #: last use]``, LRU first.
        self._data: OrderedDict[Hashable, list] = OrderedDict()
        self.memory_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Puts dropped instead of admitted because admitting them would
        #: have evicted an entry used since the putting query began (see
        #: :meth:`put`).  The caller still used the value it built.
        self.bypassed = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshed as most recent), or ``None``."""
        return self.get_many((key,))[0]

    def get_many(self, keys: Sequence[Hashable]) -> list[Optional[Any]]:
        """``[self.get(key) for key in keys]`` — the same values, counts
        and LRU order — under one lock and one use stamp."""
        with self._lock:
            now = time.perf_counter()
            lookup, refresh = self._data.get, self._data.move_to_end
            values: list[Optional[Any]] = []
            hits = 0
            for key in keys:
                slot = lookup(key)
                if slot is None:
                    values.append(None)
                else:
                    refresh(key)
                    slot[2] = now
                    values.append(slot[0])
                    hits += 1
            self.hits += hits
            self.misses += len(keys) - hits
            return values

    def items(self) -> list[tuple[Hashable, Any]]:
        """The resident ``(key, value)`` pairs, LRU first — counts no
        hit or miss and refreshes nothing."""
        with self._lock:
            return [(key, slot[0]) for key, slot in self._data.items()]

    def _victim_in_use(self, scan_started: Optional[float]) -> bool:
        """Whether the LRU victim was used since ``scan_started``."""
        if scan_started is None:
            return False
        return next(iter(self._data.values()))[2] >= scan_started

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
        with self._lock:
            if key in self._data or len(self._data) < self.capacity:
                return True
            if self._victim_in_use(scan_started):
                self.bypassed += 1
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
        with self._lock:
            data = self._data
            replaced = data.pop(key, None)
            if replaced is not None:
                self.memory_bytes -= replaced[1]
            size = getattr(value, "memory_bytes", 0)
            data[key] = [value, size, time.perf_counter()]
            self.memory_bytes += size
            budget = self.byte_budget
            while len(data) > self.capacity or (
                budget is not None and self.memory_bytes > budget and data
            ):
                if len(data) > 1 and self._victim_in_use(scan_started):
                    # The victim was used since the putting query began, so
                    # its next use is nearer than the newcomer's can be:
                    # turn the newcomer away.
                    self.memory_bytes -= data.pop(key)[1]
                    self.bypassed += 1
                    break
                _, evicted = data.popitem(last=False)
                self.memory_bytes -= evicted[1]
                self.evictions += 1

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                self.memory_bytes -= self._data.pop(key)[1]
            self.invalidations += len(doomed)
            return len(doomed)

    def rekey_where(
        self,
        predicate: Callable[[Hashable], bool],
        transform: Callable[[Hashable], Hashable],
    ) -> list[tuple[Hashable, Any]]:
        """Move matching entries to ``transform(key)`` and return them.

        The delta-maintenance migration primitive: a surviving entry is
        re-addressed under its new coordinates (e.g. a fresh document
        generation) instead of being dropped and rebuilt.  Moved entries
        become most-recently-used; returns ``(new_key, value)`` pairs so
        the caller can patch the values afterwards.  The slot moves
        whole: byte accounting and the use stamp follow the entry (the
        value is not re-measured, and re-addressing it is not a use).
        """
        moved: list[tuple[Hashable, Any]] = []
        with self._lock:
            data = self._data
            for key in [k for k in data if predicate(k)]:
                slot = data.pop(key)
                new_key = transform(key)
                # Overwrite: drop the displaced entry outright, so the
                # moved one is inserted at the MRU end, not at the
                # displaced key's position.
                displaced = data.pop(new_key, None)
                if displaced is not None:
                    self.memory_bytes -= displaced[1]
                data[new_key] = slot
                moved.append((new_key, slot[0]))
        return moved

    def clear(self) -> int:
        with self._lock:
            count = len(self._data)
            self._data.clear()
            self.memory_bytes = 0
            self.invalidations += count
            return count

    def stats(self) -> dict[str, Any]:
        """:attr:`COUNTS` as of one instant, and the hit rate."""
        with self._lock:
            counts: dict[str, Any] = {
                name: getattr(self, name) for name in self.COUNTS
            }
        counts["hit_rate"] = hit_rate(counts)
        return counts


@dataclass
class QueryCache:
    """The engine's three tiers: PDT skeletons, PDT tf columns and
    evaluated views — one :class:`LRUCache` each.

    Key layouts (positions relied on by the invalidation helpers):

    * skeleton:  ``(view_name, doc_name, generation, qpt_hash)``
    * pdt:       ``(view_name, doc_name, generation, qpt_hash,
      keyword)`` → that keyword's :class:`TfColumn`
    * evaluated: ``(view_name, view_token, ((doc_name, generation,
      qpt_hash), ...))`` → the statistics plan over the result nodes;
      ``view_token`` is the registered
      definition's *identity*: the cached result nodes depend on the
      whole expression (not just the QPT) and are process-local anyway,
      and the identity keeps a put racing a view redefinition
      unreachable forever

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

    #: tf columns are bounded by bytes (``pdt_byte_budget``), not count:
    #: one costs 56 B to a few KB, and a 600-set sweep over two documents
    #: keeps its 150 columns (~300 KB) resident.
    pdt_capacity: int = 4096
    skeleton_capacity: int = 64
    evaluated_capacity: int = 64
    #: Optional per-tier byte budgets (``None`` = unbounded bytes, the
    #: entry-count capacity still applies).  Values report their own
    #: footprint through ``memory_bytes`` (see :class:`LRUCache`) —
    #: skeletons report their columns, not the object graph of the tree
    #: built from them.
    pdt_byte_budget: Optional[int] = 1 << 20
    skeleton_byte_budget: Optional[int] = None
    evaluated_byte_budget: Optional[int] = None
    pdts: LRUCache = field(init=False)
    skeletons: LRUCache = field(init=False)
    evaluated: LRUCache = field(init=False)

    def __post_init__(self) -> None:
        self.pdts = LRUCache(self.pdt_capacity, self.pdt_byte_budget)
        self.skeletons = LRUCache(
            self.skeleton_capacity, self.skeleton_byte_budget
        )
        self.evaluated = LRUCache(
            self.evaluated_capacity, self.evaluated_byte_budget
        )

    # -- keys ---------------------------------------------------------------

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
        keyword: str,
    ) -> tuple:
        key = QueryCache.skeleton_key(view_name, doc_name, generation, qpt_hash)
        return key + (keyword,)  # as the engine extends its skeleton keys

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
        definition (:attr:`repro.core.outcome.View.token`) and hashed by
        address, never the expression, whose dataclass hash is
        structural and uncached: two definitions with identical QPTs but
        different return clauses can never alias, and a put racing a
        view redefinition lands under the dead definition's key, where
        it can never be served — the self-invalidation guarantee the
        other tiers get from generations + content hashes.
        """
        return (view_name, view_token, doc_coordinates)

    # -- invalidation --------------------------------------------------------

    def invalidate_document(self, doc_name: str) -> int:
        """Drop all entries derived from ``doc_name`` (every tier)."""
        dropped = self.skeletons.invalidate_where(lambda k: k[1] == doc_name)
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
        the skeletons' byte-length columns (a patch publishes a copy).  The
        evaluated entries of those views are migrated with the
        generation bump too, whether or not their skeleton is resident:
        a patchable edit keeps the record set, so every record position
        an entry's result nodes read their byte length at is unchanged,
        and whichever skeleton serves the document next — this patched
        one, one restored from the forwarded snapshot, or one rebuilt
        from the edited document — holds the post-edit lengths.
        Everything else derived from the document dies: skeletons of
        non-patchable views or older generations, every tf column (a
        sweep of pre-edit postings), and the remaining evaluated results
        spanning the document.  Returns the moved ``(new_key, skeleton)`` pairs and
        the number of entries dropped.
        """
        moved = self.skeletons.rekey_where(
            lambda k: (
                k[1] == doc_name
                and k[2] == old_generation
                and k[0] in patched_views
            ),
            lambda k: (k[0], k[1], new_generation, k[3]),
        )
        self.evaluated.rekey_where(
            lambda k: k[0] in patched_views
            and any(
                name == doc_name and generation == old_generation
                for name, generation, _ in k[2]
            ),
            lambda k: (
                k[0],
                k[1],
                tuple(
                    (name, new_generation if name == doc_name else gen, h)
                    for name, gen, h in k[2]
                ),
            ),
        )
        dropped = self.skeletons.invalidate_where(
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
        """Drop the skeletons, tf columns and evaluated results of a
        (re)defined view."""
        dropped = self.skeletons.invalidate_where(lambda k: k[0] == view_name)
        dropped += self.pdts.invalidate_where(lambda k: k[0] == view_name)
        dropped += self.evaluated.invalidate_where(lambda k: k[0] == view_name)
        return dropped

    def clear(self) -> int:
        return (
            self.skeletons.clear() + self.pdts.clear() + self.evaluated.clear()
        )

    # -- diagnostics ---------------------------------------------------------

    def stats(self) -> dict[str, dict[str, Any]]:
        """Every tier's counters and byte gauge.

        ``"prepared"`` names the retired prepared-lists tier and reads
        all zero: the layered benchmark still reads its hit rate, and
        the entry retires with that metric (ROADMAP 0 PR A(g)).
        """
        return {
            "prepared": {**dict.fromkeys(LRUCache.COUNTS, 0), "hit_rate": 0.0},
            "skeleton": self.skeletons.stats(),
            "pdt": self.pdts.stats(),
            "evaluated": self.evaluated.stats(),
        }
