"""Warm-up planning: pre-build hot views' cached state at startup.

A freshly started server answers its first queries cold — every one
pays path-index probes, the structural merge and a full view
evaluation.  For views known to be hot, that cost is better paid before
the server starts accepting traffic: one ``build_skeleton`` per
``(view, document)`` pair (plus the keyword-independent evaluation)
means every first-contact keyword query runs the warm array-sweep path.

``plan_warmup`` turns view names into explicit per-``(view, doc)``
targets, and ``execute_warmup`` runs the plan through the engine and
reports what was actually built versus restored versus already warm.
The engine may be a lone ``KeywordSearchEngine`` or a
``CorpusCoordinator``; both answer every method used here.

When the engine carries a persistent skeleton store
(:class:`repro.core.snapshot.SkeletonStore`), warming restores
skeletons snapshotted by an earlier process instead of rebuilding them
(reported per target as ``"restored"``), and snapshots whatever it does
build — a restarted fleet member warms from disk, not from path
probes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.engine import KeywordSearchEngine


@dataclass(frozen=True)
class WarmupTarget:
    """One ``(view, document)`` pair to pre-warm."""

    view: str
    doc: str


@dataclass
class WarmupReport:
    """What a warm-up pass did, per target."""

    targets: list[WarmupTarget] = field(default_factory=list)
    #: ``(view, doc) -> "built"`` (skeleton constructed by this pass),
    #: ``"restored"`` (loaded from the persistent snapshot store —
    #: warm-from-snapshot, no path probes, no merge pass), ``"warm"``
    #: (a prior query or warm-up already filled the in-memory tier) or
    #: ``"failed"`` (the view raised mid-warm-up — dropped or redefined
    #: between planning and execution; the server starts without it).
    results: dict[tuple[str, str], str] = field(default_factory=dict)
    #: ``view -> error string`` for every view that failed to warm.
    errors: dict[str, str] = field(default_factory=dict)
    #: ``view -> {"warmed": n, "resident": m}``: targets the pass warmed
    #: against targets whose skeleton is in the skeleton tier once it
    #: finished.  ``m < n`` reads "the tier is smaller than the view"
    #: (the rest are rebuilt by every query), not "cold".
    views: dict[str, dict[str, int]] = field(default_factory=dict)
    duration: float = 0.0
    #: Stale snapshot files reclaimed after warming (snapshots no live
    #: ``(document, view)`` coordinate can restore any more).
    pruned: int = 0
    #: Networked snapshot tier activity during this pass (all zero when
    #: the engine's store is purely local): snapshots fetched from a
    #: peer, fetch attempts that failed after retries, and misses that
    #: fell back to the local cold build.
    fetched: int = 0
    fetch_failed: int = 0
    fell_back: int = 0
    #: Concurrent same-key misses coalesced into one fetch (the
    #: networked store's single-flight guard) during this pass.
    coalesced: int = 0
    #: Shards quarantined (breaker open) when the pass finished, by the
    #: engine's ``health_snapshot`` (a lone engine has none).
    quarantined_shards: tuple[int, ...] = ()

    @property
    def built_count(self) -> int:
        return sum(1 for state in self.results.values() if state == "built")

    @property
    def restored_count(self) -> int:
        return sum(
            1 for state in self.results.values() if state == "restored"
        )

    @property
    def warm_count(self) -> int:
        return sum(1 for state in self.results.values() if state == "warm")

    @property
    def failed_count(self) -> int:
        return sum(1 for state in self.results.values() if state == "failed")

    def as_dict(self) -> dict:
        return {
            "targets": [
                {"view": t.view, "doc": t.doc}
                for t in self.targets
            ],
            "built": self.built_count,
            "restored": self.restored_count,
            "already_warm": self.warm_count,
            "failed": self.failed_count,
            "errors": dict(self.errors),
            "views": {
                name: dict(counts) for name, counts in self.views.items()
            },
            "duration": self.duration,
            "pruned": self.pruned,
            "fetched": self.fetched,
            "fetch_failed": self.fetch_failed,
            "fell_back": self.fell_back,
            "coalesced": self.coalesced,
            "quarantined_shards": list(self.quarantined_shards),
        }


def plan_warmup(
    engine: "KeywordSearchEngine", view_names: Sequence[str]
) -> list[WarmupTarget]:
    """Expand view names into deduplicated ``(view, doc)`` targets.

    Unknown view names raise ``ViewDefinitionError`` immediately —
    a warm-up plan that silently skips a typo'd hot view would defeat
    its purpose.  Targets keep the caller's view order (then document
    order within a view), matching the order ``execute_warmup`` warms.
    """
    targets: list[WarmupTarget] = []
    seen: set[str] = set()
    for name in view_names:
        if name in seen:
            continue
        seen.add(name)
        view = engine.get_view(name)
        for doc_name in view.document_names:
            targets.append(WarmupTarget(view=name, doc=doc_name))
    return targets


def execute_warmup(
    engine: "KeywordSearchEngine", targets: Sequence[WarmupTarget]
) -> WarmupReport:
    """Warm every target through ``engine.warm_view``; report per pair.

    Synchronous and engine-bound — the server runs it in its thread
    pool so startup warming does not block the event loop.

    Per-view failures are tolerated: a view dropped or redefined between
    ``plan_warmup`` and execution marks its targets ``"failed"`` (with
    the error under :attr:`WarmupReport.errors`) and warming continues
    with the remaining views — a stale plan entry must not keep the
    whole server from starting.  When the engine's snapshot store has a
    networked tier, the pass also records how many snapshots it fetched
    from the peer versus failed or fell back (delta of the network
    counters in ``engine.stats()`` across the pass; a local store has
    none, so they read zero).
    """
    from repro.errors import ReproError

    report = WarmupReport(targets=list(targets))
    start = time.perf_counter()
    store_before = engine.stats()["snapshot_store"]
    docs_of: dict[str, list[str]] = {}
    for target in targets:
        docs_of.setdefault(target.view, []).append(target.doc)
    for view_name in docs_of:
        try:
            cache_hits = engine.warm_view(view_name)
        except ReproError as exc:
            for doc_name in docs_of[view_name]:
                report.results[(view_name, doc_name)] = "failed"
            report.errors[view_name] = f"{type(exc).__name__}: {exc}"
            continue
        for doc_name, hit in cache_hits.items():
            if hit == "miss":
                state = "built"
            elif hit == "snapshot":
                state = "restored"
            else:
                state = "warm"
            report.results[(view_name, doc_name)] = state
        report.views[view_name] = {
            "warmed": len(cache_hits),
            "resident": len(engine.resident_documents(view_name)),
        }
    store_after = engine.stats()["snapshot_store"]
    for counter in ("fetched", "fetch_failed", "fell_back", "coalesced"):
        setattr(
            report,
            counter,
            store_after.get(counter, 0) - store_before.get(counter, 0),
        )
    # Which shards sat out the pass in quarantine — their views warmed
    # fail-soft above.
    report.quarantined_shards = tuple(
        engine.health_snapshot().get("quarantined", ())
    )
    # Every warm view just re-saved its snapshots under the current
    # fingerprints, so anything unreachable in the store is stale —
    # reclaim it while we hold the startup window.
    report.pruned = engine.prune_snapshots()
    report.duration = time.perf_counter() - start
    return report
