"""Bulk corpus ingestion: plan → parse + index → attach, define and warm.

Standing up a large sharded corpus is a plan, a pass over the documents
and cheap wiring, in the spirit of the loader pipelines in "XML
Reconstruction View Selection in XML Databases" — view-serving state is
precomputed at load time, per partition:

1. **Plan** — parse the view definitions, fragment them, and build a
   :class:`~repro.core.sharding.ShardPlan` whose colocation groups are
   exactly the multi-document fragments (so no view is ever split).
2. **Parse + index** — every document runs through
   :func:`repro.storage.database.index_document` in the calling thread.
   Parsing and indexing are pure Python under one GIL, so a thread pool
   would only add hand-offs (the coordinator's scatter records the same
   for shards).
3. **Attach + define + warm** — each indexed document is attached to
   its home shard's executor (fresh generation, shared immutable
   indices), views are registered fragment-by-fragment, and every view
   is warmed: skeletons built (and persisted when a snapshot directory
   is configured — each shard gets its own ``shard-NN`` subdirectory)
   and the evaluated tiers filled, so the corpus answers its first
   query at full cache depth.

The result is a ready :class:`~repro.core.sharding.CorpusCoordinator`
plus an :class:`IngestReport` manifest (document placements, warm-up
outcomes, per-step timings) that the CLI (``python -m repro.ingest``)
prints as JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.core.placement import ShardPlan, view_fragments
from repro.core.sharding import CorpusCoordinator, ShardExecutor
from repro.core.snapshot import SkeletonStore
from repro.errors import ShardingError
from repro.storage.database import index_document
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query


@dataclass
class IngestReport:
    """The manifest one ingestion run produces."""

    shard_count: int
    documents: dict[str, int]  # document name -> shard id
    views: dict[str, dict[str, str]]  # view -> per-doc warm outcome
    timings: dict[str, float] = field(default_factory=dict)
    snapshot_dir: Optional[str] = None
    pruned: int = 0  # stale snapshot files reclaimed after warm-up

    def as_dict(self) -> dict:
        return {
            "shard_count": self.shard_count,
            "documents": dict(sorted(self.documents.items())),
            "views": {
                name: dict(sorted(hits.items()))
                for name, hits in sorted(self.views.items())
            },
            "timings": self.timings,
            "snapshot_dir": self.snapshot_dir,
            "pruned": self.pruned,
        }


def ingest_corpus(
    documents: Mapping[str, str],
    views: Mapping[str, str],
    shard_count: int = 4,
    snapshot_dir: Optional[Union[str, Path]] = None,
    mmap_snapshots: bool = False,
) -> tuple[CorpusCoordinator, IngestReport]:
    """Build a warm sharded corpus in one call.

    ``documents`` maps document names to XML text; ``views`` maps view
    names to view definition text.  Returns the ready coordinator and
    the ingest manifest.  ``mmap_snapshots`` makes each shard's snapshot
    slice read payloads on restore through a memory mapping instead of
    ``read_bytes`` (see :class:`~repro.core.snapshot.SkeletonStore`).
    """
    timings: dict[str, float] = {}

    # Step 1: plan.  Fragment every view up front so multi-document
    # fragments become colocation groups — the plan can then never split
    # a join across shards.
    start = time.perf_counter()
    parsed = {
        name: inline_functions(parse_query(text))
        for name, text in views.items()
    }
    colocate = []
    for name, expr in parsed.items():
        for fragment in view_fragments(expr):
            for doc in fragment.documents:
                if doc not in documents:
                    raise ShardingError(
                        f"view {name!r} references document {doc!r}, which "
                        "is not part of this ingestion"
                    )
            if len(fragment.documents) > 1:
                colocate.append(fragment.documents)
    plan = ShardPlan.build(sorted(documents), shard_count, colocate=colocate)
    timings["plan"] = time.perf_counter() - start

    # Step 2: parse + index — index_document is shared-nothing.
    start = time.perf_counter()
    indexed = [
        index_document(name, documents[name]) for name in sorted(documents)
    ]
    timings["index"] = time.perf_counter() - start

    # Step 3: attach to home shards, define views, warm everything.
    start = time.perf_counter()
    executors = []
    for shard_id in range(shard_count):
        store = None
        if snapshot_dir is not None:
            store = SkeletonStore(
                Path(snapshot_dir) / f"shard-{shard_id:02d}",
                mmap_mode=mmap_snapshots,
            )
        executors.append(ShardExecutor(shard_id, snapshot_store=store))
    for record in indexed:
        executors[plan.shard_of(record.name)].adopt_document(record)
    coordinator = CorpusCoordinator(executors, plan)
    for name, text in sorted(views.items()):
        coordinator.register_view(name, parsed[name], text)
    timings["attach"] = time.perf_counter() - start

    start = time.perf_counter()
    warm: dict[str, dict[str, str]] = {}
    for name in sorted(views):
        warm[name] = coordinator.warm_view(name)
    timings["warm"] = time.perf_counter() - start

    # The snapshot slices are freshly warmed, so anything else in them
    # (older fingerprints from a previous ingestion into the same
    # directory) is dead weight — reclaim it now.
    pruned = coordinator.prune_snapshots() if snapshot_dir is not None else 0

    report = IngestReport(
        shard_count=shard_count,
        documents=dict(plan.assignments),
        views=warm,
        timings=timings,
        snapshot_dir=str(snapshot_dir) if snapshot_dir is not None else None,
        pruned=pruned,
    )
    return coordinator, report


def ingest_paths(
    doc_paths: Sequence[Union[str, Path]],
    view_specs: Mapping[str, Union[str, Path]],
    **kwargs,
) -> tuple[CorpusCoordinator, IngestReport]:
    """File-path front end for :func:`ingest_corpus` (the CLI's shape).

    Document names are the file stems; ``view_specs`` maps view names
    to files holding their definitions.
    """
    documents: dict[str, str] = {}
    for raw in doc_paths:
        path = Path(raw)
        name = path.stem
        if name in documents:
            raise ShardingError(
                f"two document files share the name {name!r}"
            )
        documents[name] = path.read_text()
    views = {
        name: Path(path).read_text() for name, path in view_specs.items()
    }
    return ingest_corpus(documents, views, **kwargs)
