"""Placement: which shard holds which documents and view fragments.

A view is fragmented at its top-level sequence boundaries (``(f1, f2,
…)``): each fragment is the placement unit and must live wholly on one
shard — the plan colocates a fragment's documents, and ``define_view``
rejects a plan that would split one.  A shard's fragments, in position
order, are one engine view (:meth:`Fragment.merge`): its slice of the
view, cached and answered as a unit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ShardingError
from repro.xquery.ast import (
    Expr,
    SequenceExpr,
    referenced_documents,
    sequence_items,
)


# -- view fragmentation ---------------------------------------------------------


@dataclass(frozen=True)
class Fragment:
    """One top-level piece of a view's sequence expression — or a
    shard's pieces of one view, merged into one sequence.

    ``positions`` holds each piece's index in the view's sequence, in
    order — the keys for rebasing local result indexes to global view
    positions; ``position`` is the first.  A view fragment is the unit
    of placement: its documents must share a shard.
    """

    positions: tuple[int, ...]
    expr: Expr
    documents: tuple[str, ...]

    @property
    def position(self) -> int:
        return self.positions[0]

    @classmethod
    def merge(cls, fragments: Sequence["Fragment"]) -> "Fragment":
        """View fragments, in position order, as one sequence (always a
        :class:`SequenceExpr`, so each is one top-level item)."""
        ordered = sorted(fragments, key=lambda fragment: fragment.position)
        return cls(
            positions=tuple(fragment.position for fragment in ordered),
            expr=SequenceExpr(tuple(fragment.expr for fragment in ordered)),
            documents=tuple(sorted({d for f in ordered for d in f.documents})),
        )


def view_fragments(expr: Expr) -> tuple[Fragment, ...]:
    """Split a view expression at its top-level sequence boundaries.

    A non-sequence view is a single fragment.  Sequence evaluation is
    fragment-by-fragment concatenation, so per-fragment results at
    rebased indexes reproduce the whole view's result order exactly.
    """
    fragments = []
    for position, item in enumerate(sequence_items(expr)):
        documents = tuple(sorted(referenced_documents(item)))
        if not documents:
            raise ShardingError(
                f"view fragment {position} references no documents; it "
                "cannot be placed on any shard"
            )
        fragments.append(
            Fragment(positions=(position,), expr=item, documents=documents)
        )
    return tuple(fragments)


# -- the shard plan -------------------------------------------------------------


def _home_shard(doc_name: str, shard_count: int) -> int:
    """A document's hash shard: BLAKE2b (8-byte digest) of
    ``repr((doc_name,))``, mod ``shard_count`` — no ``PYTHONHASHSEED``
    dependence, so every process partitions a corpus the same way (an
    ingest manifest or a snapshot directory outlives the process that
    built it)."""
    key = repr((doc_name,)).encode("utf-8", "backslashreplace")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") % shard_count


@dataclass(frozen=True)
class ShardPlan:
    """An immutable document-to-shard assignment.

    Built either by hashing (``build`` — the production path, stable
    across processes) or verbatim (``from_assignments`` — the difftest
    path, which sweeps randomized placements).
    """

    shard_count: int
    assignments: Mapping[str, int]

    @classmethod
    def build(
        cls,
        doc_names: Sequence[str],
        shard_count: int,
        colocate: Sequence[Sequence[str]] = (),
    ) -> "ShardPlan":
        """Hash-partition documents, honoring colocation constraints.

        ``colocate`` groups (typically one group per multi-document view
        fragment) are placed as units: union-find merges overlapping
        groups, each component's *leader* is its lexicographically
        smallest document, and the whole component lands on the leader's
        hash shard — deterministic, and independent of group order.
        """
        if shard_count < 1:
            raise ShardingError(f"shard_count must be >= 1, got {shard_count}")
        parent = {name: name for name in doc_names}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for group in colocate:
            group = list(group)
            for doc in group:
                if doc not in parent:
                    raise ShardingError(
                        f"colocation constraint references unknown "
                        f"document {doc!r}"
                    )
            for doc in group[1:]:
                parent[find(doc)] = find(group[0])

        leaders: dict[str, str] = {}
        for name in parent:
            root = find(name)
            if root not in leaders or name < leaders[root]:
                leaders[root] = name
        assignments = {
            name: _home_shard(leaders[find(name)], shard_count)
            for name in parent
        }
        return cls(shard_count=shard_count, assignments=assignments)

    @classmethod
    def from_assignments(
        cls, assignments: Mapping[str, int], shard_count: int
    ) -> "ShardPlan":
        for name, shard in assignments.items():
            if not 0 <= shard < shard_count:
                raise ShardingError(
                    f"document {name!r} assigned to shard {shard}, outside "
                    f"[0, {shard_count})"
                )
        return cls(shard_count=shard_count, assignments=dict(assignments))

    def shard_of(self, doc_name: str) -> int:
        try:
            return self.assignments[doc_name]
        except KeyError:
            raise ShardingError(
                f"document {doc_name!r} is not in the shard plan"
            ) from None

    def documents_for(self, shard_id: int) -> list[str]:
        return sorted(
            name
            for name, shard in self.assignments.items()
            if shard == shard_id
        )

