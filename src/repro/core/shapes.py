"""Hash-consed skeleton shapes: the DAG-compression vocabulary.

A :class:`~repro.core.pdt.PDTSkeleton` stores one record per surviving
element — but across an INEX-style repetitive corpus the *structure* of
those records (tags, nesting, which nodes want values or content) is
overwhelmingly shared: every ``article`` record subtree looks like every
other ``article`` record subtree, differing only in its Dewey keys and
leaf values.  Following the DAG-compression line of work (Böttcher et
al., "Efficient XML Keyword Search based on DAG-Compression"), this
module hash-conses those isomorphic subtrees:

* a :class:`Shape` is one distinct subtree structure — ``(tag,
  wants_value, wants_content, child shapes)`` — interned so each
  distinct structure exists **once per process**, within and across
  skeletons;
* a :class:`ShapeTable` is the interning authority an engine (or a
  whole sharded corpus) shares between all its skeletons;
* each shape lazily caches the *preorder columns* of its subtree (tags,
  annotation flags, content-slot positions), so the per-shape
  computation the annotation sweep and the serializer need is performed
  once per distinct structure and reused by every instance.

Digests are :func:`hashlib.blake2b` over a canonical encoding — never
Python ``hash()`` — so shape identity is stable across processes and
``PYTHONHASHSEED`` values, matching the content-digest discipline of
``QPT.content_hash`` and the snapshot store keys.
"""

from __future__ import annotations

import sys
import threading
from hashlib import blake2b
from typing import Iterable, Optional, Sequence

_DIGEST_SIZE = 16


def _shape_digest(
    tag: str, wants_value: bool, wants_content: bool,
    children: Sequence["Shape"],
) -> bytes:
    """Canonical 128-bit structure digest (``PYTHONHASHSEED``-free)."""
    hasher = blake2b(digest_size=_DIGEST_SIZE)
    raw = tag.encode("utf-8")
    hasher.update(len(raw).to_bytes(4, "big"))
    hasher.update(raw)
    hasher.update(
        bytes(((1 if wants_value else 0) | (2 if wants_content else 0),))
    )
    hasher.update(len(children).to_bytes(4, "big"))
    for child in children:
        hasher.update(child.digest)
    return hasher.digest()


class Shape:
    """One distinct subtree structure, interned by content digest.

    Immutable after construction (the lazily-built preorder column
    cache is write-once and idempotent, so a benign compute race between
    threads settles on identical tuples).  ``size`` counts the subtree's
    nodes and ``content_count`` its ``wants_content`` nodes; both are
    O(1) reads precomputed at intern time.
    """

    __slots__ = (
        "digest",
        "tag",
        "wants_value",
        "wants_content",
        "children",
        "size",
        "content_count",
        "_columns",
    )

    def __init__(
        self,
        digest: bytes,
        tag: str,
        wants_value: bool,
        wants_content: bool,
        children: tuple["Shape", ...],
    ):
        self.digest = digest
        self.tag = tag
        self.wants_value = wants_value
        self.wants_content = wants_content
        self.children = children
        self.size = 1 + sum(child.size for child in children)
        self.content_count = (1 if wants_content else 0) + sum(
            child.content_count for child in children
        )
        self._columns: Optional[tuple] = None

    def columns(self) -> tuple[
        tuple[str, ...],
        tuple[bool, ...],
        tuple[bool, ...],
        tuple[int, ...],
    ]:
        """Preorder columns of this subtree, computed once per shape.

        Returns ``(tags, wants_value, wants_content, content_positions)``
        where ``content_positions`` lists the preorder indices of the
        ``wants_content`` nodes.  This is the "per-shape computation
        reused across instances": a skeleton's full columns are pure
        concatenations of its top-level shapes' cached columns, so a
        corpus of a million identically-shaped records derives them from
        one cached copy.
        """
        cached = self._columns
        if cached is not None:
            return cached
        tags: list[str] = []
        wants_value: list[bool] = []
        wants_content: list[bool] = []
        content_positions: list[int] = []
        stack: list[Shape] = [self]
        while stack:
            shape = stack.pop()
            if shape.wants_content:
                content_positions.append(len(tags))
            tags.append(shape.tag)
            wants_value.append(shape.wants_value)
            wants_content.append(shape.wants_content)
            stack.extend(reversed(shape.children))
        cached = (
            tuple(tags),
            tuple(wants_value),
            tuple(wants_content),
            tuple(content_positions),
        )
        self._columns = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"<Shape {self.tag!r} size={self.size} "
            f"digest={self.digest.hex()[:12]}>"
        )


class ShapeTable:
    """Thread-safe interning table: one :class:`Shape` per structure.

    Shareable across every skeleton of an engine — and, via the sharding
    layer, across all shard executors of a corpus — so repetitive
    structure is stored once per *process*, not once per ``(view, doc)``
    pair.  Identity is the canonical blake2b digest, stable across
    processes and hash seeds; a structure-keyed front index keeps the
    digest off the path of every intern after a shape's first.
    """

    def __init__(self) -> None:
        self._shapes: dict[bytes, Shape] = {}
        #: ``(tag, wants_value, wants_content, children) -> shape``: the
        #: front index.  Children are already-interned objects, so an
        #: equal tuple *is* the same structure and a repeat intern —
        #: nearly all of them — is one dict probe, no digest.
        self._by_structure: dict[tuple, Shape] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.interned = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._shapes)

    def intern(
        self,
        tag: str,
        wants_value: bool,
        wants_content: bool,
        children: tuple[Shape, ...],
    ) -> Shape:
        """The canonical shape for this structure (created on first use).

        ``children`` must already be interned in document order.  The
        digest is computed only for a structure the front index has not
        seen, outside the lock; identity stays the digest's, so two
        threads racing to create one structure settle on one shape.
        """
        structure = (tag, wants_value, wants_content, children)
        with self._lock:
            shape = self._by_structure.get(structure)
            if shape is not None:
                self.hits += 1
                return shape
        digest = _shape_digest(tag, wants_value, wants_content, children)
        with self._lock:
            shape = self._shapes.get(digest)
            if shape is not None:
                self.hits += 1
            else:
                shape = Shape(
                    digest, tag, wants_value, wants_content, children
                )
                self._shapes[digest] = shape
                self.interned += 1
            self._by_structure[structure] = shape
            return shape

    def intern_forest(
        self,
        tags: Sequence[str],
        wants_value: Sequence[bool],
        wants_content: Sequence[bool],
        parents: Sequence[int],
    ) -> tuple[Shape, ...]:
        """Intern a whole skeleton's records bottom-up.

        The inputs are preorder columns plus the parent-position array
        (``-1`` for top-level records, parents before children — exactly
        the order :meth:`PDTSkeleton.from_records` produces).  Returns
        the top-level shapes, in document order.
        """
        count = len(tags)
        child_lists: list[list[int]] = [[] for _ in range(count)]
        roots: list[int] = []
        for position, parent in enumerate(parents):
            if parent >= 0:
                child_lists[parent].append(position)
            else:
                roots.append(position)
        shapes: list[Optional[Shape]] = [None] * count
        # Preorder guarantees children sit after their parent, so a
        # reverse sweep interns every child before its parent.
        for position in range(count - 1, -1, -1):
            shapes[position] = self.intern(
                tags[position],
                wants_value[position],
                wants_content[position],
                tuple(shapes[child] for child in child_lists[position]),
            )
        return tuple(shapes[position] for position in roots)

    # -- diagnostics ---------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident footprint of the interned shapes.

        Counts each shape object, its children tuple and its memoized
        preorder columns; tag strings are shared with the skeletons and
        counted once.  This is the *amortized* cost the whole corpus
        pays for its structure vocabulary.
        """
        getsizeof = sys.getsizeof
        total = 0
        seen: set[int] = set()
        with self._lock:
            shapes = list(self._shapes.values())
            total += getsizeof(self._shapes) + getsizeof(self._by_structure)
        for shape in shapes:
            total += 64  # object header + slot storage (no __dict__)
            total += 72  # the front index's key tuple
            total += getsizeof(shape.digest)
            total += getsizeof(shape.children)
            if id(shape.tag) not in seen:
                seen.add(id(shape.tag))
                total += getsizeof(shape.tag)
            columns = shape._columns
            if columns is not None:
                for column in columns:
                    total += getsizeof(column)
        return total

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "shapes": len(self._shapes),
                "interned": self.interned,
                "hits": self.hits,
            }


def forest_columns(
    roots: Iterable[Shape],
) -> tuple[tuple[str, ...], tuple[bool, ...], tuple[bool, ...]]:
    """Concatenated preorder columns of a top-level shape sequence."""
    tags: list[str] = []
    wants_value: list[bool] = []
    wants_content: list[bool] = []
    for root in roots:
        shape_tags, shape_wv, shape_wc, _ = root.columns()
        tags.extend(shape_tags)
        wants_value.extend(shape_wv)
        wants_content.extend(shape_wc)
    return tuple(tags), tuple(wants_value), tuple(wants_content)
