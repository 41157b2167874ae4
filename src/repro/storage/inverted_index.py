"""XML inverted-list indices (paper Section 3.2, Figure 4b).

For every keyword the index stores the Dewey-ordered list of elements that
*directly* contain the keyword, one ``(element, tf)`` pair per element.
Because Dewey IDs make a subtree a contiguous ID range, the tf of a
keyword within an arbitrary element's subtree — the quantity the PDT
attaches to 'c' nodes — is a range sum over the posting list, answered in
O(log n) with prefix sums (this plays the role of the "B+-tree built on
top of each inverted list").

Storage layout: each posting list keeps exactly three parallel arrays —
packed Dewey byte keys (see :mod:`repro.dewey`), per-element tfs and the
tf prefix sums (an ``array('q')``, not boxed ints).  :class:`Posting`
objects are synthesized views, decoded on demand; nothing stores the
int-tuple form.  The arrays are filled straight from the ingest walk's
columns (:mod:`repro.storage.columns`), at load and on every edit, each
key being the walk's one object for its element, shared with the document
store and the path columns: no ``Posting`` is allocated, no key re-packed
or copied.  Besides the memory win, the
packed keys make ``cumulative_below`` a single co-sorted sweep: given the
sorted subtree boundary keys of a PDT skeleton, every content node's
subtree tf falls out of one merge-join pass over the list (the array-sweep
annotation path of :func:`repro.core.pdt.annotate_skeleton`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from repro.dewey import DeweyID, pack, unpack
from repro.storage.columns import DocumentColumns, document_columns
from repro.xmlmodel.node import XMLNode


@dataclass(frozen=True)
class Posting:
    """One inverted-list entry: element id and tf.

    A *view* object: posting lists store packed arrays internally and
    synthesize ``Posting`` instances on demand.
    """

    dewey: tuple[int, ...]
    tf: int


class PostingList:
    """Dewey-ordered postings for one keyword with subtree aggregation.

    Storage is three parallel arrays — packed keys, tfs and tf prefix
    sums; ``postings`` decodes them into :class:`Posting` views.
    """

    __slots__ = ("keyword", "_keys", "_tfs", "_cumulative")

    def __init__(self, keyword: str, postings: Iterable[Posting]):
        postings = list(postings)
        self._fill(
            keyword,
            [pack(posting.dewey) for posting in postings],
            [posting.tf for posting in postings],
        )

    @classmethod
    def from_columns(
        cls, keyword: str, keys: list[bytes], tfs: list[int]
    ) -> "PostingList":
        """A list over ready-made storage arrays (document order): it
        keeps both lists and shares the key objects — no :class:`Posting`,
        no key re-packed."""
        plist = cls.__new__(cls)
        plist._fill(keyword, keys, tfs)
        return plist

    def _fill(self, keyword, keys, tfs) -> None:
        self.keyword = keyword
        self._keys = keys
        self._tfs = tfs
        self._cumulative = array("q", accumulate(tfs, initial=0))

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self.postings)

    @property
    def postings(self) -> list[Posting]:
        """Decoded posting views (synthesized; not the storage form)."""
        return [Posting(unpack(key), tf) for key, tf in zip(self._keys, self._tfs)]

    @property
    def keys(self) -> tuple[bytes, ...]:
        """The packed Dewey keys, sorted in document order (a copy —
        the internal storage array is never exposed mutably)."""
        return tuple(self._keys)

    def items_packed(self) -> Iterator[tuple[bytes, int]]:
        """(packed key, tf) pairs straight off the storage arrays.

        The zero-copy form consumed by merge joins (byte comparison is
        document order, ``startswith`` is ancestry) — no per-posting
        decode or ``Posting`` allocation.
        """
        return zip(self._keys, self._tfs)

    def direct_tf(self, dewey: DeweyID) -> int:
        """tf of the keyword directly inside the element ``dewey``."""
        packed = dewey.packed
        index = bisect_left(self._keys, packed)
        if index < len(self._keys) and self._keys[index] == packed:
            return self._tfs[index]
        return 0

    def subtree_tf(self, dewey: DeweyID) -> int:
        """Total tf within the subtree rooted at ``dewey`` (range sum)."""
        low = bisect_left(self._keys, dewey.packed)
        high = bisect_left(self._keys, dewey.packed_child_bound())
        return self._cumulative[high] - self._cumulative[low]

    def contains_subtree(self, dewey: DeweyID) -> bool:
        """Does the subtree rooted at ``dewey`` contain the keyword?"""
        low = bisect_left(self._keys, dewey.packed)
        high = bisect_left(self._keys, dewey.packed_child_bound())
        return high > low

    def cumulative_below(self, bounds: Sequence[bytes]) -> list[int]:
        """Total tf of postings with key < bound, for each sorted bound.

        ``bounds`` must be ascending packed keys.  One merge-join sweep:
        O(len(self) + len(bounds)) — this is the primitive that turns the
        per-content-node binary searches of skeleton annotation into a
        single co-sorted pass per keyword.
        """
        keys = self._keys
        cumulative = self._cumulative
        out: list[int] = []
        i, n = 0, len(keys)
        for bound in bounds:
            while i < n and keys[i] < bound:
                i += 1
            out.append(cumulative[i])
        return out

    def splice_range(
        self, low: bytes, high: bytes, keys: Sequence[bytes], tfs: Sequence[int]
    ) -> None:
        """Replace the postings in ``[low, high)`` with the given storage
        arrays (document order; empty: a pure removal).

        Array surgery on the storage form: keys and tfs are spliced and
        the tf prefix sums rebuilt (one linear pass — the arrays were
        rewritten anyway).
        """
        lo = bisect_left(self._keys, low)
        hi = bisect_left(self._keys, high)
        self._keys[lo:hi] = keys
        self._tfs[lo:hi] = tfs
        self._fill(self.keyword, self._keys, self._tfs)

    def storage_nbytes(self) -> int:
        """Payload bytes of the packed keys the list names.

        Diagnostic used by memory-accounting tests.  The key objects are
        shared with the document store and the path columns, so this is
        what the list reads, not memory it owns.
        """
        return sum(len(key) for key in self._keys)


class InvertedIndex:
    """Inverted-list index for one document."""

    def __init__(self, lists: dict[str, PostingList]):
        self._lists = lists
        self.probe_count = 0

    @classmethod
    def from_columns(cls, columns: DocumentColumns) -> "InvertedIndex":
        """Build the lists from a walked document.  The walk is pre-order,
        i.e. document order, so each keyword's postings arrive sorted;
        every list references the walk's key objects."""
        return cls(
            {
                keyword: PostingList.from_columns(
                    keyword, list(map(columns.keys.__getitem__, rows)), tfs
                )
                for keyword, (rows, tfs) in columns.postings.items()
            }
        )

    @classmethod
    def from_tree(cls, root: XMLNode) -> "InvertedIndex":
        """Tokenize every element's direct text and build the lists."""
        return cls.from_columns(document_columns(root, label=False))

    def apply_subtree_edit(
        self,
        low: bytes,
        high: bytes,
        removed: DocumentColumns,
        added: DocumentColumns,
    ) -> None:
        """Patch the lists for one subtree edit over ``[low, high)``.

        ``removed`` / ``added`` are the walked removed subtree and payload
        (empty when there is none): the keywords of the first are exactly
        the lists holding postings inside the range, the postings of the
        second arrive in document order.  Only the union of the
        two keyword sets is touched; every other list is byte-for-byte
        untouched.  A list left empty is dropped, so vocabulary and
        document frequencies match a from-scratch rebuild.
        """
        for keyword in removed.postings.keys() | added.postings.keys():
            rows, tfs = added.postings.get(keyword, ((), ()))
            keys = list(map(added.keys.__getitem__, rows))
            existing = self._lists.get(keyword)
            if existing is None:
                if keys:
                    self._lists[keyword] = PostingList.from_columns(
                        keyword, keys, tfs
                    )
                continue
            existing.splice_range(low, high, keys, tfs)
            if not len(existing):
                del self._lists[keyword]

    def lookup(self, keyword: str) -> PostingList:
        """The posting list for ``keyword`` (empty list if absent)."""
        self.probe_count += 1
        existing = self._lists.get(keyword)
        if existing is not None:
            return existing
        return PostingList(keyword, [])

    def vocabulary_size(self) -> int:
        return len(self._lists)

    def document_frequency(self, keyword: str) -> int:
        """Number of elements directly containing ``keyword``."""
        return len(self._lists.get(keyword, ()))

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._lists
