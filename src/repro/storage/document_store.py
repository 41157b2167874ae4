"""Dewey-ordered document storage.

The document store is the "Document Storage" box of the paper's architecture
(Figure 3): the only component that holds full element content.  Phases 1
and 2 (QPT/PDT generation) never touch it; it is consulted only when the
top-k results are materialized — tests assert this via ``access_count``.

Elements are stored as *packed* records sorted by their packed Dewey byte
keys (see :mod:`repro.dewey`), so a subtree is a contiguous range
(``[key, packed_child_bound(key))``) and materialization is a binary
search over flat bytes plus a sequential scan.  Records are deserialized
on access:
the paper's document storage is disk-resident, and charging a decode per
touched record is what keeps the base-data-access cost asymmetry between
the strategies honest (the GTP baseline fetches values per candidate; the
Efficient pipeline touches records only for the top-k winners).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from hashlib import blake2b
from typing import Iterator, Optional, Sequence

from repro.dewey import DeweyID, unpack
from repro.errors import StorageError
from repro.storage.columns import DocumentColumns, document_columns
from repro.xmlmodel.node import XMLNode

_FIELD_SEP = "\x1f"
_NONE_MARK = "\x1e"
_CONTENT_SUM_MODULUS = 1 << 256


@dataclass(frozen=True)
class ElementRecord:
    """One stored element: identity, tag, atomic value and subtree length."""

    dewey: tuple[int, ...]
    tag: str
    value: Optional[str]
    byte_length: int

    @property
    def dewey_id(self) -> DeweyID:
        return DeweyID(self.dewey)


def _pack(tag: str, value: Optional[str], byte_length: int) -> str:
    return _FIELD_SEP.join(
        (tag, _NONE_MARK if value is None else value, str(byte_length))
    )


def _pack_columns(columns: DocumentColumns) -> list[str]:
    """The stored record of every element of a walked subtree."""
    return list(map(_pack, columns.tags, columns.values, columns.lengths))


def _unpack(key: bytes, packed: str) -> ElementRecord:
    tag, value, byte_length = packed.split(_FIELD_SEP)
    return ElementRecord(
        dewey=unpack(key),
        tag=tag,
        value=None if value == _NONE_MARK else value,
        byte_length=int(byte_length),
    )


def _digest_sum(keys: Sequence[bytes], packed: Sequence[str]) -> int:
    """Σ blake2b-256(packed Dewey key ‖ NUL ‖ tag ‖ US ‖ value) over records.

    The stored byte length stays out of the digest: an edit shifts the
    length of every ancestor, and the sum must move only by what the
    edit removed and added.  A packed key has no zero length byte, so
    the NUL ends it.  One hash per record, nothing kept per record.
    """
    total = 0
    from_bytes = int.from_bytes
    for key, record in zip(keys, packed):
        content = record[: record.rindex(_FIELD_SEP)].encode("utf-8")
        total += from_bytes(
            blake2b(key + b"\0" + content, digest_size=32).digest(), "big"
        )
    return total


class DocumentStore:
    """Stores one document's elements in document (Dewey) order.

    ``keys`` are packed Dewey byte keys; their sort order is document
    order, so every lookup is a ``bisect`` over a flat bytes array.
    """

    def __init__(self, keys: list[bytes], packed: list[str]):
        if len(keys) != len(packed):
            raise StorageError("keys and records must align")
        self._keys = keys
        self._packed = packed
        self.access_count = 0
        #: Σ of the per-record digests mod 2²⁵⁶, ``None`` until
        #: :meth:`fingerprint` first asks; kept current by
        #: :meth:`apply_subtree_edit` from then on.
        self.content_sum: Optional[int] = None

    @classmethod
    def from_columns(cls, columns: DocumentColumns) -> "DocumentStore":
        """Build the store from a walked document: pre-order columns are
        already in Dewey order (tuple and packed order coincide), and
        the length column is the canonical serialized subtree length
        used for score normalization.  Keeps the ``keys`` list, whose
        objects the path columns and posting lists share."""
        return cls(columns.keys, _pack_columns(columns))

    @classmethod
    def from_tree(cls, root: XMLNode) -> "DocumentStore":
        """Build the store from a Dewey-labelled tree."""
        return cls.from_columns(document_columns(root, label=False))

    def __len__(self) -> int:
        return len(self._keys)

    def fingerprint(self) -> str:
        """Content digest of the labelled document: the hex of the sum of
        one digest per record (see :func:`_digest_sum`), mod 2²⁵⁶.

        A sum commutes, so the first call is the only whole-document
        pass (not charged to ``access_count`` — nothing is decoded); an
        edit then moves it by the records it touched.  Equal for equal
        labelled content in any process; a cache address, not a MAC.
        """
        if self.content_sum is None:
            self.content_sum = (
                _digest_sum(self._keys, self._packed) % _CONTENT_SUM_MODULUS
            )
        return f"{self.content_sum:064x}"

    # -- delta maintenance -----------------------------------------------------

    def apply_subtree_edit(
        self,
        low_key: bytes,
        high_key: bytes,
        added: DocumentColumns,
        ancestor_keys: tuple[bytes, ...],
        length_delta: int,
    ) -> None:
        """Splice a subtree edit into the record arrays.

        Replaces the record range ``[low_key, high_key)`` with the
        records of the walked payload ``added`` (empty: a delete),
        then shifts the stored byte length of every ancestor in
        ``ancestor_keys`` by ``length_delta``.  Ancestors are proper
        prefixes of ``low_key`` and therefore sort strictly before the
        spliced range, so their indices are unaffected by the splice.
        """
        low = bisect_left(self._keys, low_key)
        high = bisect_left(self._keys, high_key)
        new_keys, new_packed = added.keys, _pack_columns(added)
        if self.content_sum is not None:
            self.content_sum = (
                self.content_sum
                - _digest_sum(self._keys[low:high], self._packed[low:high])
                + _digest_sum(new_keys, new_packed)
            ) % _CONTENT_SUM_MODULUS
        self._keys[low:high] = new_keys
        self._packed[low:high] = new_packed
        if length_delta == 0:
            return
        for key in ancestor_keys:
            index = bisect_left(self._keys, key)
            if index >= len(self._keys) or self._keys[index] != key:
                raise StorageError(f"no stored record for ancestor key {key!r}")
            tag, value, byte_length = self._packed[index].split(_FIELD_SEP)
            self._packed[index] = _FIELD_SEP.join(
                (tag, value, str(int(byte_length) + length_delta))
            )

    # -- lookups -------------------------------------------------------------

    def _locate(self, dewey: DeweyID) -> int:
        key = dewey.packed
        index = bisect_left(self._keys, key)
        if index >= len(self._keys) or self._keys[index] != key:
            raise StorageError(f"no element with id {dewey}")
        return index

    def record(self, dewey: DeweyID) -> ElementRecord:
        """Fetch a single element record (counts as one base-data access)."""
        index = self._locate(dewey)
        self.access_count += 1
        return _unpack(self._keys[index], self._packed[index])

    def subtree_records(self, dewey: DeweyID) -> list[ElementRecord]:
        """All records in the subtree rooted at ``dewey`` (document order)."""
        low = self._locate(dewey)
        high = bisect_left(self._keys, dewey.packed_child_bound())
        self.access_count += high - low
        return [
            _unpack(self._keys[i], self._packed[i]) for i in range(low, high)
        ]

    def iter_records(self) -> Iterator[ElementRecord]:
        """Full scan in document order."""
        self.access_count += len(self._keys)
        for key, packed in zip(self._keys, self._packed):
            yield _unpack(key, packed)

    # -- materialization -------------------------------------------------------

    def materialize_subtree(self, dewey: DeweyID) -> XMLNode:
        """Rebuild the XML subtree rooted at ``dewey`` from stored records."""
        records = self.subtree_records(dewey)
        return build_tree_from_records(records)


def build_tree_from_records(records: list[ElementRecord]) -> XMLNode:
    """Reconstruct a subtree from Dewey-ordered records.

    The first record is the subtree root; each subsequent record's parent is
    the nearest previous record whose Dewey ID is a proper prefix.
    """
    if not records:
        raise StorageError("cannot build a tree from zero records")
    root_record = records[0]
    root = XMLNode(root_record.tag, root_record.value, dewey=root_record.dewey_id)
    stack: list[tuple[tuple[int, ...], XMLNode]] = [(root_record.dewey, root)]
    for record in records[1:]:
        dewey = record.dewey
        while stack and dewey[: len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        if not stack:
            raise StorageError(f"record {record.dewey} outside the subtree")
        node = XMLNode(record.tag, record.value, dewey=record.dewey_id)
        stack[-1][1].append(node)
        stack.append((dewey, node))
    return root
