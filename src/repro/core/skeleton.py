"""The PDT skeleton: a PDT's keyword-independent record columns, which
are also its v2 wire format.

:class:`PDTSkeleton` (built by :func:`repro.core.pdt.build_skeleton`,
:func:`repro.baselines.records.from_records` and
:meth:`PDTSkeleton.from_bytes`) derives its subtree bounds and its tree
on demand; :func:`patch_skeleton_byte_lengths` applies a patchable
edit.  The wire half is :meth:`PDTSkeleton.to_bytes`,
:class:`SkeletonLayout` and :func:`skeleton_payload_version`.
"""

from __future__ import annotations

import struct
import sys
import weakref
from array import array
from bisect import bisect_left
from itertools import accumulate, compress, islice
from typing import Optional

from repro.dewey import DeweyID, packed_child_bound, unpack
from repro.xmlmodel.node import NodeAnnotations, XMLNode

FRAGMENT_TAG = "#fragment"
EMPTY_TAG = "#empty-document"


# What one element of a skeleton column costs beyond its slot (CPython).
_SIZEOF_BYTES = sys.getsizeof(b"")
_SIZEOF_STR = sys.getsizeof("")
_SIZEOF_INT = sys.getsizeof(1 << 20)
_SIZEOF_PAIR = sys.getsizeof((0, 0))

#: ``flags`` bits of one record (the wire's, and the in-memory column's).
_WANTS_VALUE, _WANTS_CONTENT, _HAS_VALUE = 1, 2, 4
_ALL_FLAGS = bytes(range(8))
#: ``flags.translate(_IS_CONTENT)`` is 1 at content records, 0 elsewhere.
_IS_CONTENT = bytes(1 if flag & _WANTS_CONTENT else 0 for flag in range(256))
_VALUELESS_FLAGS = bytes(range(_HAS_VALUE))
_NEXT_BYTE = [bytes((byte + 1,)) for byte in range(0xFF)]


class PDTSkeleton:
    """The keyword-independent structural part of a PDT.

    Everything the merge pass computes — which elements of a ``(view,
    document)`` pair survive the structural ancestor/descendant/predicate
    constraints, their Dewey ids, tags, values and byte lengths — depends
    only on the view's QPT and the document, never on the query keywords
    (keywords enter the pipeline solely as per-element term-frequency
    annotations consumed by scoring).  A skeleton is therefore shared
    across *every* keyword set queried against the same view and
    document; :func:`~repro.core.pdt.annotate_skeleton` merges a query's
    posting lists onto it in one sweep per keyword with zero path-index
    work.

    Its state *is* the v2 wire format's record columns (see the header
    map below), in record (= document) order — one form whether the
    skeleton was built, restored or patched, cached or not:

    * ``keys`` — the packed Dewey keys (sorted; bytes order = document
      order, a byte prefix = an ancestor);
    * ``tag_ids`` / ``tags`` — per record, an index into the distinct
      tags in first-appearance order;
    * ``flags`` — per record, bit 0 wants_value, bit 1 wants_content,
      bit 2 value present;
    * ``values`` — materialized atomic values (``None`` where absent);
    * ``byte_lengths`` — signed, and never written once published: a
      patch publishes a copy; the only copy of a PDT node's byte length
      (queries read it through
      :attr:`~repro.core.pdt.PDTResult.byte_lengths`).

    Derived from the columns on first annotation (or ``put``), because
    only a posting sweep needs them: ``subtree_bounds``, the pair
    ``(bounds, slot_bounds)`` — the sorted, de-duplicated subtree
    boundary keys of all content nodes and, per content slot, the
    ``(low, high)`` indices into ``bounds``;
    one ``PostingList.cumulative_below(bounds)`` sweep per keyword then
    yields every content node's subtree tf by two array reads.

    ``tree``, the assembled PDT tree (values and nesting are
    keyword-independent, so one shared tree serves every keyword set;
    every node carries its record ``position`` and a content node its
    ``slot``: the per-query tfs live in
    :attr:`~repro.core.pdt.PDTResult.tf_arrays`, the byte lengths in the
    ``byte_lengths`` column), is memoized **weakly**: it is built from
    the columns only when a reader asks (the evaluator, through
    :attr:`~repro.core.pdt.PDTResult.root`) and kept alive exactly as
    long as some evaluated-tier entry or evaluation in flight references
    its nodes.  Nothing writes to a tree once it is built,
    and positions and slots are positional, so re-built trees are
    interchangeable.

    Three ways in, each ending in :meth:`_publish`: the structural
    sweep's columns (:func:`repro.core.pdt.build_skeleton`), the
    baselines' records (:func:`repro.baselines.records.from_records`, for
    the stack automaton and the GTP baseline's structural joins) and
    :meth:`from_bytes` (decode and validate a payload).  Every way sets
    every column.
    Skeletons are immutable in practice apart from the byte-length
    column, which a patch replaces; the tree and bound memos are
    idempotent and each published by one attribute write, so a benign
    compute race between annotating threads settles on equivalent
    state — the skeleton tier's concurrent-read contract.
    """

    __slots__ = (
        "doc_name",
        "entry_count",
        "node_count",
        "content_count",
        "keys",
        "tag_ids",
        "tags",
        "flags",
        "values",
        "byte_lengths",
        "_bounds",
        "_tree_ref",
        "_memory_bytes",
    )

    def __init__(self, doc_name: str, entry_count: int, node_count: int):
        self.doc_name = doc_name
        self.entry_count = entry_count
        self.node_count = node_count
        self._bounds: Optional[tuple[tuple, tuple]] = None
        self._tree_ref: Optional[weakref.ref] = None
        self._memory_bytes: Optional[int] = None

    def __repr__(self) -> str:
        return f"<PDTSkeleton {self.doc_name!r} nodes={self.node_count}>"

    # -- the ways in ---------------------------------------------------------

    @classmethod
    def from_bytes(cls, payload) -> "PDTSkeleton":
        """Decode a :meth:`to_bytes` payload — any bytes-like buffer, an
        ``mmap`` included; the skeleton keeps no reference to it.

        Raises ``ValueError`` on any malformed, truncated, non-canonical
        or version-mismatched payload — callers (the snapshot store)
        treat that as a miss, never as corrupt state to serve.
        """
        layout = SkeletonLayout(payload)
        skeleton = cls(
            layout.doc_name, layout.entry_count, layout.record_count
        )
        skeleton._publish(*layout.columns())
        return skeleton

    def _publish(
        self,
        keys: tuple[bytes, ...],
        tag_ids: array,
        tags: tuple[str, ...],
        flags: bytes,
        values: tuple[Optional[str], ...],
        byte_lengths: array,
    ) -> None:
        """Set the columns (the one finalization every way in shares)."""
        self.keys = keys
        self.tag_ids = tag_ids
        self.tags = tags
        self.flags = flags
        self.values = values
        self.byte_lengths = byte_lengths
        self.content_count = flags.translate(_IS_CONTENT).count(1)

    # -- the subtree bounds --------------------------------------------------

    @property
    def subtree_bounds(self) -> tuple[tuple, tuple]:
        """``(bounds, slot_bounds)``, derived on first read: one memo."""
        return self._bounds or self._derive_bounds()

    def _derive_bounds(self) -> tuple[tuple, tuple]:
        keys = self.keys
        content_keys = list(compress(keys, self.flags.translate(_IS_CONTENT)))
        # packed_child_bound, minus the scan for the last component when
        # adding one to it carries nowhere: then only the last byte moves.
        uppers = [
            key[:-1] + _NEXT_BYTE[key[-1]]
            if key[-1] != 0xFF
            else packed_child_bound(key)
            for key in content_keys
        ]
        bounds = tuple(sorted(set(content_keys).union(uppers)))
        index_of = {bound: at for at, bound in enumerate(bounds)}.__getitem__
        slot_bounds = zip(map(index_of, content_keys), map(index_of, uppers))
        self._bounds = pair = (bounds, tuple(slot_bounds))
        return pair

    # -- the shared tree -----------------------------------------------------

    @property
    def tree(self) -> XMLNode:
        ref = self._tree_ref
        tree = ref() if ref is not None else None
        if tree is None:
            tree = self._build_tree()
            self._tree_ref = weakref.ref(tree)
        return tree

    def _build_tree(self) -> XMLNode:
        """Nest the records into the shared tree (Definition 3's edge
        set: parent = nearest emitted ancestor).

        Ids are decoded incrementally — a record's components extend its
        parent's already-decoded tuple by the unpacked key suffix — so
        the pass never re-decodes an ancestor prefix.
        """
        keys = self.keys
        if not keys:
            return XMLNode(EMPTY_TAG)
        tags = self.tags
        tag_ids = self.tag_ids
        flags = self.flags
        values = self.values
        doc_name = self.doc_name
        dewey_ids: list[DeweyID] = []
        stack: list[int] = []
        nodes: list[XMLNode] = []
        top_level: list[XMLNode] = []
        slot_count = 0
        append_dewey = dewey_ids.append
        append_node = nodes.append
        new_dewey = DeweyID.__new__
        new_node = XMLNode.__new__
        new_anno = NodeAnnotations.__new__
        for position, key in enumerate(keys):
            while stack and not key.startswith(keys[stack[-1]]):
                stack.pop()
            if stack:
                parent = stack[-1]
                parent_id = dewey_ids[parent]
                offset = len(parent_id._packed)
                if offset + 1 + key[offset] == len(key):
                    # Single-component suffix (the common case: the
                    # record is a child of the previous record's element).
                    components = parent_id.components + (
                        int.from_bytes(key[offset + 1:], "big"),
                    )
                else:
                    components = parent_id.components + unpack(key[offset:])
            else:
                parent = -1
                components = unpack(key)
            # dewey_from_parts, XMLNode/NodeAnnotations construction and
            # child attachment, unrolled: this loop allocates the whole
            # tree, three objects per record.
            dewey = new_dewey(DeweyID)
            dewey.components = components
            dewey._packed = key
            append_dewey(dewey)
            stack.append(position)
            flag = flags[position]
            node = new_node(XMLNode)
            node.tag = tags[tag_ids[position]]
            node.text = values[position] if flag & _WANTS_VALUE else None
            node.children = []
            node.dewey = None
            anno = new_anno(NodeAnnotations)
            anno.dewey = dewey
            anno.position = position
            anno.doc = doc_name
            if flag & _WANTS_CONTENT:
                anno.pruned = True
                anno.slot = slot_count
                slot_count += 1
            else:
                anno.pruned = False
                anno.slot = None
            node.anno = anno
            append_node(node)
            if parent >= 0:
                parent_node = nodes[parent]
                node.parent = parent_node
                parent_node.children.append(node)
            else:
                node.parent = None
                top_level.append(node)
        if len(top_level) == 1 and len(dewey_ids[0].components) == 1:
            # The document root element itself is in the PDT: it is the tree.
            return top_level[0]
        tree = XMLNode(FRAGMENT_TAG)
        for node in top_level:
            tree.append(node)
        return tree

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Encode as self-contained v2 bytes (see the header map below).

        Only the *record columns* travel — the skeleton's own state,
        joined; what else it carries (subtree bounds, the shared tree) is
        a pure function of the columns and is derived again when read, so
        the wire format cannot drift from the in-memory derivations, and
        a payload is host-independent (no pickled code, no interpreter
        state).

        A fixed offset-table header plus packed column arrays: a reader
        can address any column in O(1) (:class:`SkeletonLayout`) and
        check a payload's shape without parsing it.  The encoding is
        deterministic (tag table in first-appearance order), and
        :meth:`from_bytes` accepts nothing else, so a payload that
        decodes re-encodes to itself.
        """
        keys = self.keys
        tags = self.tags
        if len(tags) > 0xFFFF:
            raise ValueError("too many distinct tags for skeleton payload")
        doc_raw = self.doc_name.encode("utf-8")
        keys_blob = b"".join(keys)
        tag_table = b"".join(
            len(raw).to_bytes(4, "big") + raw
            for raw in [tag.encode("utf-8") for tag in tags]
        )
        value_parts = [
            value.encode("utf-8") for value in self.values if value is not None
        ]
        values_blob = b"".join(value_parts)
        return b"".join(
            (
                _V2_HEADER.pack(
                    _SKELETON_MAGIC,
                    _SKELETON_VERSION,
                    self.entry_count,
                    len(keys),
                    self.content_count,
                    len(value_parts),
                    len(tags),
                    len(doc_raw),
                    len(keys_blob),
                    len(tag_table),
                    len(values_blob),
                ),
                doc_raw,
                _wire_column("I", accumulate(map(len, keys), initial=0)),
                keys_blob,
                _wire_column("H", self.tag_ids),
                tag_table,
                self.flags,
                _wire_column("q", self.byte_lengths),
                _wire_column(
                    "I", accumulate(map(len, value_parts), initial=0)
                ),
                values_blob,
            )
        )

    # -- accounting ----------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Estimated resident footprint (memoized; patches do not move it).

        Counts everything the skeleton owns — every column and both
        bound arrays (derived here if need be); the weakly-held tree is
        evictable derived data, excluded: only query results pin it.

        Arithmetic over the column lengths — container sizes plus a
        per-element constant for what each slot points at — because
        every cache ``put`` reads this, so it must not walk the object
        graph; the tests hold it to within 10% of such a walk.  Lower
        bound keys are the key objects themselves; only an upper bound
        that is no content node's key is an extra ``bytes``.
        """
        cached = self._memory_bytes
        if cached is None:
            getsizeof = sys.getsizeof
            keys = self.keys
            count = len(keys)
            key_bytes = sum(map(len, keys))
            tags = self.tags
            present = [value for value in self.values if value is not None]
            bounds, slot_bounds = pair = self.subtree_bounds
            content_count = self.content_count
            cached = (
                getsizeof(self)
                + getsizeof(keys)
                + count * _SIZEOF_BYTES
                + key_bytes
                + getsizeof(self.tag_ids)
                + getsizeof(tags)
                + len(tags) * _SIZEOF_STR
                + sum(map(len, tags))
                + getsizeof(self.flags)
                + getsizeof(self.values)
                + len(present) * _SIZEOF_STR
                + sum(map(len, present))
                + getsizeof(self.byte_lengths)
                + getsizeof(pair) + getsizeof(bounds)
                + (len(bounds) - content_count)
                * (_SIZEOF_BYTES + key_bytes // max(count, 1))
                + getsizeof(slot_bounds)
                + content_count * _SIZEOF_PAIR
                + len(bounds) * _SIZEOF_INT
            )
            self._memory_bytes = cached
        return cached


_SKELETON_MAGIC = b"PDTS"
_SKELETON_VERSION = 2

# v2 fixed header (big-endian):
#   [0:4]   magic "PDTS"
#   [4:6]   u16 version (= 2)
#   [6:14]  u64 entry_count
#   [14:18] u32 record_count (n)
#   [18:22] u32 content_count
#   [22:26] u32 value_count (m: records whose value is present)
#   [26:30] u32 tag_count (t: distinct tags, first-appearance order)
#   [30:34] u32 doc_name byte length
#   [34:38] u32 keys blob byte length
#   [38:42] u32 tag table byte length
#   [42:46] u32 values blob byte length
# then, back to back (every section offset is O(1) arithmetic over the
# header — a reader addresses any column without parsing the ones
# before it):
#   doc_name utf-8
#   key_offsets   u32[n+1]   (relative, key_offsets[0] == 0)
#   keys blob     (concatenated packed Dewey keys)
#   tag_ids       u16[n]
#   tag table     t × (u32 length + utf-8)
#   flags         u8[n]      (bit0 wants_value, bit1 wants_content,
#                             bit2 value present)
#   byte_lengths  i64[n]     (signed: delta patches legitimately drive a
#                             pruned record's running length negative)
#   value_offsets u32[m+1]   (relative, over value-bearing records in order)
#   values blob   (concatenated utf-8 values)
_V2_HEADER = struct.Struct(">4sHQ8I")
_V2_HEADER_SIZE = _V2_HEADER.size  # 46
_LITTLE_ENDIAN = sys.byteorder == "little"


def _wire_column(typecode: str, values) -> bytes:
    """``values`` as one big-endian wire column."""
    column = array(typecode, values)
    if _LITTLE_ENDIAN:
        column.byteswap()
    return column.tobytes()


def _host_column(typecode: str, raw: bytes) -> array:
    """Inverse of :func:`_wire_column`."""
    column = array(typecode, raw)
    if _LITTLE_ENDIAN:
        column.byteswap()
    return column


def skeleton_payload_version(payload) -> int:
    """The wire version of a skeleton payload (header peek, O(1)).

    Accepts any bytes-like buffer.  Raises ``ValueError`` when the
    payload is too short or carries the wrong magic — the same contract
    as full deserialization.
    """
    if len(payload) < 6 or bytes(payload[0:4]) != _SKELETON_MAGIC:
        raise ValueError("not a PDT skeleton payload")
    return int.from_bytes(bytes(payload[4:6]), "big")


class SkeletonLayout:
    """Validated v2 section offsets over a bytes-like payload.

    Parsing is O(1) in the payload size: the fixed header names every
    section length, so all offsets are arithmetic and the single
    total-length equation rejects truncated or trailing-byte payloads
    up front.  Column *content* is validated when (and only when)
    :meth:`columns` decodes it, so the layout alone is a cheap shape
    check (the networked store's admission of peer bytes).
    """

    __slots__ = (
        "payload",
        "doc_name",
        "entry_count",
        "record_count",
        "content_count",
        "value_count",
        "tag_count",
        "key_index_offset",
        "keys_offset",
        "keys_size",
        "tag_ids_offset",
        "tag_table_offset",
        "tag_table_size",
        "flags_offset",
        "lengths_offset",
        "value_index_offset",
        "values_offset",
        "values_size",
        "total",
    )

    def __init__(self, payload):
        total = len(payload)
        if total < _V2_HEADER_SIZE:
            raise ValueError("truncated PDT skeleton payload")
        version = skeleton_payload_version(payload)
        if version != _SKELETON_VERSION:
            raise ValueError(f"unsupported PDT skeleton version {version}")
        (
            _,
            _,
            entry_count,
            record_count,
            content_count,
            value_count,
            tag_count,
            doc_size,
            keys_size,
            tag_table_size,
            values_size,
        ) = _V2_HEADER.unpack(bytes(payload[:_V2_HEADER_SIZE]))
        self.payload = payload
        self.entry_count = entry_count
        self.record_count = record_count
        self.content_count = content_count
        self.value_count = value_count
        self.tag_count = tag_count
        self.keys_size = keys_size
        self.tag_table_size = tag_table_size
        self.values_size = values_size
        offset = _V2_HEADER_SIZE
        doc_end = offset + doc_size
        self.key_index_offset = doc_end
        self.keys_offset = self.key_index_offset + 4 * (record_count + 1)
        self.tag_ids_offset = self.keys_offset + keys_size
        self.tag_table_offset = self.tag_ids_offset + 2 * record_count
        self.flags_offset = self.tag_table_offset + tag_table_size
        self.lengths_offset = self.flags_offset + record_count
        self.value_index_offset = self.lengths_offset + 8 * record_count
        self.values_offset = self.value_index_offset + 4 * (value_count + 1)
        self.total = self.values_offset + values_size
        if self.total > total:
            raise ValueError("truncated PDT skeleton payload")
        if self.total < total:
            raise ValueError("trailing bytes in PDT skeleton payload")
        try:
            self.doc_name = bytes(payload[offset:doc_end]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError("corrupt PDT skeleton doc name") from exc

    def _section(self, start: int, end: int) -> bytes:
        return bytes(self.payload[start:end])

    # -- column decoders (each validates what it touches) --------------------

    def columns(self) -> tuple:
        """``(keys, tag_ids, tags, flags, values, byte_lengths)`` — a
        :class:`PDTSkeleton`'s columns, or ``ValueError``.

        Accepts exactly what :meth:`PDTSkeleton.to_bytes` writes: sorted,
        well-formed keys, a tag table in first-appearance order with
        every entry referenced, no unknown flag bit, header counts that
        match the flags — so whatever decodes re-encodes to the payload
        it came from, byte for byte.
        """
        flags = self.flags()
        byte_lengths = _host_column(
            "q", self._section(self.lengths_offset, self.value_index_offset)
        )
        return (
            self.keys(), *self.tags(), flags, self.values(flags), byte_lengths
        )

    def keys(self) -> tuple[bytes, ...]:
        offsets = _host_column(
            "I", self._section(self.key_index_offset, self.keys_offset)
        )
        if offsets[0] != 0 or offsets[-1] != self.keys_size:
            raise ValueError("corrupt PDT skeleton key index")
        blob = self._section(self.keys_offset, self.tag_ids_offset)
        keys: list[bytes] = []
        previous = b""
        low = 0
        for high in islice(offsets, 1, None):
            if high <= low or high > len(blob):
                raise ValueError("corrupt PDT skeleton key index")
            key = blob[low:high]
            # The packed form, as pack() writes it: per component a
            # length byte and that many bytes, the first one non-zero
            # (pack(unpack(key)) == key, at a quarter of the cost).
            cursor, size = 0, high - low
            while cursor < size:
                end = cursor + 1 + key[cursor]
                if end == cursor + 1 or end > size or key[cursor + 1] == 0:
                    raise ValueError("corrupt PDT skeleton key")
                cursor = end
            if key <= previous:
                raise ValueError("PDT skeleton keys out of order")
            keys.append(key)
            previous = key
            low = high
        return tuple(keys)

    def tags(self) -> tuple[array, tuple[str, ...]]:
        """Per-record tag ids and the tag table they index."""
        table = self._section(self.tag_table_offset, self.flags_offset)
        names: list[str] = []
        cursor = 0
        for _ in range(self.tag_count):
            size_end = cursor + 4
            tag_end = size_end + int.from_bytes(table[cursor:size_end], "big")
            if size_end > len(table) or tag_end > len(table):
                raise ValueError("corrupt PDT skeleton tag table")
            names.append(table[size_end:tag_end].decode("utf-8"))
            cursor = tag_end
        if cursor != len(table) or len(set(names)) != len(names):
            raise ValueError("corrupt PDT skeleton tag table")
        tag_ids = _host_column(
            "H", self._section(self.tag_ids_offset, self.tag_table_offset)
        )
        # First appearances must read 0, 1, 2, … and reach every entry.
        if list(dict.fromkeys(tag_ids)) != list(range(len(names))):
            raise ValueError("corrupt PDT skeleton tag ids")
        return tag_ids, tuple(names)

    def flags(self) -> bytes:
        flags = self._section(self.flags_offset, self.lengths_offset)
        if flags.translate(None, _ALL_FLAGS):
            raise ValueError("corrupt PDT skeleton flags")
        if sum(flags.translate(_IS_CONTENT)) != self.content_count:
            raise ValueError("corrupt PDT skeleton content count")
        return flags

    def values(self, flags: bytes) -> tuple[Optional[str], ...]:
        offsets = _host_column(
            "I", self._section(self.value_index_offset, self.values_offset)
        )
        if (
            offsets[0] != 0
            or offsets[-1] != self.values_size
            or len(flags.translate(None, _VALUELESS_FLAGS)) != self.value_count
        ):
            raise ValueError("corrupt PDT skeleton value index")
        blob = self._section(self.values_offset, self.total)
        values: list[Optional[str]] = []
        position = 0
        for flag in flags:
            if flag & _HAS_VALUE:
                low, high = offsets[position], offsets[position + 1]
                if high < low or high > len(blob):
                    raise ValueError("corrupt PDT skeleton value index")
                values.append(blob[low:high].decode("utf-8"))
                position += 1
            else:
                values.append(None)
        return tuple(values)


def patch_skeleton_byte_lengths(
    skeleton: PDTSkeleton,
    ancestor_keys: tuple[bytes, ...],
    delta: int,
) -> int:
    """Shift the byte lengths of the edit point's ancestors in a copy.

    The delta-maintenance fast path for edits the engine classified as
    *skeleton-patchable*: no added or removed element matches the view's
    QPT anywhere along its path, so the record set — every record's
    position, the tree and the content-slot bounds — is unchanged; only
    the serialized lengths of the edit point's proper ancestors moved,
    by the same ``delta`` each.  Bisects each ancestor key into the
    sorted key column and shifts its cell of a copy of ``byte_lengths``,
    the one place the length lives, then publishes the copy: no tree is
    touched, or built, and a query or a statistics memo holding the old
    column keeps the lengths it read.  Returns the number of skeleton
    nodes patched; ancestors the skeleton does not materialize are
    skipped — their lengths are simply not part of this view.
    """
    if delta == 0 or not ancestor_keys:
        return 0
    keys = skeleton.keys
    byte_lengths = skeleton.byte_lengths[:]
    count = len(keys)
    patched = 0
    for key in ancestor_keys:
        position = bisect_left(keys, key)
        if position < count and keys[position] == key:
            byte_lengths[position] += delta
            patched += 1
    if patched:
        skeleton.byte_lengths = byte_lengths
    return patched
