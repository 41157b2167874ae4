"""Skeleton wire-format (v2) + mmap-backed store tests.

The v2 layout is an offset-table header plus packed column arrays, so
a reader can validate a payload and answer identity questions in O(1)
without parsing the columns.  These tests pin down:

* **round trips** — ``from_bytes`` over ``bytes`` and over an ``mmap``
  buffer agree on every column and derived structure and re-serialize
  byte-identically;
* **rejection** — truncation, trailing bytes, bad magic, bad version,
  corrupt offset tables and non-canonical columns all raise, never
  mis-parse: whatever decodes re-encodes to itself;
* **retired versions** — a v1 payload is a counted miss and is reclaimed;
* **the mmap store** — ``mmap_mode=True`` returns decoded skeletons and
  treats corrupt payloads as misses.
"""

from __future__ import annotations

import mmap
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.records import PDTRecord, from_records
from repro.core.pdt import annotate_skeleton
from repro.core.skeleton import (
    PDTSkeleton,
    SkeletonLayout,
    skeleton_payload_version,
)
from repro.core.snapshot import SkeletonStore
from repro.dewey import pack
from repro.storage.inverted_index import Posting, PostingList
from repro.xmlmodel.serializer import serialize
from tests.test_snapshot import _random_records

def _skeleton(seed: int = 11) -> PDTSkeleton:
    rng = random.Random(seed)
    return from_records(
        "doc-ü.xml", _random_records(rng), 37
    )


def _mapping(payload: bytes) -> mmap.mmap:
    mapping = mmap.mmap(-1, len(payload))
    mapping.write(payload)
    return mapping


def _from_mapped_buffer(payload: bytes) -> PDTSkeleton:
    mapping = _mapping(payload)
    try:
        return PDTSkeleton.from_bytes(mapping)
    finally:
        mapping.close()


# ---------------------------------------------------------------------------
# Layout + round trips
# ---------------------------------------------------------------------------


def test_v2_payload_version_and_layout():
    payload = _skeleton().to_bytes()
    assert payload[:4] == b"PDTS"
    assert skeleton_payload_version(payload) == 2
    layout = SkeletonLayout(payload)
    skeleton = _skeleton()
    assert layout.doc_name == skeleton.doc_name
    assert layout.entry_count == skeleton.entry_count
    assert layout.record_count == skeleton.node_count


@pytest.mark.parametrize("seed", range(15))
def test_mapped_skeleton_matches_eager(seed):
    skeleton = _skeleton(seed)
    payload = skeleton.to_bytes()
    eager = PDTSkeleton.from_bytes(payload)
    # Decoded from the buffer, then independent of it: the mapping is
    # closed before any column is read.
    mapped = _from_mapped_buffer(payload)

    assert mapped.doc_name == skeleton.doc_name
    assert mapped.entry_count == skeleton.entry_count
    assert mapped.node_count == skeleton.node_count
    assert mapped.content_count == skeleton.content_count
    for column in ("keys", "tag_ids", "tags", "flags", "values",
                   "byte_lengths", "subtree_bounds"):
        assert (
            getattr(mapped, column)
            == getattr(eager, column)
            == getattr(skeleton, column)
        ), column
    assert mapped.to_bytes() == payload
    assert mapped.memory_bytes == eager.memory_bytes
    assert serialize(mapped.tree) == serialize(skeleton.tree)

    rng = random.Random(seed + 1)
    deweys = sorted(
        {
            tuple(rng.randint(1, 300) for _ in range(rng.randint(1, 5)))
            for _ in range(20)
        }
    )
    inv_lists = {
        "kw": PostingList(
            "kw", [Posting(dewey=d, tf=rng.randint(1, 9)) for d in deweys]
        )
    }
    assert (
        annotate_skeleton(mapped, inv_lists, ("kw",)).tf_arrays
        == annotate_skeleton(eager, inv_lists, ("kw",)).tf_arrays
    )


def test_more_tags_than_the_wire_holds_still_build_and_annotate():
    # The in-memory tag-id column is not the wire's u16: only to_bytes
    # (a configured store) has the limit.
    records = {}
    for number in range(1, 0x10000 + 2):
        key = pack((1, number))
        records[key] = PDTRecord(key, f"t{number}", None, 1, False, True)
    skeleton = from_records("wide.xml", records, len(records))
    assert len(skeleton.tags) == 0x10001
    assert skeleton.tree.children[-1].tag == "t65537"
    postings = PostingList("kw", [Posting(dewey=(1, 0x10001), tf=3)])
    pdt = annotate_skeleton(skeleton, {"kw": postings}, ("kw",))
    assert pdt.tf_arrays["kw"][-1] == 3 and sum(pdt.tf_arrays["kw"]) == 3
    with pytest.raises(ValueError, match="too many distinct tags"):
        skeleton.to_bytes()


# ---------------------------------------------------------------------------
# Rejection
# ---------------------------------------------------------------------------


def test_header_corruption_rejected():
    payload = _skeleton().to_bytes()
    with pytest.raises(ValueError):
        SkeletonLayout(payload[:-1])  # truncated
    with pytest.raises(ValueError):
        SkeletonLayout(payload + b"\x00")  # trailing bytes
    with pytest.raises(ValueError):
        SkeletonLayout(b"XXXX" + payload[4:])  # bad magic
    with pytest.raises(ValueError):
        SkeletonLayout(payload[:10])  # shorter than the header
    mutated = bytearray(payload)
    mutated[5] ^= 0xFF  # version low byte
    with pytest.raises(ValueError):
        SkeletonLayout(bytes(mutated))
    with pytest.raises(ValueError):
        skeleton_payload_version(b"PD")  # too short to carry a version


def test_column_corruption_rejected():
    skeleton = _skeleton(7)
    if skeleton.node_count < 2:
        pytest.skip("degenerate seed")
    payload = bytearray(skeleton.to_bytes())
    # Scribble over the key-offsets table (it starts right after the
    # header + doc name): monotonicity breaks and decoding must raise.
    doc_len = len(skeleton.doc_name.encode("utf-8"))
    offset = 46 + doc_len
    payload[offset : offset + 8] = b"\xff" * 8
    with pytest.raises(ValueError):
        PDTSkeleton.from_bytes(bytes(payload))


def test_non_canonical_columns_rejected():
    """Accepted means canonical: what ``from_records`` would not have
    written does not decode, even where it would parse."""
    records = {
        pack((1, n)): PDTRecord(pack((1, n)), tag, None, 5, False, n == 2)
        for n, tag in ((1, "a"), (2, "b"), (3, "a"))
    }
    payload = from_records("d", records, 3).to_bytes()
    layout = SkeletonLayout(payload)
    assert PDTSkeleton.from_bytes(payload).to_bytes() == payload
    for offset, replacement in (
        (layout.flags_offset, b"\x08"),  # an unknown flag bit
        (layout.flags_offset, b"\x02"),  # more content than the header says
        (layout.tag_ids_offset, b"\x00\x01\x00\x00"),  # b before a
        (layout.tag_ids_offset + 2, b"\x00\x00"),  # b never referenced
        (layout.keys_offset + 2, b"\x01\x00"),  # a component 0 / 0-padded
    ):
        mutant = (
            payload[:offset] + replacement + payload[offset + len(replacement):]
        )
        for decode in (PDTSkeleton.from_bytes, _from_mapped_buffer):
            with pytest.raises(ValueError):
                decode(mutant)


_MUTATION = st.tuples(
    st.sampled_from(("flip", "set", "splice", "swap")),
    st.integers(0, 1 << 30),
    st.binary(min_size=1, max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 14), st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_payload_is_rejected_or_canonical(seed, mutations):
    """Hostile bytes on both decode routes: ``ValueError``, or a
    skeleton that is the payload — never another exception, never a
    skeleton that serializes to something else."""
    payload = bytearray(_skeleton(seed).to_bytes())
    for kind, where, data in mutations:
        at = where % len(payload)
        if kind == "flip":
            payload[at] ^= 1 << (data[0] % 8)
        elif kind == "set":
            payload[at] = data[0]
        elif kind == "splice":
            payload[at:at + len(data)] = data
        else:
            other = (where >> 8) % len(payload)
            payload[at:at + 4], payload[other:other + 4] = (
                payload[other:other + 4], payload[at:at + 4]
            )
    payload = bytes(payload)
    for decode in (PDTSkeleton.from_bytes, _from_mapped_buffer):
        try:
            skeleton = decode(payload)
        except ValueError:
            continue
        assert skeleton.to_bytes() == payload
        assert sum(1 for _ in skeleton.tree.iter()) >= skeleton.node_count


# ---------------------------------------------------------------------------
# The mmap-mode store
# ---------------------------------------------------------------------------


def test_store_mmap_mode_returns_mapped_skeletons(tmp_path):
    store = SkeletonStore(tmp_path / "snap", mmap_mode=True)
    skeleton = _skeleton()
    store.save("f" * 64, "a" * 64, skeleton)
    restored = store.load("f" * 64, "a" * 64)
    # Fully decoded, and equal to what was saved, column for column.
    for column in ("doc_name", "entry_count", "node_count", "content_count",
                   "keys", "tag_ids", "tags", "flags", "values",
                   "byte_lengths", "subtree_bounds"):
        assert getattr(restored, column) == getattr(skeleton, column), column
    assert restored.to_bytes() == skeleton.to_bytes()
    assert store.stats()["hits"] == 1 and store.stats()["misses"] == 0


def test_store_mmap_mode_corrupt_payload_is_a_miss(tmp_path):
    store = SkeletonStore(tmp_path / "snap", mmap_mode=True)
    store.save("f" * 64, "a" * 64, _skeleton())
    path = store.path_for("f" * 64, "a" * 64)
    path.write_bytes(path.read_bytes()[:20])  # truncate mid-header
    assert store.load("f" * 64, "a" * 64) is None
    assert store.stats()["misses"] == 1
    assert not path.exists()  # corrupt snapshot reclaimed


@pytest.mark.parametrize("mmap_mode", (False, True))
def test_v1_payload_is_a_counted_miss_and_reclaimed(tmp_path, mmap_mode):
    # v1 (per-record framing) is no longer read: a store still holding
    # one goes cold for that key once.
    store = SkeletonStore(tmp_path / "snap", mmap_mode=mmap_mode)
    path = store.path_for("f" * 64, "a" * 64)
    path.write_bytes(b"PDTS\x00\x01" + _skeleton().to_bytes()[6:])
    assert skeleton_payload_version(path.read_bytes()) == 1
    assert store.load("f" * 64, "a" * 64) is None
    assert store.stats()["misses"] == 1 and store.stats()["hits"] == 0
    assert not path.exists()


def test_store_prune_counter(tmp_path):
    store = SkeletonStore(tmp_path / "snap")
    store.save("f" * 64, "a" * 64, _skeleton())
    store.save("e" * 64, "b" * 64, _skeleton())
    keep = {SkeletonStore.entry_name("f" * 64, "a" * 64)}
    assert store.prune(keep=keep) == 1
    assert store.prune(keep=keep) == 0
    assert store.stats()["pruned"] == 1
    assert len(store) == 1
