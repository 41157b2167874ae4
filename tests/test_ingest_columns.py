"""Property: columnar ingest equals the definitions.

``index_document`` fills the document store, the path index and the
inverted index from one walk (:mod:`repro.storage.columns`), and a
sub-document edit runs the same walk over its payload.  Here every
structure is recomputed from the live tree by the shortest code that
states its definition — the serializer is the independent oracle for
byte lengths, ``Counter(tokenize(text))`` for postings — over generated
trees, with dense labels and with the ordinal holes edits leave behind.
Only text is tokenized: a tag name is never a posting.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.dewey import pack
from repro.storage.database import XMLDatabase, index_document
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tokenizer import tokenize

_TAGS = ["a", "b", "item", "Sub-Part", "x1"]
_TEXTS = [
    None,
    "",
    "   ",
    "\n\t ",
    "xml search",
    "XML xml Xml",
    "a & b < c > d",
    "&amp; already",
    " padded  value ",
    "7",
    "07",
    "7.0",
    "1e3",
    "-0",
    "nan",
    "İstanbul KelvinK",
    "x1 item b",
]


def _random_tree(rng: random.Random) -> XMLNode:
    """Repeated tags at several depths, so most paths hold several
    elements under several distinct ancestors."""
    root = XMLNode(rng.choice(_TAGS), rng.choice(_TEXTS))

    def grow(node: XMLNode, depth: int) -> None:
        for _ in range(rng.randint(0, 3) if depth < 4 else 0):
            grow(node.make_child(rng.choice(_TAGS[:3]), rng.choice(_TEXTS)), depth + 1)

    while not root.children:
        grow(root, 0)
    return root


def _mutate(db: XMLDatabase, rng: random.Random, count: int) -> None:
    """A few inserts / deletes / replaces at random nodes: leaves ordinal
    holes and re-used ordinals behind."""
    for _ in range(count):
        nodes = list(db.get("d").document.root.iter())
        target = rng.choice(nodes)
        payload = XMLNode(rng.choice(_TAGS[:3]), rng.choice(_TEXTS))
        payload.make_child(rng.choice(_TAGS[:3]), rng.choice(_TEXTS))
        kind = rng.choice(["insert", "delete", "replace"])
        if kind == "insert" or target.parent is None:
            db.insert_subtree("d", target.dewey, payload)
        elif kind == "delete":
            db.delete_subtree("d", target.dewey)
        else:
            db.replace_subtree("d", target.dewey, payload)


def _paths(root: XMLNode):
    """(node, root-to-node tag path) in document order."""
    stack = [(root, (root.tag,))]
    while stack:
        node, path = stack.pop()
        yield node, path
        stack.extend((c, path + (c.tag,)) for c in reversed(node.children))


def _assert_is_the_definition(indexed):
    root = indexed.document.root
    nodes = list(root.iter())
    # Document order is key order, labels dense or not.
    keys = [pack(node.dewey.components) for node in nodes]
    assert keys == sorted(keys)

    # -- document store: one record per element --------------------------------
    assert indexed.store._keys == keys
    assert [
        (r.dewey, r.tag, r.value, r.byte_length)
        for r in indexed.store.iter_records()
    ] == [
        (n.dewey.components, n.tag, n.value, len(serialize(n))) for n in nodes
    ]

    # -- inverted index: Counter(tokenize(text)) per element --------------------
    expected: dict[str, list] = {}
    for node in nodes:
        for token, tf in Counter(tokenize(node.text or "")).items():
            expected.setdefault(token, []).append((node.dewey.components, tf))
    actual = {
        keyword: [(p.dewey, p.tf) for p in plist.postings]
        for keyword, plist in indexed.inverted_index._lists.items()
    }
    assert actual == expected

    # -- path index: columns, per-depth ancestor arrays -------------------------
    index = indexed.path_index
    columns: dict = {}
    for node, path in _paths(root):
        columns.setdefault(path, []).append(
            (pack(node.dewey.components), len(serialize(node)), node.value)
        )
    for path_id, path in enumerate(index.data_paths):
        arrays = index._path_arrays.get(path_id)
        if path not in columns:  # emptied by a delete: the id stays interned
            assert arrays is None
            assert index.ancestors_on_path(path_id, len(path)) == []
            continue
        assert list(zip(*arrays[:3])) == [
            (key, value, length) for key, length, value in columns[path]
        ]
        for depth in range(1, len(path) + 1):
            assert index.ancestors_on_path(path_id, depth) == sorted(
                {
                    pack(node.dewey.components[:depth])
                    for node, node_path in _paths(root)
                    if node_path == path
                }
            )
    assert {index.data_paths[i] for i in index._path_arrays} == set(columns)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000_000),
    edits=st.integers(min_value=0, max_value=5),
)
def test_columnar_ingest_is_the_definition(seed, edits):
    rng = random.Random(seed)
    db = XMLDatabase()
    live = db.load_document("d", _random_tree(rng))
    _assert_is_the_definition(live)
    fingerprint = live.fingerprint  # from here on maintained by the edits

    _mutate(db, rng, edits)
    # The delta-maintained state, holes and all ...
    _assert_is_the_definition(live)
    # ... and a rebuild of the pre-labelled tree, which keeps the holes.
    rebuilt = index_document("d", live.document)
    assert [n.dewey for n in rebuilt.document.root.iter()] == [
        n.dewey for n in live.document.root.iter()
    ]
    _assert_is_the_definition(rebuilt)
    assert rebuilt.fingerprint == live.fingerprint
    assert index_document("d", live.document).fingerprint == (
        rebuilt.fingerprint
    )
    if not edits:
        assert live.fingerprint == fingerprint


def test_attributes_arrive_as_leading_children():
    text = '<r id="7" kind="a &amp; b"><c x="1">t</c><e/></r>'
    indexed = index_document("d", text)
    assert [n.tag for n in indexed.document.root.iter()] == [
        "r", "id", "kind", "c", "x", "e",
    ]
    _assert_is_the_definition(indexed)
    assert indexed.store.record(indexed.document.root.dewey).byte_length == len(
        serialize(parse_xml(text))
    )


def test_an_element_valued_nan_can_be_edited():
    """``float("nan")`` equals nothing, itself included: an element
    valued ``nan`` is still deleted, replaced and probed like any other."""
    db = XMLDatabase()
    indexed = db.load_document("d", "<a><b>nan</b><b>NaN</b><c>7</c></a>")
    db.delete_subtree("d", "1.1")
    db.replace_subtree("d", "1.2", "<b>nan</b>")
    _assert_is_the_definition(indexed)
    entries = indexed.path_index.lookup_ids(
        (("/", "a"), ("/", "b")), with_values=True
    )
    assert [entry.value for entry in entries] == ["nan"]
