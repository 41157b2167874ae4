"""Property tests: the streaming GeneratePDT equals the Definitions 1-3
reference on random documents and random QPTs.

This is the central correctness argument for the reproduction's core
algorithm: for arbitrary (document, QPT, keywords) the single-pass,
index-only construction must produce exactly the PE-set of the fixpoint
definition, with identical values, byte lengths and term frequencies.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.pdt import generate_pdt
from repro.core.qpt import QPT, QPTNode
from repro.core.reference import reference_pdt
from repro.storage.database import XMLDatabase
from repro.values import Predicate
from repro.xmlmodel.node import XMLNode

_TAGS = ["a", "b", "c", "d"]
_WORDS = ["xml", "search", "data", "quark", "view"]
_KEYWORDS = ("xml", "search")


def random_document(rng: random.Random) -> XMLNode:
    """A random small tree over a 4-tag alphabet with word values."""
    root = XMLNode("r")

    def grow(node: XMLNode, depth: int) -> None:
        for _ in range(rng.randint(0, 3 if depth < 3 else 0)):
            child = node.make_child(rng.choice(_TAGS))
            if rng.random() < 0.5:
                child.text = " ".join(
                    rng.choice(_WORDS) for _ in range(rng.randint(1, 3))
                )
            if rng.random() < 0.3:
                child.text = str(rng.randint(0, 20))
            grow(child, depth + 1)

    grow(root, 0)
    return root


def random_qpt(rng: random.Random) -> QPT:
    """A random QPT over the same alphabet: random axes, mandatory flags,
    v/c annotations and occasional numeric predicates."""
    root = QPTNode("#doc")
    top = QPTNode("r")
    root.add_child(top, "/", True)

    def grow(node: QPTNode, depth: int) -> None:
        for _ in range(rng.randint(1 if depth == 0 else 0, 2)):
            child = QPTNode(rng.choice(_TAGS))
            child.v_ann = rng.random() < 0.3
            child.c_ann = rng.random() < 0.4
            if rng.random() < 0.25:
                child.predicates.append(
                    Predicate(rng.choice(["<", ">", "="]), str(rng.randint(0, 20)))
                )
                child.v_ann = True
            axis = "//" if rng.random() < 0.4 else "/"
            mandatory = rng.random() < 0.5
            node.add_child(child, axis, mandatory)
            if depth < 2:
                grow(child, depth + 1)

    grow(top, 0)
    return QPT("d.xml", root)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_streaming_equals_reference(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    qpt = random_qpt(rng)

    db = XMLDatabase()
    indexed = db.load_document("d.xml", document)
    result = generate_pdt(
        qpt, indexed.path_index, indexed.inverted_index, _KEYWORDS
    )
    reference = reference_pdt(qpt, indexed.root, _KEYWORDS)

    produced: dict[tuple[int, ...], XMLNode] = {}
    for node in result.root.iter():
        if node.anno is not None and node.anno.dewey is not None:
            produced[node.anno.dewey.components] = node

    assert set(produced) == set(reference), (
        f"PDT node sets differ for seed {seed}:\n"
        f"extra={set(produced) - set(reference)}\n"
        f"missing={set(reference) - set(produced)}"
    )
    for dewey, expected in reference.items():
        node = produced[dewey]
        anno = node.anno
        assert node.tag == expected["tag"]
        if expected["wants_value"] and expected["value"] is not None:
            assert node.value == expected["value"], f"value mismatch at {dewey}"
        assert anno.pruned == expected["wants_content"]
        if expected["wants_content"]:
            assert result.byte_lengths[anno.position] == expected["byte_length"], (
                f"byte length mismatch at {dewey}"
            )
            # Per-query tfs live in the result's flat arrays, resolved
            # through each content node's slot.
            assert result.tf_map(node) == expected["term_frequencies"], (
                f"tf mismatch at {dewey}"
            )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_pdt_hierarchy_is_nearest_ancestor(seed):
    """Definition 3's edge set: parent of each PDT node is its nearest
    PDT ancestor."""
    rng = random.Random(seed)
    document = random_document(rng)
    qpt = random_qpt(rng)
    db = XMLDatabase()
    indexed = db.load_document("d.xml", document)
    result = generate_pdt(qpt, indexed.path_index, indexed.inverted_index, ())

    all_deweys = set()
    for node in result.root.iter():
        if node.anno is not None and node.anno.dewey is not None:
            all_deweys.add(node.anno.dewey.components)

    def check(node, ancestor_dewey):
        for child in node.children:
            if child.anno is None or child.anno.dewey is None:
                continue
            dewey = child.anno.dewey.components
            if ancestor_dewey is not None:
                assert dewey[: len(ancestor_dewey)] == ancestor_dewey
                # No PDT node lies strictly between parent and child.
                for mid in all_deweys:
                    if mid == dewey or mid == ancestor_dewey:
                        continue
                    is_between = (
                        len(ancestor_dewey) < len(mid) < len(dewey)
                        and dewey[: len(mid)] == mid
                    )
                    assert not is_between
            check(child, dewey)

    check(result.root, None)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000_000))
def test_pdt_generation_never_touches_document_store(seed):
    rng = random.Random(seed)
    db = XMLDatabase()
    indexed = db.load_document("d.xml", random_document(rng))
    qpt = random_qpt(rng)
    db.reset_access_counters()
    generate_pdt(qpt, indexed.path_index, indexed.inverted_index, _KEYWORDS)
    assert indexed.store.access_count == 0
