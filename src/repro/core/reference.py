"""Reference PDT computation straight from Definitions 1-3.

This module computes candidate elements (CE), PDT elements (PE) and the
resulting PDT directly over the in-memory document tree, with no indices
and no streaming — a deliberately simple O(|D| x |Q|) fixpoint that serves
as the oracle for the index-only algorithm in :mod:`repro.core.pdt`.  It
is not part of the query pipeline.

It is the one reference: ``tests/test_pdt_properties.py`` (random
documents x random QPTs), the reference sweep over every difftest view
shape (``test_equivalence_every_view_shape`` /
``test_equivalence_random_scenarios``: every record column the
Definitions determine), ``tests/test_pdt.py`` and
``tests/test_baselines.py`` all lean on it — keep it free of anything
the pipeline imports beyond the QPT and the document model.
"""

from __future__ import annotations

from typing import Optional

from repro.core.qpt import QPT, QPTNode
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.serializer import serialized_length
from repro.xmlmodel.tokenizer import token_frequencies


def _matches_pattern(qpt: QPT, qnode: QPTNode, element: XMLNode) -> bool:
    """Does the root-to-element path match PathFromRoot(qnode)?"""
    tags = tuple(element.path_from_root())
    table = qpt.match_table(tags)
    return qnode in table[len(tags) - 1]


def candidate_elements(qpt: QPT, root: XMLNode) -> dict[int, set[XMLNode]]:
    """CE(n, D) for every QPT node n (Definition 1), computed bottom-up."""
    ce: dict[int, set[XMLNode]] = {node.index: set() for node in qpt.nodes}
    # Process QPT nodes children-first (reverse pre-order works for trees).
    for qnode in reversed(qpt.nodes):
        matching = ce[qnode.index]
        for element in root.iter():
            if not _matches_pattern(qpt, qnode, element):
                continue
            if qnode.predicates and not all(
                predicate.matches(element.value) for predicate in qnode.predicates
            ):
                continue
            satisfied = True
            for edge in qnode.mandatory_child_edges():
                child_candidates = ce[edge.child.index]
                if edge.axis == "/":
                    pool = element.children
                else:
                    pool = element.descendants()
                if not any(child in child_candidates for child in pool):
                    satisfied = False
                    break
            if satisfied:
                matching.add(element)
    return ce


def pdt_elements(qpt: QPT, root: XMLNode) -> dict[int, set[XMLNode]]:
    """PE(n, D) for every QPT node n (Definition 2), computed top-down."""
    ce = candidate_elements(qpt, root)
    pe: dict[int, set[XMLNode]] = {node.index: set() for node in qpt.nodes}
    for qnode in qpt.nodes:  # pre-order: parents before children
        edge = qnode.parent_edge
        assert edge is not None
        for element in ce[qnode.index]:
            if edge.parent is qpt.root:
                # Anchored at the document node: '/' means the element is
                # the document root; '//' allows any depth.
                if edge.axis == "/" and element.parent is not None:
                    continue
                pe[qnode.index].add(element)
                continue
            parent_pool = pe[edge.parent.index]
            if edge.axis == "/":
                ok = element.parent is not None and element.parent in parent_pool
            else:
                ok = any(anc in parent_pool for anc in element.ancestors())
            if ok:
                pe[qnode.index].add(element)
    return pe


def reference_pdt(
    qpt: QPT,
    root: XMLNode,
    keywords: tuple[str, ...] = (),
) -> dict[tuple[int, ...], dict]:
    """The PDT as a mapping dewey -> node description (Definition 3).

    Each description holds the tag, whether a value / content annotation
    applies, the value (for 'v' or predicate nodes), the subtree byte
    length and per-keyword subtree term frequencies (for 'c' nodes) —
    the exact information the streaming algorithm must reproduce.
    """
    pe = pdt_elements(qpt, root)
    result: dict[tuple[int, ...], dict] = {}
    for qnode in qpt.nodes:
        for element in pe[qnode.index]:
            assert element.dewey is not None
            key = element.dewey.components
            entry = result.setdefault(
                key,
                {
                    "tag": element.tag,
                    "value": None,
                    "wants_value": False,
                    "wants_content": False,
                    "byte_length": serialized_length(element),
                    "term_frequencies": {},
                },
            )
            if qnode.v_ann or qnode.predicates:
                entry["wants_value"] = True
                entry["value"] = element.value
            if qnode.c_ann:
                entry["wants_content"] = True
                entry["term_frequencies"] = {
                    keyword: _subtree_tf(element, keyword) for keyword in keywords
                }
    return result


def _subtree_tf(element: XMLNode, keyword: str) -> int:
    total = 0
    for node in element.iter():
        if node.text:
            total += token_frequencies(node.text).get(keyword, 0)
    return total
