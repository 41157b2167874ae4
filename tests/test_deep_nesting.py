"""Nesting depth is bounded by memory, not by the recursion limit.

``parse_xml``, ``serialize`` (compact and pretty) / ``serialized_length``
and the whole ``load_document`` path used to recurse once per level, so
a 600-deep document was a bare ``RecursionError`` — an exception no
caller maps.  Every stage is a loop over an explicit stack now;
malformed input of any depth is an ``XMLParseError``.  The XQuery parser
stays recursive descent with a nesting limit: deeper queries are an
``XQuerySyntaxError``.

Parsing and serializing are linear and run at 5000 levels.  *Loading* a
chain is quadratic by definition — element ``d`` carries a ``d``-component
Dewey id and a ``d``-tag DataGuide path (measured: 61 MiB at 2000 levels,
111 at 3000, 267 at 5000) — so the load runs at 3000, three times the
recursion limit, to keep the suite small.
"""

from __future__ import annotations

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.errors import XMLParseError, XQuerySyntaxError
from repro.storage.database import XMLDatabase
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize, serialized_length
from repro.xquery.parser import MAX_NESTING, parse_query

DEPTH = 5000
LOAD_DEPTH = 3000


def test_deep_document_parses_and_serializes():
    text = "<a>" * DEPTH + "needle" + "</a>" * DEPTH
    root = parse_xml(text)
    assert sum(1 for _ in root.iter()) == DEPTH
    assert serialize(root) == text
    assert serialized_length(root) == len(text)


def test_deep_chain_pretty_prints():
    root = node = XMLNode("a")
    for _ in range(DEPTH - 1):
        node = node.make_child("a")
    node.text = "needle"
    lines = serialize(root, indent=2).splitlines()
    assert len(lines) == 2 * DEPTH - 1
    assert lines[0] == "<a>" and lines[-1] == "</a>"
    assert lines[DEPTH - 1] == " " * (2 * DEPTH - 2) + "<a>needle</a>"
    assert lines[DEPTH] == " " * (2 * DEPTH - 4) + "</a>"


@pytest.mark.parametrize(
    "text",
    [
        "(" * DEPTH + "1" + ")" * DEPTH,
        "<a>" * DEPTH + "</a>" * DEPTH,
        "for $x in " * DEPTH + "1" + " return $x" * DEPTH,
        "$x" + "[$y" * DEPTH + "]" * DEPTH,
    ],
    ids=["parentheses", "constructors", "flwor", "predicates"],
)
def test_deep_query_raises_the_typed_error(text):
    with pytest.raises(XQuerySyntaxError, match="nesting deeper than"):
        parse_query(text)


def test_query_at_the_nesting_limit_parses():
    depth = MAX_NESTING - 1
    parse_query("(" * depth + "1" + ")" * depth)
    parse_query("<a>" * depth + "</a>" * depth)


def test_deep_chain_loads_and_answers():
    root = node = XMLNode("a")
    for _ in range(LOAD_DEPTH - 1):
        node = node.make_child("a")
    node.text = "needle"
    db = XMLDatabase()
    indexed = db.load_document("deep.xml", root)
    assert len(indexed.store) == LOAD_DEPTH
    assert len(node.dewey.components) == LOAD_DEPTH
    assert indexed.store.record(root.dewey).byte_length == len(serialize(root))
    assert indexed.store.record(node.dewey).byte_length == len("<a>needle</a>")

    engine = KeywordSearchEngine(db)
    view = engine.define_view("v", "for $a in fn:doc(deep.xml)/a/a return $a")
    results = engine.search(view, ["needle"], top_k=3)
    assert [result.scored.index for result in results] == [0]
    assert results[0].to_xml() == serialize(root.children[0])

    # The edit path is the same walk: replace the innermost element.
    db.replace_subtree("deep.xml", node.dewey, "<a>swapped <b>in</b></a>")
    assert indexed.store.record(root.dewey).byte_length == len(serialize(root))
    assert not engine.search(view, ["needle"], top_k=3)
    assert len(engine.search(view, ["swapped"], top_k=3)) == 1


@pytest.mark.parametrize(
    "text",
    [
        "<a>" * DEPTH + "</a>" * (DEPTH - 1),
        "<a>" * (DEPTH - 1) + "</a>" * DEPTH,
        "<a>" * DEPTH + "x",
        "<a>" * DEPTH + "</b>" + "</a>" * (DEPTH - 1),
        "<a>" * DEPTH + "<b" + "</a>" * DEPTH,
    ],
    ids=["unclosed", "overclosed", "truncated", "mismatched", "broken-tag"],
)
def test_unbalanced_deep_documents_raise_the_typed_error(text):
    with pytest.raises(XMLParseError):
        parse_xml(text)
