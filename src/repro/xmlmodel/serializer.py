"""Canonical XML serialization.

The serializer defines the byte lengths used for score normalization
(Theorem 4.1 requires ``PDTByteLength(e) == len(e')`` for materialized
elements, so a single canonical form is used everywhere: by the document
store at indexing time, by the Baseline when it materializes the view, and
by the materialization module when it expands top-k results).

Canonical form: ``<tag>text<child…/>…</tag>``; direct text precedes the
children; empty elements are written as ``<tag/>``; the five predefined
entities are escaped in text.
"""

from __future__ import annotations

from repro.xmlmodel.node import XMLNode


def escape_text(text: str) -> str:
    """Escape markup characters in character data."""
    if "&" in text or "<" in text or ">" in text:
        return (
            text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )
    return text


def serialize(node: XMLNode, indent: int | None = None) -> str:
    """Serialize ``node`` to canonical XML text.

    ``indent`` pretty-prints with the given indent width; the canonical
    (length-defining) form is ``indent=None``.
    """
    parts: list[str] = []
    if indent is None:
        _write_compact(node, parts)
    else:
        _write_pretty(node, parts, indent)
    return "".join(parts)


def _write_compact(node: XMLNode, parts: list[str]) -> None:
    # An explicit stack, so depth is bounded by memory and not by the
    # interpreter's recursion limit; a string on it is a pending close tag.
    stack: list = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        value = node.value
        if value is None and not node.children:
            parts.append(f"<{node.tag}/>")
            continue
        parts.append(f"<{node.tag}>")
        if value is not None:
            parts.append(escape_text(value))
        stack.append(f"</{node.tag}>")
        stack.extend(reversed(node.children))


def _write_pretty(node: XMLNode, parts: list[str], width: int) -> None:
    # The same explicit stack as _write_compact, of (node, level) pairs.
    stack: list = [(node, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, level = item
        pad = " " * (level * width)
        value = node.value
        if not node.children:
            if value is None:
                parts.append(f"{pad}<{node.tag}/>\n")
            else:
                parts.append(f"{pad}<{node.tag}>{escape_text(value)}</{node.tag}>\n")
            continue
        parts.append(f"{pad}<{node.tag}>")
        if value is not None:
            parts.append(escape_text(value))
        parts.append("\n")
        stack.append(f"{pad}</{node.tag}>\n")
        stack.extend((child, level + 1) for child in reversed(node.children))


def own_length(tag: str, value: str | None, has_children: bool) -> int:
    """What one element adds to the canonical serialization of any
    subtree containing it: its tags plus its escaped value.  A subtree's
    length is the sum over its elements — the one definition behind
    :func:`serialized_length` and the ingest walk's length column
    (:func:`repro.storage.columns.document_columns`)."""
    if value is None:
        return 2 * len(tag) + 5 if has_children else len(tag) + 3  # <tag/>
    return 2 * len(tag) + 5 + len(escape_text(value))  # <tag> + </tag>


def serialized_length(node: XMLNode) -> int:
    """Length in characters of the canonical serialization of ``node``.

    Computed without building the string: one iterative pass, O(subtree).
    """
    return sum(
        own_length(each.tag, each.value, bool(each.children))
        for each in node.iter()
    )
