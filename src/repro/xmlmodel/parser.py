"""A from-scratch XML parser for the subset the paper's data needs.

Supported: elements, attributes (converted to leading subelements, matching
the paper's "we treat attributes as though they are subelements"), character
data, CDATA sections, comments, processing instructions, an XML declaration,
and the five predefined entities plus numeric character references.

Not supported (and not needed for INEX-style data): DTD internal subsets
beyond being skipped, namespaces (colons are kept verbatim in names), and
exact mixed-content interleaving — an element's text chunks are concatenated
into its single ``text`` field, which is the granularity the search system
works at (direct text of an element).
"""

from __future__ import annotations

from repro.errors import XMLParseError
from repro.xmlmodel.node import Document, XMLNode

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")


class _Cursor:
    """Tracks a position in the input text and reports line numbers."""

    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def error(self, message: str) -> XMLParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        return XMLParseError(message, position=self.pos, line=line)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.length else ""

    def startswith(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def expect(self, literal: str) -> None:
        if not self.startswith(literal):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def skip_whitespace(self) -> None:
        text, pos, length = self.text, self.pos, self.length
        while pos < length and text[pos] in " \t\r\n":
            pos += 1
        self.pos = pos

    def read_name(self) -> str:
        start = self.pos
        text, length = self.text, self.length
        if start >= length or text[start] not in _NAME_START:
            raise self.error("expected a name")
        pos = start + 1
        while pos < length and text[pos] in _NAME_CHARS:
            pos += 1
        self.pos = pos
        return text[start:pos]

    def read_until(self, literal: str, what: str) -> str:
        index = self.text.find(literal, self.pos)
        if index < 0:
            raise self.error(f"unterminated {what}: missing {literal!r}")
        chunk = self.text[self.pos : index]
        self.pos = index + len(literal)
        return chunk


def _character_reference(entity: str, cursor: _Cursor) -> str:
    """The character ``#…`` / ``#x…`` names, or a typed error.

    The digits must be ASCII digits of the base — ``int`` alone also
    takes signs, underscores, blanks and other scripts' digits — and
    name a code point a document can carry through UTF-8: not 0, not a
    surrogate, not above 0x10FFFF.
    """
    if entity[1:2] in ("x", "X"):
        base, digits, allowed = 16, entity[2:], _HEX_DIGITS
    else:
        base, digits, allowed = 10, entity[1:], _DIGITS
    if not digits or not allowed.issuperset(digits):
        raise cursor.error(f"malformed character reference: &{entity};")
    significant = digits.lstrip("0")
    # Seven digits cover 0x10FFFF in either base; longer is out of range
    # without asking int() (which refuses very long literals untyped).
    code = int(significant, base) if 0 < len(significant) <= 7 else 0
    if not 0 < code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise cursor.error(f"character reference to a non-character: &{entity};")
    return chr(code)


def _decode_entities(raw: str, cursor: _Cursor) -> str:
    """Replace entity and character references in ``raw``."""
    if "&" not in raw:
        return raw
    parts: list[str] = []
    i = 0
    length = len(raw)
    while i < length:
        amp = raw.find("&", i)
        if amp < 0:
            parts.append(raw[i:])
            break
        parts.append(raw[i:amp])
        end = raw.find(";", amp + 1)
        if end < 0:
            raise cursor.error("unterminated entity reference")
        entity = raw[amp + 1 : end]
        if entity.startswith("#"):
            parts.append(_character_reference(entity, cursor))
        elif entity in _PREDEFINED_ENTITIES:
            parts.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise cursor.error(f"unknown entity: &{entity};")
        i = end + 1
    return "".join(parts)


def _skip_misc(cursor: _Cursor) -> None:
    """Skip whitespace, comments, PIs, XML declarations and DOCTYPE."""
    while True:
        cursor.skip_whitespace()
        if cursor.startswith("<!--"):
            cursor.pos += 4
            cursor.read_until("-->", "comment")
        elif cursor.startswith("<?"):
            cursor.pos += 2
            cursor.read_until("?>", "processing instruction")
        elif cursor.startswith("<!DOCTYPE"):
            # Skip to the matching '>' allowing a bracketed internal subset.
            cursor.pos += len("<!DOCTYPE")
            depth = 0
            while not cursor.at_end():
                ch = cursor.text[cursor.pos]
                cursor.pos += 1
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                elif ch == ">" and depth <= 0:
                    break
            else:
                raise cursor.error("unterminated DOCTYPE")
        else:
            return


def _parse_attributes(cursor: _Cursor, element: XMLNode) -> None:
    """Parse attributes and attach them as leading subelements."""
    while True:
        cursor.skip_whitespace()
        ch = cursor.peek()
        if ch in (">", "/") or not ch:
            return
        name = cursor.read_name()
        cursor.skip_whitespace()
        cursor.expect("=")
        cursor.skip_whitespace()
        quote = cursor.peek()
        if quote not in ("'", '"'):
            raise cursor.error("attribute value must be quoted")
        cursor.pos += 1
        raw = cursor.read_until(quote, "attribute value")
        element.make_child(name, _decode_entities(raw, cursor))


def parse_xml(text: str) -> XMLNode:
    """Parse ``text`` and return the root element (no Dewey IDs assigned).

    One loop over an explicit stack of open elements, so nesting depth is
    bounded by memory, never by the interpreter's recursion limit.
    """
    cursor = _Cursor(text)
    _skip_misc(cursor)
    if cursor.peek() != "<":
        raise cursor.error("expected root element")
    root, closed = _parse_start_tag(cursor)
    # (open element, its text chunks so far), innermost last.
    open_elements: list[tuple[XMLNode, list[str]]] = []
    if not closed:
        open_elements.append((root, []))
    while open_elements:
        element, text_chunks = open_elements[-1]
        if cursor.at_end():
            raise cursor.error(f"unexpected end of input inside <{element.tag}>")
        if cursor.startswith("</"):
            cursor.pos += 2
            closing = cursor.read_name()
            if closing != element.tag:
                raise cursor.error(
                    f"mismatched closing tag </{closing}> for <{element.tag}>"
                )
            cursor.skip_whitespace()
            cursor.expect(">")
            if text_chunks:
                element.text = " ".join(text_chunks)
            open_elements.pop()
        elif cursor.startswith("<!--"):
            cursor.pos += 4
            cursor.read_until("-->", "comment")
        elif cursor.startswith("<![CDATA["):
            cursor.pos += len("<![CDATA[")
            text_chunks.append(cursor.read_until("]]>", "CDATA section"))
        elif cursor.startswith("<?"):
            cursor.pos += 2
            cursor.read_until("?>", "processing instruction")
        elif cursor.peek() == "<":
            child, closed = _parse_start_tag(cursor)
            element.append(child)
            if not closed:
                open_elements.append((child, []))
        else:
            start = cursor.pos
            next_tag = cursor.text.find("<", start)
            if next_tag < 0:
                raise cursor.error(f"unexpected end of input inside <{element.tag}>")
            raw = cursor.text[start:next_tag]
            cursor.pos = next_tag
            decoded = _decode_entities(raw, cursor)
            if decoded.strip():
                text_chunks.append(decoded.strip())
    _skip_misc(cursor)
    if not cursor.at_end():
        raise cursor.error("content after the root element")
    return root


def _parse_start_tag(cursor: _Cursor) -> tuple[XMLNode, bool]:
    """Parse ``<tag attr="…"…>`` or ``<tag…/>``: the element with its
    attribute children, and whether the tag closed itself."""
    cursor.expect("<")
    element = XMLNode(cursor.read_name())
    _parse_attributes(cursor, element)
    if cursor.startswith("/>"):
        cursor.pos += 2
        return element, True
    cursor.expect(">")
    return element, False


def parse_document(name: str, text: str) -> Document:
    """Parse ``text`` into a :class:`Document` with Dewey IDs assigned."""
    return Document(name, parse_xml(text))
