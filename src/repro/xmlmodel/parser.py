"""A from-scratch XML parser for the subset the paper's data needs.

Supported: elements, attributes (converted to leading subelements, matching
the paper's "we treat attributes as though they are subelements"), character
data, CDATA sections, comments, processing instructions, an XML declaration,
and the five predefined entities plus numeric character references.

Not supported (and not needed for INEX-style data): DTD internal subsets
beyond being skipped, namespaces (colons are kept verbatim in names), and
exact mixed-content interleaving — an element's text chunks are joined by
``" "`` into its single ``text`` field, which is the granularity the search
system works at (direct text of an element).

One scanner: ``parse_xml`` matches one compiled pattern at the cursor
(``_TOKEN.match(text, pos)``), and each match is a whole token — a text run,
a leaf element, a start tag, an end tag, a comment, a CDATA section or a PI —
so no Python code runs per character.  Input no token matches is diagnosed
(:func:`_diagnose`): the error names the first position where the markup
leaves the grammar (for a tag, the end of its longest well-formed prefix; for
a bad reference, the end of the text run or attribute holding it).
"""

from __future__ import annotations

import re

from repro.errors import XMLParseError
from repro.xmlmodel.node import Document, XMLNode

_PREDEFINED_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

# Character classes (ASCII only) and whitespace as the XML subset spells them.
_NAME_START = "A-Za-z_:"
_NAME_CHARS = _NAME_START + "0-9.\\-"
_NAME = f"[{_NAME_START}][{_NAME_CHARS}]*+"
_WS = "[ \t\r\n]*+"
_QUOTED = "\"[^\"]*+\"|'[^']*+'"
_ATTRIBUTE = f"{_WS}({_NAME}){_WS}={_WS}({_QUOTED})"
_ATTRIBUTES = f"((?:{_WS}{_NAME}{_WS}={_WS}(?:{_QUOTED}))*+){_WS}"
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")

# Token kinds are the index of the last group each alternative closes.
_TEXT, _LEAF, _START, _END, _CDATA = 1, 5, 8, 9, 10
_TOKEN = re.compile(
    "([^<]++)(?=<)"  # 1: a text run
    f"|<({_NAME}){_ATTRIBUTES}>([^<]*+)</({_NAME}){_WS}>"  # 2-5: a leaf
    f"|<({_NAME}){_ATTRIBUTES}(/?)>"  # 6-8: a start tag
    f"|</({_NAME}){_WS}>"  # 9: an end tag
    "|<!--.*?-->"
    r"|<!\[CDATA\[(.*?)\]\]>"  # 10
    r"|<\?.*?\?>",
    re.DOTALL,
)
_ATTRIBUTE_ITEM = re.compile(_ATTRIBUTE)
# The longest well-formed prefix of a start tag / an end tag (diagnosis).
_PARTIAL_ATTRIBUTE = f"(?:{_NAME}{_WS}(?:={_WS}['\"]?)?)?"
_START_PREFIX = re.compile(f"<(?:{_NAME}{_ATTRIBUTES}{_PARTIAL_ATTRIBUTE})?")
_END_PREFIX = re.compile(f"</({_NAME})?{_WS}")
_MISC = re.compile(r"(?:[ \t\r\n]++|<!--.*?-->|<\?.*?\?>)*+", re.DOTALL)
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
_CLOSERS = {"<!--": "-->", "<![CDATA[": "]]>", "<?": "?>"}


def _error(text: str, pos: int, message: str) -> XMLParseError:
    return XMLParseError(message, position=pos, line=text.count("\n", 0, pos) + 1)


def _mismatch(text: str, pos: int, closing: str, tag: str) -> XMLParseError:
    return _error(text, pos, f"mismatched closing tag </{closing}> for <{tag}>")


def _character_reference(entity: str, text: str, pos: int) -> str:
    """The character ``#…`` / ``#x…`` names, or a typed error at ``pos``.

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
        raise _error(text, pos, f"malformed character reference: &{entity};")
    significant = digits.lstrip("0")
    # Seven digits cover 0x10FFFF in either base; longer is out of range
    # without asking int() (which refuses very long literals untyped).
    code = int(significant, base) if 0 < len(significant) <= 7 else 0
    if not 0 < code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise _error(text, pos, f"character reference to a non-character: &{entity};")
    return chr(code)


def _decode_entities(raw: str, text: str, pos: int) -> str:
    """Replace entity and character references in ``raw`` (which holds
    an ``&``); a bad one is an error at ``pos`` of ``text``."""
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
            raise _error(text, pos, "unterminated entity reference")
        entity = raw[amp + 1 : end]
        if entity.startswith("#"):
            parts.append(_character_reference(entity, text, pos))
        elif entity in _PREDEFINED_ENTITIES:
            parts.append(_PREDEFINED_ENTITIES[entity])
        else:
            raise _error(text, pos, f"unknown entity: &{entity};")
        i = end + 1
    return "".join(parts)


def _attach_attributes(element: XMLNode, text: str, start: int, end: int) -> None:
    """Attach the attribute run ``text[start:end]`` as leading subelements;
    a value's bad reference is an error just past its closing quote."""
    for item in _ATTRIBUTE_ITEM.finditer(text, start, end):
        value = item.group(2)[1:-1]
        if "&" in value:
            value = _decode_entities(value, text, item.end())
        element.make_child(item.group(1), value)


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments, PIs, XML declarations and DOCTYPEs."""
    while True:
        pos = _MISC.match(text, pos).end()
        if not text.startswith("<!DOCTYPE", pos):
            break
        # To the first '>' outside a bracketed internal subset.
        depth = 0
        for mark in _DOCTYPE_MARK.finditer(text, pos + len("<!DOCTYPE")):
            char = mark.group()
            if char == ">" and depth <= 0:
                pos = mark.end()
                break
            depth += (char == "[") - (char == "]")
        else:
            raise _error(text, len(text), "unterminated DOCTYPE")
    error = _unterminated(text, pos, ("<!--", "<?"))
    if error is not None:
        raise error
    return pos


def _unterminated(text: str, pos: int, openers=_CLOSERS) -> XMLParseError | None:
    """The error for a comment, CDATA section or PI opened at ``pos``."""
    for opener in openers:
        if text.startswith(opener, pos):
            message = f"unterminated {opener}: missing {_CLOSERS[opener]}"
            return _error(text, pos + len(opener), message)
    return None


def _diagnose(text: str, pos: int, tag: str) -> XMLParseError:
    """The error for input at ``pos``, inside ``<tag>``, that no token matches."""
    if not text.startswith("<", pos):  # the end, or text no markup follows
        return _error(text, pos, f"unexpected end of input inside <{tag}>")
    if text.startswith("</", pos):
        prefix = _END_PREFIX.match(text, pos)
        closing = prefix.group(1)
        if closing is None:
            return _error(text, pos + 2, "expected a name")
        if closing != tag:
            return _mismatch(text, prefix.end(1), closing, tag)
        return _error(text, prefix.end(), "expected '>'")
    error = _unterminated(text, pos)
    return error if error is not None else _diagnose_start_tag(text, pos)


def _diagnose_start_tag(text: str, pos: int) -> XMLParseError:
    """The error for a start tag at ``pos`` that does not scan: a bad
    reference in a well-formed attribute first, else the end of the
    tag's longest well-formed prefix."""
    prefix = _START_PREFIX.match(text, pos)
    if prefix.lastindex:
        _attach_attributes(XMLNode(""), text, prefix.start(1), prefix.end(1))
    return _error(text, prefix.end(), "malformed start tag")


def parse_xml(text: str) -> XMLNode:
    """Parse ``text`` and return the root element (no Dewey IDs assigned).

    One loop over an explicit stack of open elements, so nesting depth is
    bounded by memory, never by the interpreter's recursion limit.
    """
    pos = _skip_misc(text, 0)
    if not text.startswith("<", pos):
        raise _error(text, pos, "expected root element")
    token = _TOKEN.match(text, pos)
    if token is None or token.lastindex not in (_LEAF, _START):
        raise _diagnose_start_tag(text, pos)
    # The root is the one child of a placeholder: the loop's first token,
    # and the loop ends when the placeholder is the only open element.
    document = XMLNode("")
    stack = [document]  # open elements, innermost last
    chunks: dict[int, list[str]] = {}  # depth → text chunks of a non-leaf
    match = _TOKEN.match
    while True:
        kind = token.lastindex
        if kind == _TEXT:
            raw = token.group(1)
            if "&" in raw:
                raw = _decode_entities(raw, text, token.end())
            raw = raw.strip()
            if raw:
                chunks.setdefault(len(stack), []).append(raw)
        elif kind == _LEAF:
            tag, attributes, raw, closing = token.group(2, 3, 4, 5)
            element = XMLNode(tag)
            if attributes:
                _attach_attributes(element, text, token.start(3), token.end(3))
            if "&" in raw:
                raw = _decode_entities(raw, text, token.start(5) - 2)
            element.text = raw.strip() or None
            if closing != tag:
                raise _mismatch(text, token.end(5), closing, tag)
            element.parent = parent = stack[-1]
            parent.children.append(element)
        elif kind == _START:
            element = XMLNode(token.group(6))
            if token.group(7):
                _attach_attributes(element, text, token.start(7), token.end(7))
            element.parent = parent = stack[-1]
            parent.children.append(element)
            if not token.group(8):
                stack.append(element)
        elif kind == _END:
            element = stack[-1]
            if token.group(9) != element.tag:
                raise _mismatch(text, token.end(9), token.group(9), element.tag)
            if chunks and len(stack) in chunks:
                element.text = " ".join(chunks.pop(len(stack)))
            stack.pop()
        elif kind == _CDATA:
            chunks.setdefault(len(stack), []).append(token.group(10))
        pos = token.end()
        if len(stack) == 1:
            break
        token = match(text, pos)
        if token is None:
            raise _diagnose(text, pos, stack[-1].tag)
    pos = _skip_misc(text, pos)
    if pos < len(text):
        raise _error(text, pos, "content after the root element")
    root = document.children[0]
    root.parent = None
    return root


def parse_document(name: str, text: str) -> Document:
    """Parse ``text`` into a :class:`Document` with Dewey IDs assigned."""
    return Document(name, parse_xml(text))
