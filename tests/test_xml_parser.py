"""XML parser tests: structure, attributes-as-subelements, entities, errors."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import XMLParseError
from repro.xmlmodel.node import XMLNode, assign_dewey_ids
from repro.xmlmodel.parser import parse_document, parse_xml
from repro.xmlmodel.serializer import serialize


class TestBasicStructure:
    def test_single_empty_element(self):
        root = parse_xml("<a/>")
        assert root.tag == "a"
        assert root.children == []
        assert root.value is None

    def test_element_with_text(self):
        root = parse_xml("<a>hello world</a>")
        assert root.value == "hello world"

    def test_nested_elements(self):
        root = parse_xml("<a><b><c/></b><d/></a>")
        assert [child.tag for child in root.children] == ["b", "d"]
        assert root.children[0].children[0].tag == "c"

    def test_explicit_empty_element(self):
        root = parse_xml("<a></a>")
        assert root.value is None and not root.children

    def test_whitespace_only_text_is_dropped(self):
        root = parse_xml("<a>\n   \t </a>")
        assert root.value is None

    def test_mixed_content_concatenated(self):
        root = parse_xml("<a>one<b/>two</a>")
        assert root.text == "one two"
        assert root.children[0].tag == "b"

    def test_leading_whitespace_and_declaration(self):
        root = parse_xml('  <?xml version="1.0"?>\n<a/>')
        assert root.tag == "a"

    def test_doctype_skipped(self):
        root = parse_xml('<!DOCTYPE books [<!ELEMENT b (c)>]><a/>')
        assert root.tag == "a"

    def test_comments_skipped(self):
        root = parse_xml("<a><!-- ignore --><b/><!-- and this --></a>")
        assert [child.tag for child in root.children] == ["b"]

    def test_processing_instruction_skipped(self):
        root = parse_xml("<a><?target data?><b/></a>")
        assert [child.tag for child in root.children] == ["b"]

    def test_cdata_becomes_text(self):
        root = parse_xml("<a><![CDATA[x < y & z]]></a>")
        assert root.value == "x < y & z"

    def test_tag_names_with_punctuation(self):
        root = parse_xml("<ns:a-b.c><x_1/></ns:a-b.c>")
        assert root.tag == "ns:a-b.c"
        assert root.children[0].tag == "x_1"


class TestAttributes:
    def test_attribute_becomes_leading_subelement(self):
        root = parse_xml('<book isbn="111"><title>t</title></book>')
        assert [child.tag for child in root.children] == ["isbn", "title"]
        assert root.children[0].value == "111"

    def test_multiple_attributes_preserve_order(self):
        root = parse_xml('<a x="1" y="2" z="3"/>')
        assert [(c.tag, c.value) for c in root.children] == [
            ("x", "1"),
            ("y", "2"),
            ("z", "3"),
        ]

    def test_single_quoted_attribute(self):
        root = parse_xml("<a x='val'/>")
        assert root.children[0].value == "val"

    def test_attribute_entities_decoded(self):
        root = parse_xml('<a x="a &amp; b"/>')
        assert root.children[0].value == "a & b"


class TestEntities:
    def test_predefined_entities(self):
        root = parse_xml("<a>&lt;tag&gt; &amp; &quot;text&quot; &apos;</a>")
        assert root.value == "<tag> & \"text\" '"

    def test_decimal_character_reference(self):
        assert parse_xml("<a>&#65;</a>").value == "A"

    def test_hex_character_reference(self):
        assert parse_xml("<a>&#x41;&#x42;</a>").value == "AB"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>&nope;</a>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>&amp</a>")

    @pytest.mark.parametrize(
        "reference",  # not digits of the base, or not a character
        ["#xZZ", "#", "#x", "#+65", "#1_0", "# 65", "#１２"]
        + ["#99999999999", "#" + "9" * 5000, "#x110000", "#xD800", "#xDFFF", "#0"],
    )
    def test_bad_character_reference_is_a_typed_error(self, reference):
        for document in (f"<a>x &{reference}; y</a>", f"<a b='&{reference};'/>"):
            with pytest.raises(XMLParseError) as caught:
                parse_xml(document)
            assert caught.value.line == 1

    @pytest.mark.parametrize(
        "document, position, line",
        [
            ("<a>\n&nope;\n</a>", 4, 2),  # a text run
            ("<a><b>x\n&#xZZ;</b></a>", 8, 2),  # a leaf's text
            ("<a>&amp\n</a>", 3, 1),  # unterminated
            ('<a b="&nope;"/>', 6, 1),  # an attribute value
            ('<a\nb="ok &lt; &bad;"\n/>', 14, 2),
        ],
    )
    def test_bad_reference_is_reported_at_its_ampersand(
        self, document, position, line
    ):
        with pytest.raises(XMLParseError) as caught:
            parse_xml(document)
        assert (caught.value.position, caught.value.line) == (position, line)
        assert document[position] == "&"

    def test_character_reference_range_ends_decode(self):
        root = parse_xml("<a>&#x41;&#65;&#0065;&#x10FFFF;&#xD7FF;&#xE000;</a>")
        assert root.value == "AAA\U0010ffff\ud7ff\ue000"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "just text",
            "<a>",
            "<a><b></a></b>",
            "<a></b>",
            "<a/><b/>",
            "<a x=unquoted/>",
            "<a><!-- unterminated </a>",
            "<1tag/>",
            "<a attr></a>",
        ],
    )
    def test_malformed_documents_raise(self, bad):
        with pytest.raises(XMLParseError):
            parse_xml(bad)

    def test_error_carries_line_number(self):
        try:
            parse_xml("<a>\n<b>\n</a>")
        except XMLParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected XMLParseError")


class TestParseDocument:
    def test_assigns_dewey_ids(self):
        doc = parse_document("d.xml", "<a><b/><c><d/></c></a>")
        root = doc.root
        assert str(root.dewey) == "1"
        assert str(root.children[0].dewey) == "1.1"
        assert str(root.children[1].children[0].dewey) == "1.2.1"

    def test_node_by_dewey(self):
        doc = parse_document("d.xml", "<a><b/><c/></a>")
        from repro.dewey import DeweyID

        assert doc.node_by_dewey(DeweyID.parse("1.2")).tag == "c"
        assert doc.node_by_dewey(DeweyID.parse("1.9")) is None

    def test_dewey_assignment_in_document_order(self):
        doc = parse_document("d.xml", "<a><b><c/></b><d/></a>")
        deweys = [node.dewey for node in doc.root.iter()]
        assert deweys == sorted(deweys)


# -- property-based round trips -------------------------------------------------

_tags = st.sampled_from(["a", "b", "c", "item", "x-y"])
_texts = st.text(alphabet="abcxyz019<>& ", min_size=0, max_size=10)


@st.composite
def xml_trees(draw, depth=0):
    node = XMLNode(draw(_tags))
    raw = draw(_texts)
    text = raw.strip()
    if text:
        node.text = text
    if depth < 3:
        for child in draw(
            st.lists(xml_trees(depth=depth + 1), min_size=0, max_size=3)
        ):
            node.append(child)
    return node


class TestRoundTrip:
    @given(xml_trees())
    def test_parse_of_serialize_is_identity(self, tree):
        reparsed = parse_xml(serialize(tree))
        assert _shape(reparsed) == _shape(tree)

    @given(xml_trees())
    def test_serialize_is_stable(self, tree):
        once = serialize(tree)
        assert serialize(parse_xml(once)) == once

    @given(xml_trees())
    def test_dewey_assignment_covers_all_nodes(self, tree):
        assign_dewey_ids(tree)
        nodes = list(tree.iter())
        deweys = [node.dewey for node in nodes]
        assert all(dewey is not None for dewey in deweys)
        assert len(set(deweys)) == len(nodes)


# -- fuzz: hostile text ------------------------------------------------------

_MARKUP = st.sampled_from(
    ["<", ">", "/", "=", '"', "'", "&", ";", "#x", "!", "-", "[", "]", "?", " ",
     "\n", "<a>", "</a>", "<b/>", "<!--", "-->", "<![CDATA[", "]]>", "<?", "?>",
     "<!DOCTYPE", "&amp;", "&#65;", "&#x1F600;", "&#0;", "&no;", " x='1'", "é"]
)
_XMLISH = st.lists(_MARKUP | st.text(max_size=3), max_size=24).map("".join)


@st.composite
def damaged_documents(draw):
    """A well-formed document with a few markup pieces spliced in."""
    text = serialize(draw(xml_trees()))
    for piece in draw(st.lists(_MARKUP | st.text(max_size=2), max_size=3)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + piece + text[at:]
    return text


class TestFuzz:
    """Any text is a tree or a typed ``XMLParseError`` — never another
    exception, and the error's position and line lie inside the input."""

    @given(st.text() | _XMLISH | damaged_documents())
    def test_any_text_is_a_tree_or_a_parse_error(self, text):
        try:
            root = parse_xml(text)
        except XMLParseError as exc:
            assert 0 <= exc.position <= len(text)
            assert exc.line == text.count("\n", 0, exc.position) + 1
        else:
            assert isinstance(root, XMLNode) and root.parent is None


def _shape(node: XMLNode):
    return (node.tag, node.value, tuple(_shape(child) for child in node.children))
