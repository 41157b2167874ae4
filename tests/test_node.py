"""XMLNode / Document API tests."""

import pytest

from repro.dewey import DeweyID
from repro.xmlmodel.node import Document, NodeAnnotations, XMLNode, assign_dewey_ids
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.serializer import serialize


@pytest.fixture()
def tree():
    return parse_xml("<a>top<b>x</b><c><d>y</d><e/></c></a>")


class TestValues:
    def test_value_strips_whitespace(self):
        assert XMLNode("a", "  hi  ").value == "hi"

    def test_value_none_for_empty(self):
        assert XMLNode("a").value is None
        assert XMLNode("a", "   ").value is None

    def test_subtree_text_concatenates(self, tree):
        assert tree.subtree_text() == "top x y"

    def test_is_leaf(self, tree):
        assert not tree.is_leaf
        assert tree.children[0].is_leaf


class TestNavigation:
    def test_iter_preorder(self, tree):
        assert [n.tag for n in tree.iter()] == ["a", "b", "c", "d", "e"]

    def test_descendants_excludes_self(self, tree):
        assert [n.tag for n in tree.descendants()] == ["b", "c", "d", "e"]

    def test_children_by_tag(self, tree):
        assert [n.tag for n in tree.children_by_tag("c")] == ["c"]
        assert tree.children_by_tag("zz") == []

    def test_descendants_by_tag(self, tree):
        assert len(tree.descendants_by_tag("d")) == 1

    def test_find(self, tree):
        found = tree.find(lambda n: n.value == "y")
        assert found is not None and found.tag == "d"
        assert tree.find(lambda n: n.tag == "zz") is None

    def test_ancestors_nearest_first(self, tree):
        d = tree.children[1].children[0]
        assert [n.tag for n in d.ancestors()] == ["c", "a"]

    def test_path_from_root(self, tree):
        d = tree.children[1].children[0]
        assert d.path_from_root() == ["a", "c", "d"]

    def test_size(self, tree):
        assert tree.size() == 5


class TestMutation:
    def test_append_sets_parent(self):
        parent = XMLNode("p")
        child = XMLNode("c")
        parent.append(child)
        assert child.parent is parent

    def test_make_child(self):
        parent = XMLNode("p")
        child = parent.make_child("c", "v")
        assert child.value == "v" and child in parent.children

    def test_detach_copy_is_deep(self, tree):
        copy = tree.detach_copy()
        assert copy is not tree
        assert serialize(copy) == serialize(tree)
        copy.children[0].text = "changed"
        assert tree.children[0].text == "x"

    def test_detach_copy_shares_annotations(self):
        node = XMLNode("a")
        node.anno = NodeAnnotations(position=7)
        assert node.detach_copy().anno is node.anno


class TestDeweyAssignment:
    def test_assign_from_custom_root(self, tree):
        assign_dewey_ids(tree, DeweyID.parse("5"))
        assert str(tree.dewey) == "5"
        assert str(tree.children[0].dewey) == "5.1"

    def test_document_defaults_to_root_one(self, tree):
        doc = Document("d.xml", tree)
        assert str(doc.root.dewey) == "1"

    def test_document_without_assignment(self, tree):
        Document("d.xml", tree)  # assigns
        before = tree.children[0].dewey
        Document("d2.xml", tree, assign_ids=False)
        assert tree.children[0].dewey is before

    def test_repr_helpers(self, tree):
        doc = Document("d.xml", tree)
        assert "d.xml" in repr(doc)
        assert "a" in repr(tree)


class TestNodeByDewey:
    """The lookup is a stateless root-to-node descent, so it must stay
    right across everything an edit does to sibling ordinals."""

    @staticmethod
    def _database():
        from repro.storage.database import XMLDatabase

        db = XMLDatabase()
        db.load_document(
            "d.xml", "<r><a><x/><y/><z/></a><b/><c><k/></c><d/></r>"
        )
        return db, db.get("d.xml").document

    def test_every_element_is_found_by_its_own_id(self, tree):
        doc = Document("d.xml", tree)
        for node in tree.iter():
            assert doc.node_by_dewey(node.dewey) is node

    def test_lookup_through_ordinal_holes(self):
        db, doc = self._database()
        db.delete_subtree("d.xml", "1.2")  # <b/>: shifts c, d left
        db.delete_subtree("d.xml", "1.1.1")  # <x/>: shifts y, z left
        assert doc.node_by_dewey(DeweyID.parse("1.2")) is None
        assert doc.node_by_dewey(DeweyID.parse("1.1.1")) is None
        assert doc.node_by_dewey(DeweyID.parse("1.3")).tag == "c"
        assert doc.node_by_dewey(DeweyID.parse("1.3.1")).tag == "k"
        assert doc.node_by_dewey(DeweyID.parse("1.4")).tag == "d"
        assert doc.node_by_dewey(DeweyID.parse("1.1.3")).tag == "z"
        for node in doc.root.iter():
            assert doc.node_by_dewey(node.dewey) is node

    def test_reused_ordinal_resolves_to_the_new_element(self):
        db, doc = self._database()
        db.delete_subtree("d.xml", "1.4")  # the last child frees ordinal 4
        delta = db.insert_subtree("d.xml", "1", "<e><f/></e>")
        assert str(delta.edit_id) == "1.4"
        assert doc.node_by_dewey(DeweyID.parse("1.4")).tag == "e"
        assert doc.node_by_dewey(DeweyID.parse("1.4.1")).tag == "f"

    def test_replace_is_visible_at_the_same_id(self):
        db, doc = self._database()
        db.replace_subtree("d.xml", "1.3", "<n><m/></n>")
        assert doc.node_by_dewey(DeweyID.parse("1.3")).tag == "n"
        assert doc.node_by_dewey(DeweyID.parse("1.3.1")).tag == "m"

    def test_missing_ids(self, tree):
        doc = Document("d.xml", tree)
        for text in ("1.3", "1.1.1", "1.2.3", "1.2.1.1", "1.99"):
            assert doc.node_by_dewey(DeweyID.parse(text)) is None

    def test_foreign_root(self, tree):
        doc = Document("d.xml", tree)
        assert doc.node_by_dewey(DeweyID.parse("2")) is None
        assert doc.node_by_dewey(DeweyID.parse("2.1")) is None

    def test_custom_root_id(self, tree):
        assign_dewey_ids(tree, DeweyID.parse("5.7"))
        doc = Document("d.xml", tree, assign_ids=False)
        assert doc.node_by_dewey(DeweyID.parse("5.7")) is tree
        assert doc.node_by_dewey(DeweyID.parse("5.7.2.1")).tag == "d"
        assert doc.node_by_dewey(DeweyID.parse("5")) is None
        assert doc.node_by_dewey(DeweyID.parse("5.8.1")) is None

    def test_unlabelled_document(self, tree):
        doc = Document("d.xml", tree, assign_ids=False)
        assert doc.node_by_dewey(DeweyID.parse("1")) is None

    def test_no_whole_document_index_is_kept(self, tree):
        doc = Document("d.xml", tree)
        doc.node_by_dewey(DeweyID.parse("1.2.1"))
        assert not hasattr(doc, "_by_dewey")
