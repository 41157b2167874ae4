"""Path index tests: probes, predicates, // expansion, pattern matching."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.path_index import (
    PathIndex,
    match_depths,
    pattern_matches_path,
)
from repro.values import COMPARISON_OPS, Predicate
from repro.xmlmodel.node import Document, XMLNode
from repro.xmlmodel.parser import parse_xml

DOC = """<books>
<book><isbn>111</isbn><year>2004</year><title>alpha</title></book>
<book><isbn>222</isbn><year>1990</year><title>beta</title></book>
<shelf><book><isbn>333</isbn><year>2001</year></book></shelf>
</books>"""


@pytest.fixture()
def index():
    document = Document("b.xml", parse_xml(DOC))
    return PathIndex.from_tree(document.root)


def _ids(path_list):
    return [entry.dewey for entry in path_list]


class TestDataPaths:
    def test_distinct_paths_recorded(self, index):
        paths = set(index.data_paths)
        assert ("books", "book", "isbn") in paths
        assert ("books", "shelf", "book", "isbn") in paths

    def test_expand_pattern_child_axis(self, index):
        pattern = (("/", "books"), ("/", "book"), ("/", "isbn"))
        expanded = [index.path_by_id(pid) for pid in index.expand_pattern(pattern)]
        assert expanded == [("books", "book", "isbn")]

    def test_expand_pattern_descendant_axis(self, index):
        pattern = (("/", "books"), ("//", "book"), ("/", "isbn"))
        expanded = {index.path_by_id(pid) for pid in index.expand_pattern(pattern)}
        assert expanded == {
            ("books", "book", "isbn"),
            ("books", "shelf", "book", "isbn"),
        }

    def test_expand_pattern_no_match(self, index):
        assert index.expand_pattern((("/", "nope"),)) == []


class TestProbes:
    def test_lookup_merges_concrete_paths_in_dewey_order(self, index):
        pattern = (("/", "books"), ("//", "book"), ("/", "isbn"))
        ids = _ids(index.lookup_ids(pattern))
        assert ids == sorted(ids)
        assert len(ids) == 3

    def test_lookup_without_values(self, index):
        pattern = (("/", "books"), ("//", "book"), ("/", "isbn"))
        assert all(e.value is None for e in index.lookup_ids(pattern))

    def test_lookup_with_values(self, index):
        pattern = (("/", "books"), ("//", "book"), ("/", "isbn"))
        values = {e.value for e in index.lookup_ids(pattern, with_values=True)}
        assert values == {"111", "222", "333"}

    def test_equality_predicate_point_probe(self, index):
        pattern = (("/", "books"), ("//", "book"), ("/", "isbn"))
        entries = index.lookup_ids(
            pattern, predicates=[Predicate("=", "222")], with_values=True
        )
        assert [(e.dewey, e.value) for e in entries] == [((1, 2, 1), "222")]

    def test_range_predicate_numeric(self, index):
        pattern = (("/", "books"), ("//", "book"), ("/", "year"))
        entries = index.lookup_ids(
            pattern, predicates=[Predicate(">", "1995")], with_values=True
        )
        assert sorted(e.value for e in entries) == ["2001", "2004"]

    def test_conflicting_predicates_empty(self, index):
        pattern = (("/", "books"), ("//", "book"), ("/", "year"))
        entries = index.lookup_ids(
            pattern,
            predicates=[Predicate(">", "2000"), Predicate("<", "1995")],
        )
        assert len(entries) == 0

    def test_equality_predicate_missing_value(self, index):
        pattern = (("/", "books"), ("//", "book"), ("/", "isbn"))
        assert len(index.lookup_ids(pattern, predicates=[Predicate("=", "999")])) == 0

    def test_entries_carry_byte_lengths(self, index):
        pattern = (("/", "books"), ("/", "book"), ("/", "title"))
        for entry in index.lookup_ids(pattern):
            assert entry.byte_length > 0

    def test_probe_count_tracks_concrete_paths(self, index):
        index.probe_count = 0
        index.lookup_ids((("/", "books"), ("//", "book"), ("/", "isbn")))
        assert index.probe_count == 2  # two concrete paths expanded

    def test_interior_path_probe(self, index):
        entries = index.lookup_ids((("/", "books"), ("/", "book")))
        assert [e.dewey for e in entries] == [(1, 1), (1, 2)]

    def test_equality_compares_numbers_not_spellings(self):
        document = Document(
            "n.xml",
            parse_xml("<r><v>01</v><v>1</v><v>1.0</v><v>2</v><v>abc</v></r>"),
        )
        entries = PathIndex.from_tree(document.root).lookup_ids(
            (("/", "r"), ("/", "v")), [Predicate("=", "1")], with_values=True
        )
        assert [(e.dewey, e.value) for e in entries] == [
            ((1, 1), "01"),
            ((1, 2), "1"),
            ((1, 3), "1.0"),
        ]


_ATOMS = st.one_of(
    st.sampled_from(["0", "-0", "01", "1", "1.0", "1e0", "nan", "inf"]),
    st.text(alphabet="ab1", max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(
    elements=st.lists(
        st.tuples(st.one_of(st.none(), _ATOMS), st.booleans()), max_size=12
    ),
    op=st.sampled_from(COMPARISON_OPS),
    literal=_ATOMS,
)
def test_predicated_probe_filters_by_own_value(elements, op, literal):
    """A predicated probe is the path's elements filtered by
    ``Predicate.matches`` on each one's own value — the evaluator's
    comparison — in document order, across the two paths ``//v`` expands
    to (``r/v`` and ``r/g/v``, interleaved)."""
    root = XMLNode("r")
    for value, nested in elements:
        (root.make_child("g") if nested else root).make_child("v", value)
    document = Document("p.xml", root)
    index = PathIndex.from_tree(document.root)
    predicate = Predicate(op, literal)
    expected = [
        (node.dewey.components, node.value)
        for node in document.root.iter()
        if node.tag == "v" and predicate.matches(node.value)
    ]
    pattern = (("//", "v"),)
    entries = index.lookup_ids(pattern, [predicate], with_values=True)
    assert [(e.dewey, e.value) for e in entries] == expected
    bare = index.lookup_ids(pattern, [predicate])
    assert [(e.dewey, e.value) for e in bare] == [
        (dewey, None) for dewey, _ in expected
    ]


class TestPatternMatching:
    @pytest.mark.parametrize(
        "pattern, path, expected",
        [
            (((("/", "a"),)), ("a",), True),
            (((("/", "a"),)), ("b",), False),
            ((("/", "a"), ("/", "b")), ("a", "b"), True),
            ((("/", "a"), ("/", "b")), ("a", "x", "b"), False),
            ((("/", "a"), ("//", "b")), ("a", "x", "b"), True),
            ((("//", "b"),), ("a", "x", "b"), True),
            ((("//", "b"),), ("a", "b", "x"), False),  # must end at the element
            ((("//", "a"), ("//", "a")), ("a", "a"), True),
            ((("//", "a"), ("//", "a")), ("a",), False),
            ((("/", "a"), ("//", "a"), ("/", "b")), ("a", "a", "a", "b"), True),
        ],
    )
    def test_pattern_matches_path(self, pattern, path, expected):
        assert pattern_matches_path(tuple(pattern), path) is expected

    def test_match_depths_simple(self):
        pattern = (("/", "a"), ("//", "b"))
        depths = match_depths(pattern, ("a", "x", "b"))
        assert depths == [{0}, set(), {1}]

    def test_match_depths_repeating_tags(self):
        # //a//a against /a/a/a: the deepest a matches both pattern steps.
        pattern = (("//", "a"), ("//", "a"))
        depths = match_depths(pattern, ("a", "a", "a"))
        assert depths[0] == {0}
        assert depths[1] == {0, 1}
        assert depths[2] == {0, 1}

    def test_match_depths_child_axis_strict(self):
        pattern = (("/", "a"), ("/", "b"))
        depths = match_depths(pattern, ("a", "b", "b"))
        assert depths == [{0}, {1}, set()]
