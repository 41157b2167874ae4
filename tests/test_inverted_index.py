"""Inverted index tests: postings, subtree aggregation, storage layout."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dewey import DeweyID, pack, packed_child_bound
from repro.storage.inverted_index import InvertedIndex, Posting, PostingList
from repro.xmlmodel.node import Document
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.tokenizer import token_frequencies

DOC = """<root>
<sec><p>xml search xml</p><p>search engine</p></sec>
<sec><p>plain text</p><note>about xml</note></sec>
</root>"""


@pytest.fixture()
def indexed():
    document = Document("d.xml", parse_xml(DOC))
    return InvertedIndex.from_tree(document.root), document


class TestPostings:
    def test_direct_containment_only(self, indexed):
        index, _ = indexed
        postings = index.lookup("xml").postings
        # xml appears directly in 1.1.1 (twice) and 1.2.2 (once).
        assert [(p.dewey, p.tf) for p in postings] == [
            ((1, 1, 1), 2),
            ((1, 2, 2), 1),
        ]

    def test_postings_sorted_by_dewey(self, indexed):
        index, _ = indexed
        for keyword in ("xml", "search", "text"):
            deweys = [p.dewey for p in index.lookup(keyword)]
            assert deweys == sorted(deweys)

    def test_missing_keyword_empty_list(self, indexed):
        index, _ = indexed
        assert len(index.lookup("missing")) == 0

    def test_document_frequency(self, indexed):
        index, _ = indexed
        assert index.document_frequency("xml") == 2
        assert index.document_frequency("search") == 2
        assert index.document_frequency("absent") == 0

    def test_vocabulary_and_contains(self, indexed):
        index, _ = indexed
        assert "xml" in index
        assert "absent" not in index
        assert index.vocabulary_size() >= 6

    def test_probe_count(self, indexed):
        index, _ = indexed
        index.lookup("xml")
        index.lookup("absent")
        assert index.probe_count == 2


class TestSubtreeAggregation:
    def test_subtree_tf_root(self, indexed):
        index, _ = indexed
        assert index.lookup("xml").subtree_tf(DeweyID.root()) == 3

    def test_subtree_tf_inner(self, indexed):
        index, _ = indexed
        assert index.lookup("xml").subtree_tf(DeweyID.parse("1.1")) == 2
        assert index.lookup("xml").subtree_tf(DeweyID.parse("1.2")) == 1

    def test_subtree_tf_leaf(self, indexed):
        index, _ = indexed
        assert index.lookup("search").subtree_tf(DeweyID.parse("1.1.2")) == 1

    def test_subtree_tf_zero(self, indexed):
        index, _ = indexed
        assert index.lookup("engine").subtree_tf(DeweyID.parse("1.2")) == 0

    def test_contains_subtree(self, indexed):
        index, _ = indexed
        assert index.lookup("xml").contains_subtree(DeweyID.parse("1.2"))
        assert not index.lookup("engine").contains_subtree(DeweyID.parse("1.2"))

    def test_direct_tf(self, indexed):
        index, _ = indexed
        assert index.lookup("xml").direct_tf(DeweyID.parse("1.1.1")) == 2
        assert index.lookup("xml").direct_tf(DeweyID.parse("1.1")) == 0

    def test_subtree_tf_matches_tokenization(self, indexed):
        """The index aggregate equals brute-force tokenization (the bridge
        Theorem 4.1 stands on)."""
        index, document = indexed
        for node in document.root.iter():
            text_tf = sum(
                token_frequencies(n.text or "").get("xml", 0) for n in node.iter()
            )
            assert index.lookup("xml").subtree_tf(node.dewey) == text_tf


class TestPackedStorageFootprint:
    """Satellite regression: posting lists keep only the packed arrays.

    The old layout stored every posting three times over — a ``Posting``
    dataclass *plus* parallel ``_deweys``/``_tfs`` copies.  The packed
    layout must (a) not retain synthesized ``Posting`` objects and (b)
    undercut a tuple-of-ints key array on payload bytes.
    """

    def _deep_list(self, depth=8, fanout=40):
        import random

        from repro.storage.inverted_index import Posting, PostingList

        rng = random.Random(11)
        deweys = sorted(
            tuple(rng.randint(1, 60) for _ in range(rng.randint(2, depth)))
            for _ in range(fanout)
        )
        postings = [Posting(dewey=d, tf=1 + i % 5) for i, d in enumerate(deweys)]
        return PostingList("kw", postings), postings

    def test_posting_views_are_synthesized_not_stored(self):
        plist, postings = self._deep_list()
        assert plist.postings == postings  # same logical content
        assert plist.postings[0] is not plist.postings[0]  # fresh views
        slots = {slot: getattr(plist, slot, None) for slot in PostingListSlots()}
        assert "_postings" not in slots

    def test_packed_keys_smaller_than_tuple_keys(self):
        import sys

        plist, postings = self._deep_list()
        packed_bytes = sum(sys.getsizeof(key) for key in plist.keys)
        tuple_bytes = sum(sys.getsizeof(p.dewey) for p in postings) + sum(
            sys.getsizeof(c) for p in postings for c in p.dewey
        )
        assert plist.storage_nbytes() == sum(len(k) for k in plist.keys)
        assert packed_bytes < tuple_bytes

    def test_positions_array_absent_when_unused(self):
        """A posting is ``(element, tf)``: the three arrays are all a
        list stores."""
        plist, _ = self._deep_list()
        assert PostingListSlots() == ("keyword", "_keys", "_tfs", "_cumulative")


def PostingListSlots():
    from repro.storage.inverted_index import PostingList

    return PostingList.__slots__


_DEWEYS = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4).map(
    lambda tail: (1, *tail)
)
_POSTINGS = st.dictionaries(_DEWEYS, st.integers(min_value=1, max_value=2**40), max_size=12)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.none(), _POSTINGS),
    st.lists(st.tuples(_DEWEYS, _POSTINGS), max_size=6),
    st.lists(_DEWEYS, max_size=8),
)
def test_splice_sequences_keep_the_prefix_sums(initial, splices, probes):
    """After every ``splice_range`` of a random sequence, ``subtree_tf``
    and ``cumulative_below`` equal brute-force sums over the list's
    ``(key, tf)`` pairs.  ``None`` starts from ``PostingList(keyword,
    [])``, an empty dict from an empty column."""
    if initial is None:
        plist, pairs = PostingList("kw", []), {}
    else:
        pairs = dict(initial)
        plist = PostingList.from_columns(
            "kw", [pack(key) for key in sorted(pairs)], [pairs[k] for k in sorted(pairs)]
        )
    for point, payload in [(None, {})] + splices:
        if point is not None:
            added = sorted(
                {point + key[1:]: tf for key, tf in payload.items()}.items()
            )
            low = pack(point)
            plist.splice_range(
                low,
                packed_child_bound(low),
                [pack(key) for key, _ in added],
                [tf for _, tf in added],
            )
            pairs = {
                key: tf for key, tf in pairs.items() if key[: len(point)] != point
            }
            pairs.update(added)
        ordered = sorted(pairs.items())
        assert plist.postings == [Posting(key, tf) for key, tf in ordered]
        for dewey in [(1,), *probes, *pairs]:
            assert plist.subtree_tf(DeweyID(dewey)) == sum(
                tf for key, tf in ordered if key[: len(dewey)] == dewey
            )
        bounds = sorted(
            {pack(d) for d in [*probes, *pairs]}
            | {packed_child_bound(pack(d)) for d in probes}
        )
        assert plist.cumulative_below(bounds) == [
            sum(tf for key, tf in ordered if pack(key) < bound) for bound in bounds
        ]
