"""Typed atomic-value semantics tests (shared comparison rules)."""

import pytest
from hypothesis import given, strategies as st

from repro.values import (
    Predicate,
    compare_atoms,
    join_key,
    parse_number,
)


class TestParseNumber:
    def test_integers_and_floats(self):
        assert parse_number("42") == 42.0
        assert parse_number("3.5") == 3.5
        assert parse_number("-2") == -2.0

    def test_non_numeric(self):
        assert parse_number("abc") is None
        assert parse_number("1.2.3") is None
        assert parse_number("") is None


class TestCompareAtoms:
    def test_numeric_comparison(self):
        assert compare_atoms(">", "2004", "1995")
        assert not compare_atoms("<", "2004", "1995")

    def test_numeric_equality_across_spellings(self):
        assert compare_atoms("=", "01", "1")
        assert compare_atoms("=", "1.0", "1")

    def test_string_comparison_when_either_non_numeric(self):
        assert compare_atoms("<", "apple", "banana")
        assert compare_atoms(">", "2", "10a") == ("2" > "10a")

    def test_none_operands_always_false(self):
        assert not compare_atoms("=", None, "x")
        assert not compare_atoms("!=", "x", None)

    @pytest.mark.parametrize("op,expected", [
        ("=", False), ("!=", True), ("<", True),
        ("<=", True), (">", False), (">=", False),
    ])
    def test_all_operators(self, op, expected):
        assert compare_atoms(op, "1", "2") is expected

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            compare_atoms("~", "1", "2")


class TestJoinKey:
    def test_numeric_values_join_across_spellings(self):
        assert join_key("1") == join_key("1.0") == join_key("01")

    def test_string_values_join_exactly(self):
        assert join_key("abc") == join_key("abc")
        assert join_key("abc") != join_key("ABC")

    def test_none(self):
        assert join_key(None) is None

    @given(
        st.text(alphabet="ab019.", min_size=1, max_size=6),
        st.text(alphabet="ab019.", min_size=1, max_size=6),
    )
    def test_join_key_consistent_with_equality(self, a, b):
        assert (join_key(a) == join_key(b)) == compare_atoms("=", a, b)


class TestPredicate:
    def test_matches(self):
        assert Predicate(">", "1995").matches("2004")
        assert not Predicate(">", "1995").matches("1990")
        assert not Predicate(">", "1995").matches(None)

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            Predicate("~", "x")

    def test_str(self):
        assert "1995" in str(Predicate(">", "1995"))
