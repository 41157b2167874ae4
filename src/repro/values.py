"""Typed atomic-value semantics shared by indices, predicates and queries.

XML atomic values are strings; comparisons in the supported grammar
(``=``, ``<``, ``>`` plus the ``<=``, ``>=``, ``!=`` extensions) are numeric
when *both* operands parse as numbers and lexicographic otherwise.  Exactly
one implementation of this rule exists — here — and is used by the path
index (predicate push-down), the XQuery evaluator (where clauses) and the
PDT reference implementation, so that index probes and query evaluation can
never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Sort-order kinds for composite index keys: nulls < numbers < strings.
KIND_NULL = 0
KIND_NUMBER = 1
KIND_STRING = 2

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def parse_number(text: str) -> Optional[float]:
    """Parse ``text`` as a number, or ``None`` if it is not numeric."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def atom_key(value: Optional[str]) -> tuple:
    """A totally-ordered key for an atomic value, usable in B+-tree keys.

    Numeric strings order numerically within the number band; everything
    else orders lexicographically within the string band.  The key keeps
    the original string so equal numbers with different spellings
    (``01`` vs ``1``) share an index row only when they compare equal.
    NaN orders with nothing — a key holding it could be stored but never
    found again — so ``nan`` spellings sit in the string band; no
    predicate ever matches them either way (:func:`compare_atoms`).
    """
    if value is None:
        return (KIND_NULL, "")
    number = parse_number(value)
    if number is not None and number == number:
        return (KIND_NUMBER, number, value)
    return (KIND_STRING, value)


def compare_atoms(op: str, left: Optional[str], right: Optional[str]) -> bool:
    """Apply a comparison operator to two atomic values.

    Comparisons against a missing value are false (XQuery's empty-sequence
    comparison semantics: ``() = x`` is false).
    """
    if left is None or right is None:
        return False
    left_num = parse_number(left)
    right_num = parse_number(right)
    if left_num is not None and right_num is not None:
        lhs, rhs = left_num, right_num
    else:
        lhs, rhs = left, right
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise ValueError(f"unsupported comparison operator: {op!r}")


@dataclass(frozen=True)
class Predicate:
    """A leaf-value predicate ``. op literal`` attached to a QPT node."""

    op: str
    literal: str

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported predicate operator: {self.op!r}")

    def matches(self, value: Optional[str]) -> bool:
        return compare_atoms(self.op, value, self.literal)

    def __str__(self) -> str:
        return f". {self.op} {self.literal!r}"


def join_key(value: Optional[str]):
    """Canonical key for value joins: numeric when possible, else string.

    Ensures ``1`` joins with ``1.0`` exactly when ``compare_atoms('=', ...)``
    would call them equal.
    """
    if value is None:
        return None
    number = parse_number(value)
    if number is not None:
        return ("n", number)
    return ("s", value)
