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

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def parse_number(text: str) -> Optional[float]:
    """Parse ``text`` as a number, or ``None`` if it is not numeric."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


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
