"""Keyword tokenization.

One tokenizer is shared by every component that looks at text — the
inverted-index builder, the Baseline's materialized-view scorer, and the
conjunctive/disjunctive semantics checks — so that term frequencies computed
from indices are identical to term frequencies computed from materialized
text (a precondition of Theorem 4.1).

Tokens are maximal runs of alphanumeric characters, lower-cased.  Purely
numeric runs are kept (isbn fragments and years are realistic search keys).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterator

from repro.errors import InvalidKeywordError

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def tokenize(text: str) -> Iterator[str]:
    """Lower-cased tokens of ``text`` in order (with duplicates)."""
    return map(str.lower, _TOKEN_RE.findall(text))


def token_frequencies(text: str) -> Counter:
    """Token -> occurrence count for ``text``."""
    return Counter(tokenize(text))


def normalize_keyword(keyword: str) -> str:
    """Normalize a query keyword the same way indexed tokens are normalized.

    Multi-token keywords are rejected: the system's unit of matching is a
    single token (phrase queries are outside the paper's scope).
    """
    tokens = list(tokenize(keyword))
    if len(tokens) != 1:
        raise InvalidKeywordError(
            f"keyword must normalize to exactly one token, got {keyword!r} -> {tokens}"
        )
    return tokens[0]
