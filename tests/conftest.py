"""Shared fixtures: the paper's running example and a small INEX database."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.storage.database import XMLDatabase
from repro.workloads.bookrev import generate_bookrev_database
from repro.workloads.inex import INEXConfig, generate_inex_database

# More examples and no deadline, for CI's fuzz step
# (``pytest --hypothesis-profile=ci``); the default profile is unchanged.
settings.register_profile("ci", max_examples=2000, deadline=None)

BOOKS_XML = """<books>
<book isbn="111-11-1111"><title>XML Web Services</title>
  <publisher>Prentice Hall</publisher><year>2004</year></book>
<book isbn="222-22-2222"><title>Artificial Intelligence</title>
  <publisher>Prentice Hall</publisher><year>2002</year></book>
<book isbn="333-33-3333"><title>Old XML Book</title><year>1990</year></book>
<book isbn="444-44-4444"><title>No Year Book</title></book>
</books>"""

REVIEWS_XML = """<reviews>
<review><isbn>111-11-1111</isbn><rate>Excellent</rate>
  <content>all about search engines</content><reviewer>John</reviewer></review>
<review><isbn>111-11-1111</isbn><rate>Good</rate>
  <content>Easy to read about XML</content><reviewer>Alex</reviewer></review>
<review><isbn>222-22-2222</isbn><rate>OK</rate>
  <content>dense search theory with xml</content><reviewer>Mary</reviewer></review>
<review><rate>orphan</rate><content>review without isbn</content></review>
</reviews>"""

BOOKREV_VIEW = """
for $book in fn:doc(books.xml)/books//book
where $book/year > 1995
return <bookrevs>
   <book> {$book/title} </book>,
   {for $rev in fn:doc(reviews.xml)/reviews//review
    where $rev/isbn = $book/isbn
    return $rev/content}
</bookrevs>
"""


@pytest.fixture()
def bookrev_db() -> XMLDatabase:
    """The paper's Figure 1 scenario, with edge cases (no year, no isbn)."""
    db = XMLDatabase()
    db.load_document("books.xml", BOOKS_XML)
    db.load_document("reviews.xml", REVIEWS_XML)
    return db


@pytest.fixture()
def bookrev_view_text() -> str:
    return BOOKREV_VIEW


@pytest.fixture(scope="session")
def large_bookrev_db() -> XMLDatabase:
    """A bigger generated books/reviews database (session-scoped)."""
    return generate_bookrev_database(book_count=60, reviews_per_book=3, seed=5)


@pytest.fixture(scope="session")
def inex_db() -> XMLDatabase:
    """A small synthetic INEX database (session-scoped; ~1 scale unit)."""
    return generate_inex_database(INEXConfig(scale=1, seed=13))
