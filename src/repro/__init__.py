"""repro: Efficient Keyword Search over Virtual XML Views (VLDB 2007).

A complete reproduction of Shao et al.'s system: QPT generation from
XQuery view definitions, index-only PDT generation, TF-IDF scoring with
deferred materialization, the three comparison baselines, workload
generators and the benchmark harness.

Quickstart::

    from repro import XMLDatabase, KeywordSearchEngine

    db = XMLDatabase()
    db.load_document("books.xml", books_xml_text)
    db.load_document("reviews.xml", reviews_xml_text)

    engine = KeywordSearchEngine(db)
    view = engine.define_view("bookrevs", VIEW_XQUERY)
    for hit in engine.search(view, ["xml", "search"], top_k=10):
        print(hit.rank, hit.score, hit.to_xml())
"""

from repro.core.engine import KeywordSearchEngine
from repro.core.outcome import PhaseTimings, SearchOutcome, SearchResult, View
from repro.core.cache import QueryCache
from repro.core.qpt import QPT, generate_qpts
from repro.core.pdt import (
    PDTResult,
    annotate_skeleton,
    build_skeleton,
    generate_pdt,
)
from repro.core.skeleton import PDTSkeleton
from repro.core.topk import TopKSelector
from repro.dewey import DeweyID, pack, packed_child_bound, unpack
from repro.errors import (
    DocumentNotFoundError,
    InvalidKeywordError,
    ReproError,
    StaleViewError,
    StorageError,
    UnsupportedQueryError,
    ViewDefinitionError,
    XMLParseError,
    XQueryEvalError,
    XQuerySyntaxError,
)
from repro.storage.database import XMLDatabase
from repro.xmlmodel.node import Document, XMLNode
from repro.xmlmodel.parser import parse_document, parse_xml
from repro.xmlmodel.serializer import serialize

__version__ = "1.0.0"

__all__ = [
    "KeywordSearchEngine",
    "PhaseTimings",
    "SearchOutcome",
    "SearchResult",
    "View",
    "QPT",
    "generate_qpts",
    "PDTResult",
    "PDTSkeleton",
    "generate_pdt",
    "build_skeleton",
    "annotate_skeleton",
    "QueryCache",
    "TopKSelector",
    "DeweyID",
    "pack",
    "unpack",
    "packed_child_bound",
    "XMLDatabase",
    "Document",
    "XMLNode",
    "parse_document",
    "parse_xml",
    "serialize",
    "ReproError",
    "XMLParseError",
    "XQuerySyntaxError",
    "XQueryEvalError",
    "UnsupportedQueryError",
    "StorageError",
    "DocumentNotFoundError",
    "InvalidKeywordError",
    "ViewDefinitionError",
    "StaleViewError",
    "__version__",
]
