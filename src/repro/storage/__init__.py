"""Storage and index subsystem (paper Section 3.2).

Exposes the Dewey-ordered document store, the (Path, Value) path index
with its DataGuide, the inverted-list index, the tag index used by the
GTP baseline, and :class:`XMLDatabase`, which ties them together.
"""

from repro.storage.document_store import DocumentStore, ElementRecord
from repro.storage.path_index import PathIndex, PathList, PathListEntry
from repro.storage.inverted_index import InvertedIndex, Posting
from repro.storage.tag_index import TagIndex
from repro.storage.database import XMLDatabase

__all__ = [
    "DocumentStore",
    "ElementRecord",
    "PathIndex",
    "PathList",
    "PathListEntry",
    "InvertedIndex",
    "Posting",
    "TagIndex",
    "XMLDatabase",
]
