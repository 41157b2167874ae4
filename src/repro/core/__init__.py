"""The paper's primary contribution: QPT generation, index-only PDT
generation (split into a reusable keyword-independent skeleton plus a
per-query annotation pass), scoring with deferred materialization,
streaming top-k selection, the four-tier query cache, and the
end-to-end keyword-search-over-views engine."""

from repro.core.qpt import QPT, QPTNode, QPTEdge, generate_qpts
from repro.core.pdt import (
    PDTResult,
    annotate_skeleton,
    build_skeleton,
    generate_pdt,
)
from repro.core.reference import reference_pdt
from repro.core.skeleton import PDTSkeleton
from repro.core.scoring import (
    ScoredResult,
    score_results,
    select_top_k,
)
from repro.core.topk import TopKSelector
from repro.core.cache import LRUCache, QueryCache
from repro.core.materialize import materialize_result
from repro.core.engine import KeywordSearchEngine
from repro.core.outcome import SearchResult, View

__all__ = [
    "QPT",
    "QPTNode",
    "QPTEdge",
    "generate_qpts",
    "generate_pdt",
    "PDTResult",
    "PDTSkeleton",
    "build_skeleton",
    "annotate_skeleton",
    "reference_pdt",
    "ScoredResult",
    "score_results",
    "select_top_k",
    "TopKSelector",
    "LRUCache",
    "QueryCache",
    "materialize_result",
    "KeywordSearchEngine",
    "SearchResult",
    "View",
]
