"""Baseline: materialize the view at query time, then search it.

This is the paper's first comparison system ("materializing the view at
the query time, and evaluating keyword search queries over view").  The
view is evaluated over the *base* documents, every result is fully
materialized (copied out of the base trees, the cost the paper attributes
to this strategy), tokenized, and scored with the same TF-IDF definitions.

Because the scorer is shared with the Efficient pipeline, this engine also
serves as the ground truth for the Theorem 4.1 tests: scores, ranks, term
frequencies and byte lengths must agree exactly.  To stay an *independent*
ground truth for the evaluator's join plan as well, it evaluates the view's
:func:`nested_loop_form` — the same query in a shape the planner never
matches — so every differential test also checks hash join == nested loop,
and its timings keep meaning what they meant in every earlier table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.outcome import PhaseTimings, View
from repro.core.qpt import generate_qpts
from repro.core.rewrite import make_base_resolver
from repro.core.scoring import (
    ScoredResult,
    ScoringOutcome,
    score_results,
    select_top_k,
)
from repro.storage.database import XMLDatabase
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tokenizer import normalize_keyword
from repro.xquery.ast import (
    EmptySequence,
    Expr,
    FLWOR,
    ForClause,
    IfExpr,
    LetClause,
)
from repro.xquery.evaluator import EvalContext, Evaluator
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query

import time


def nested_loop_form(expr):
    """``expr`` with every ``for … where W return R`` rewritten to ``for …
    return if (W) then R else ()``: the same results from the plain
    nested loop, whatever plans the evaluator makes for a ``where``."""
    if isinstance(expr, tuple):
        return tuple(nested_loop_form(item) for item in expr)
    if isinstance(expr, (ForClause, LetClause)):
        return dataclasses.replace(expr, expr=nested_loop_form(expr.expr))
    if not isinstance(expr, Expr):
        return expr  # a step, a name, a keyword, no ``where``
    changes = {
        field.name: nested_loop_form(getattr(expr, field.name))
        for field in dataclasses.fields(expr)
    }
    if isinstance(expr, FLWOR) and expr.where is not None:
        changes["ret"] = IfExpr(changes["where"], changes["ret"], EmptySequence())
        changes["where"] = None
    return dataclasses.replace(expr, **changes)


@dataclass
class BaselineResult:
    """A ranked, fully materialized result from the Baseline engine."""

    rank: int
    score: float
    scored: ScoredResult
    materialized: XMLNode

    def tf(self, keyword: str) -> int:
        return self.scored.tf(keyword)

    def to_xml(self, indent: Optional[int] = None) -> str:
        return serialize(self.materialized, indent=indent)


@dataclass
class BaselineOutcome:
    results: list[BaselineResult]
    view_size: int
    matching_count: int
    idf: dict[str, float]
    timings: PhaseTimings
    scoring: ScoringOutcome


class BaselineEngine:
    """Materialize-then-search keyword search over views."""

    def __init__(self, database: XMLDatabase):
        self.database = database

    def define_view(self, name: str, text: str) -> View:
        program = parse_query(text)
        expr = inline_functions(program)
        # QPTs are not used for evaluation here, but keeping them makes the
        # Baseline and Efficient views interchangeable in the harness.
        qpts = generate_qpts(expr)
        return View(name=name, text=text, expr=expr, qpts=qpts)

    def search(
        self,
        view: Union[View, str],
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
    ) -> list[BaselineResult]:
        return self.search_detailed(view, keywords, top_k, conjunctive).results

    def search_detailed(
        self,
        view: View,
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
    ) -> BaselineOutcome:
        timings = PhaseTimings()
        normalized = tuple(normalize_keyword(keyword) for keyword in keywords)

        # Materialize the entire view: evaluate over base documents and
        # deep-copy every result (the view exists independently of the
        # bases after this, which is what "materialized" means).
        start = time.perf_counter()
        evaluator = Evaluator(
            EvalContext(resolver=make_base_resolver(self.database))
        )
        items = evaluator.evaluate(nested_loop_form(view.expr))
        view_results = [
            item.detach_copy() for item in items if isinstance(item, XMLNode)
        ]
        # Materialization proper: the view becomes a document of its own.
        # (The paper's Baseline spent 58 of 59 seconds here.)
        materialized_view = [serialize(result) for result in view_results]
        timings.evaluator = time.perf_counter() - start

        # Tokenize + score the materialized results; select top-k.
        start = time.perf_counter()
        outcome = score_results(view_results, normalized, conjunctive=conjunctive)
        winners = select_top_k(outcome, top_k)
        results = [
            BaselineResult(
                rank=rank,
                score=scored.score,
                scored=scored,
                materialized=scored.node,
            )
            for rank, scored in enumerate(winners, start=1)
        ]
        timings.post_processing = time.perf_counter() - start

        return BaselineOutcome(
            results=results,
            view_size=outcome.view_size,
            matching_count=len(outcome.results),
            idf=outcome.idf,
            timings=timings,
            scoring=outcome,
        )
