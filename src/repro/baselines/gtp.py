"""GTP with TermJoin: structural joins plus base-data value access.

The paper's second comparison system (Chen et al.'s Generalized Tree
Patterns evaluated with Al-Khalifa et al.'s TermJoin) solves the same
sub-problem as PDT generation — find the elements satisfying the pattern's
mutual constraints — but does it the pre-path-index way:

* per-node candidate streams come from the *tag index* (every element with
  the tag, regardless of its path), so the streams are much longer than
  the path-index lists;
* the document hierarchy is reconstructed with stack-based *structural
  joins* between parent and child streams (one semijoin per QPT edge, in
  both directions: descendant constraints bottom-up, ancestor constraints
  top-down);
* predicate operands and join values are fetched from the *base data*
  (document storage), the second cost the paper calls out.

The output is the record set whose columns the streaming PDT sweep
writes directly, finished by :func:`repro.baselines.records.from_records`
into the same form: a tree whose content nodes carry slots, plus one tf
array per keyword indexed by slot.  So the rest of the pipeline (tree, tf
layout, evaluator, scorer, materializer) is shared — the comparison
isolates exactly the two architectural differences the paper credits for
its speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.outcome import PhaseTimings, SearchOutcome, SearchResult, View
from repro.baselines.records import PDTRecord, from_records
from repro.core.pdt import PDTResult
from repro.core.qpt import QPT, generate_qpts
from repro.core.rewrite import make_pdt_resolver
from repro.core.scoring import score_results, select_top_k
from repro.dewey import DeweyID, pack
from repro.storage.database import XMLDatabase
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.tokenizer import normalize_keyword
from repro.xquery.evaluator import EvalContext, Evaluator
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query

Dewey = tuple[int, ...]


def structural_join(
    ancestors: Sequence[Dewey],
    descendants: Sequence[Dewey],
    axis: str,
) -> tuple[set[Dewey], set[Dewey]]:
    """Stack-based structural (semi)join between two sorted Dewey lists.

    Returns ``(matched_ancestors, matched_descendants)``: the ancestors
    with at least one qualifying descendant and the descendants with at
    least one qualifying ancestor, under axis ``/`` (parent-child) or
    ``//`` (ancestor-descendant).  Single merge pass, O((|A|+|D|) * depth).
    """
    matched_anc: set[Dewey] = set()
    matched_desc: set[Dewey] = set()
    stack: list[Dewey] = []  # open ancestors (each a prefix of the next)
    ai = di = 0
    while di < len(descendants):
        descendant = descendants[di]
        # Open every ancestor that starts at or before this descendant.
        # Ancestors equal to the descendant id are *not* its ancestors.
        while ai < len(ancestors) and ancestors[ai] <= descendant:
            candidate = ancestors[ai]
            while stack and candidate[: len(stack[-1])] != stack[-1]:
                stack.pop()
            stack.append(candidate)
            ai += 1
        # Drop open ancestors that cannot contain this descendant.
        while stack and descendant[: len(stack[-1])] != stack[-1]:
            stack.pop()
        for open_ancestor in stack:
            if open_ancestor == descendant:
                continue
            if axis == "/" and len(open_ancestor) != len(descendant) - 1:
                continue
            matched_anc.add(open_ancestor)
            matched_desc.add(descendant)
        di += 1
    return matched_anc, matched_desc


@dataclass
class GTPStatistics:
    """Work counters for the GTP run (reported by benchmarks)."""

    tag_stream_entries: int = 0
    structural_joins: int = 0
    base_value_accesses: int = 0


class GTPEngine:
    """Keyword search over views via GTP + TermJoin (comparison system)."""

    def __init__(self, database: XMLDatabase):
        self.database = database
        self.last_statistics: Optional[GTPStatistics] = None

    def define_view(self, name: str, text: str) -> View:
        program = parse_query(text)
        expr = inline_functions(program)
        return View(name=name, text=text, expr=expr, qpts=generate_qpts(expr))

    # -- pattern matching via structural joins -------------------------------

    def build_pruned_document(
        self, qpt: QPT, keywords: tuple[str, ...], stats: GTPStatistics
    ) -> PDTResult:
        """Compute the QPT's PDT-equivalent with structural joins."""
        indexed = self.database.get(qpt.doc_name)
        tag_index = indexed.tag_index
        store = indexed.store
        inverted = indexed.inverted_index

        # Candidate streams per QPT node from the tag index, with
        # predicates checked against base-data values (TermJoin has no
        # (path, value) index to push predicates into).
        candidates: dict[int, list[Dewey]] = {}
        values: dict[int, dict[Dewey, Optional[str]]] = {}
        for qnode in qpt.nodes:
            stream = tag_index.lookup(qnode.tag)
            stats.tag_stream_entries += len(stream)
            if qnode.predicates:
                kept: list[Dewey] = []
                node_values: dict[Dewey, Optional[str]] = {}
                for dewey in stream:
                    record = store.record(DeweyID(dewey))
                    stats.base_value_accesses += 1
                    if all(p.matches(record.value) for p in qnode.predicates):
                        kept.append(dewey)
                        node_values[dewey] = record.value
                candidates[qnode.index] = kept
                values[qnode.index] = node_values
            else:
                candidates[qnode.index] = list(stream)

        # Descendant constraints, bottom-up (CE of Definition 1): one
        # structural semijoin per mandatory edge.
        for qnode in reversed(qpt.nodes):
            pool = candidates[qnode.index]
            for edge in qnode.mandatory_child_edges():
                child_pool = candidates[edge.child.index]
                matched_anc, _ = structural_join(pool, child_pool, edge.axis)
                stats.structural_joins += 1
                pool = [dewey for dewey in pool if dewey in matched_anc]
            candidates[qnode.index] = pool

        # Ancestor constraints, top-down (PE of Definition 2).
        selected: dict[int, list[Dewey]] = {}
        for qnode in qpt.nodes:  # pre-order
            edge = qnode.parent_edge
            assert edge is not None
            pool = candidates[qnode.index]
            if edge.parent is qpt.root:
                if edge.axis == "/":
                    pool = [dewey for dewey in pool if len(dewey) == 1]
                selected[qnode.index] = pool
                continue
            parent_pool = selected[edge.parent.index]
            _, matched_desc = structural_join(parent_pool, pool, edge.axis)
            stats.structural_joins += 1
            selected[qnode.index] = [d for d in pool if d in matched_desc]

        # Assemble the records (keyed by packed Dewey byte keys, the form
        # the tree builder nests by); join values and byte lengths come
        # from the base data (the GTP cost the paper highlights).
        records: dict[bytes, PDTRecord] = {}
        for qnode in qpt.nodes:
            for dewey in selected[qnode.index]:
                key = pack(dewey)
                record = records.get(key)
                if record is None:
                    base = store.record(DeweyID(dewey))
                    stats.base_value_accesses += 1
                    record = PDTRecord(
                        key=key,
                        tag=qnode.tag,
                        value=base.value,
                        byte_length=base.byte_length,
                    )
                    records[key] = record
                if qnode.v_ann or qnode.predicates:
                    record.wants_value = True
                if qnode.c_ann:
                    record.wants_content = True

        # TermJoin: compute per-keyword tf for content nodes by a
        # structural merge join between the content-node stream and each
        # keyword's full posting list (TermJoin has no subtree prefix-sum
        # index; the Efficient pipeline's range-sum lookup is exactly the
        # optimization the paper credits to its inverted-list usage).
        # Both sides run on packed byte keys — no per-posting decode.
        # Sorted content keys are slot order.
        content_nodes = sorted(
            key for key, record in records.items() if record.wants_content
        )
        tf_arrays: dict[str, Optional[list[int]]] = {}
        for keyword in keywords:
            posting_list = inverted.lookup(keyword)
            stats.tag_stream_entries += len(posting_list)
            totals = _termjoin_subtree_tf(
                content_nodes, posting_list.items_packed()
            )
            stats.structural_joins += 1
            tf_arrays[keyword] = (
                [totals.get(key, 0) for key in content_nodes]
                if len(posting_list)
                else None
            )

        skeleton = from_records(
            qpt.doc_name, records, stats.tag_stream_entries
        )
        return PDTResult(
            skeleton=skeleton, keywords=keywords, tf_arrays=tf_arrays
        )

    # -- search -------------------------------------------------------------------

    def search(
        self,
        view: Union[View, str],
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
    ) -> list[SearchResult]:
        return self.search_detailed(view, keywords, top_k, conjunctive).results

    def search_detailed(
        self,
        view: View,
        keywords: Sequence[str],
        top_k: Optional[int] = 10,
        conjunctive: bool = True,
    ) -> SearchOutcome:
        timings = PhaseTimings()
        stats = GTPStatistics()
        normalized = tuple(normalize_keyword(keyword) for keyword in keywords)

        start = time.perf_counter()
        pruned_docs = {
            doc_name: self.build_pruned_document(qpt, normalized, stats)
            for doc_name, qpt in view.qpts.items()
        }
        timings.pdt = time.perf_counter() - start

        start = time.perf_counter()
        evaluator = Evaluator(EvalContext(resolver=make_pdt_resolver(pruned_docs)))
        items = evaluator.evaluate(view.expr)
        view_results = [item for item in items if isinstance(item, XMLNode)]
        timings.evaluator = time.perf_counter() - start

        start = time.perf_counter()
        outcome = score_results(
            view_results,
            normalized,
            conjunctive=conjunctive,
            tf_source=pruned_docs,
        )
        winners = select_top_k(outcome, top_k)
        results = [
            SearchResult(
                rank=rank, score=scored.score, scored=scored, _database=self.database
            )
            for rank, scored in enumerate(winners, start=1)
        ]
        for result in results:
            result.materialize()
        timings.post_processing = time.perf_counter() - start

        self.last_statistics = stats
        return SearchOutcome(
            results=results,
            view_size=outcome.view_size,
            matching_count=len(outcome.results),
            idf=outcome.idf,
            timings=timings,
        )

def _termjoin_subtree_tf(
    content_nodes: Sequence[bytes], postings
) -> dict[bytes, int]:
    """Merge-join content nodes with (packed key, tf) pairs, summing
    contained tf.  Packed-key byte prefixing is ancestry, so the stack
    discipline is identical to the tuple form."""
    totals: dict[bytes, int] = {}
    stack: list[bytes] = []
    ni = 0
    for key, tf in postings:
        while ni < len(content_nodes) and content_nodes[ni] <= key:
            candidate = content_nodes[ni]
            while stack and not candidate.startswith(stack[-1]):
                stack.pop()
            stack.append(candidate)
            ni += 1
        while stack and not key.startswith(stack[-1]):
            stack.pop()
        for ancestor in stack:
            totals[ancestor] = totals.get(ancestor, 0) + tf
    return totals
