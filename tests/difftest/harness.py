"""The differential harness: every cache configuration vs the baseline.

``run_differential_case(seed)`` builds the generated scenario, then for
each keyword set compares four Efficient configurations against the
naive materialize-then-search baseline (the repo's ground truth):

* ``nocache``       — ``enable_cache=False``, the original pipeline;
* ``cache_cold``    — default cache, first time it sees the query;
* ``cache_warm``    — same engine, same query again (PDT-tier hit);
* ``skeleton_warm`` — an engine primed with a *disjoint* keyword set
  and with the PDT tier disabled, so every compared query runs the
  skeleton-annotation path; the harness additionally asserts the run
  made **zero path-index probes**.

Comparison is exact where the pipeline is exact (ranks, tie-break
order, term frequencies, byte lengths, materialized XML) and
``math.isclose`` for floating-point scores/idf.  The returned
``CaseReport`` carries the shard/skeleton hit statistics so CI can
archive them as a build artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.baselines.naive import BaselineEngine
from repro.core.cache import QueryCache
from repro.core.engine import KeywordSearchEngine

from difftest.generators import GeneratedCase, generate_case


class DifferentialMismatch(AssertionError):
    """Raised when a configuration diverges from the naive baseline."""


@dataclass
class CaseReport:
    """What one seed's run produced (archived by CI)."""

    seed: int
    description: str
    comparisons: int = 0
    cache_stats: dict[str, Any] = field(default_factory=dict)
    skeleton_path_probes: int = 0
    skeleton_inv_probes: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "description": self.description,
            "comparisons": self.comparisons,
            "skeleton_path_probes": self.skeleton_path_probes,
            "skeleton_inv_probes": self.skeleton_inv_probes,
            "cache_stats": self.cache_stats,
        }


def _check(condition: bool, context: str, detail: str) -> None:
    if not condition:
        raise DifferentialMismatch(f"[{context}] {detail}")


def assert_outcomes_equivalent(eout, bout, keywords, context: str) -> None:
    """Efficient outcome vs baseline outcome: Theorem 4.1, end to end."""
    _check(
        eout.view_size == bout.view_size,
        context,
        f"view_size {eout.view_size} != {bout.view_size}",
    )
    _check(
        eout.matching_count == bout.matching_count,
        context,
        f"matching_count {eout.matching_count} != {bout.matching_count}",
    )
    for keyword in eout.idf:
        _check(
            math.isclose(eout.idf[keyword], bout.idf[keyword]),
            context,
            f"idf({keyword!r}) {eout.idf[keyword]} != {bout.idf[keyword]}",
        )
    _check(
        len(eout.results) == len(bout.results),
        context,
        f"result count {len(eout.results)} != {len(bout.results)}",
    )
    for eres, bres in zip(eout.results, bout.results):
        where = f"{context} rank {bres.rank}"
        _check(eres.rank == bres.rank, where, "rank mismatch")
        _check(
            math.isclose(eres.score, bres.score, rel_tol=1e-9, abs_tol=1e-12),
            where,
            f"score {eres.score} != {bres.score}",
        )
        for keyword in keywords:
            _check(
                eres.tf(keyword) == bres.tf(keyword),
                where,
                f"tf({keyword!r}) {eres.tf(keyword)} != {bres.tf(keyword)}",
            )
        _check(
            eres.scored.statistics.byte_length
            == bres.scored.statistics.byte_length,
            where,
            "byte_length mismatch",
        )
        _check(
            eres.to_xml() == bres.to_xml(),
            where,
            "materialized XML mismatch (tie-break or content divergence)",
        )


def _path_probes(db) -> int:
    return sum(db.get(n).path_index.probe_count for n in db.document_names())


def _inv_probes(db) -> int:
    return sum(
        db.get(n).inverted_index.probe_count for n in db.document_names()
    )


def run_differential_case(
    seed: int,
    top_k: int = 10,
    conjunctive_modes=(True, False),
    shape=None,
) -> CaseReport:
    """Run one seed through every configuration; raise on any divergence.

    ``shape`` pins the generated view template (see
    ``generators.VIEW_SHAPES``) for deterministic per-shape sweeps.
    """
    case: GeneratedCase = generate_case(seed, shape=shape)
    db = case.database
    report = CaseReport(seed=seed, description=case.description)

    baseline = BaselineEngine(db)
    bview = baseline.define_view("truth", case.view_text)

    nocache = KeywordSearchEngine(db, enable_cache=False)
    nocache_view = nocache.define_view("nocache", case.view_text)

    cached = KeywordSearchEngine(db)
    cached_view = cached.define_view("cached", case.view_text)

    # The skeleton-warm engine: PDT tier off so repeated comparison
    # queries keep exercising the skeleton-annotation path, primed with
    # keywords disjoint from every compared set.  It runs on its own
    # (deterministically identical) database so its probe counters are
    # not polluted by the cold configurations above.
    skeleton_db = generate_case(seed, shape=shape).database
    skeleton = KeywordSearchEngine(
        skeleton_db, cache=QueryCache(pdt_byte_budget=0)
    )
    skeleton_view = skeleton.define_view("skeleton", case.view_text)
    skeleton.search(skeleton_view, case.priming_keywords, top_k=top_k)
    skeleton_db.reset_access_counters()

    for keywords in case.keyword_sets:
        for conjunctive in conjunctive_modes:
            context = f"seed={seed} kw={keywords} conj={conjunctive}"
            bout = baseline.search_detailed(
                bview, keywords, top_k, conjunctive
            )
            for label, engine, view in (
                ("nocache", nocache, nocache_view),
                ("cache_cold", cached, cached_view),
                ("cache_warm", cached, cached_view),
                ("skeleton_warm", skeleton, skeleton_view),
            ):
                eout = engine.search_detailed(
                    view, keywords, top_k, conjunctive
                )
                assert_outcomes_equivalent(
                    eout, bout, keywords, f"{context} [{label}]"
                )
                report.comparisons += 1
                if label == "skeleton_warm":
                    _check(
                        set(eout.cache_hits.values()) <= {"skeleton"},
                        context,
                        f"expected skeleton hits, got {eout.cache_hits}",
                    )

    # The skeleton-warm engine never touched the path index after
    # priming: its structural work was served from the skeleton tier.
    report.skeleton_path_probes = _path_probes(skeleton_db)
    report.skeleton_inv_probes = _inv_probes(skeleton_db)
    _check(
        report.skeleton_path_probes == 0,
        f"seed={seed}",
        f"skeleton-warm runs made {report.skeleton_path_probes} "
        "path-index probes (expected 0)",
    )
    report.cache_stats = {
        "cached": cached.cache.stats(),
        "skeleton_warm": skeleton.cache.stats(),
    }
    return report
