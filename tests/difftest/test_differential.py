"""Differential tests: randomized scenarios, every cache configuration.

The seed matrix defaults to three fixed seeds and is overridable with
``DIFFTEST_SEEDS="1,2,3"`` (CI pins the same three so runs are
reproducible).  When ``DIFFTEST_STATS_DIR`` is set, each seed writes
its cache-tier hit-rate report there as JSON — CI uploads the
directory as a build artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from difftest.generators import VIEW_SHAPES
from difftest.harness import run_differential_case

# The historical four seeds plus 505/606, added when the generator grew
# multi-join view shapes and disjunctive-heavy keyword mixes so the
# matrix sweeps more of the enlarged space.  (Shape coverage does not
# depend on seed luck: the sweep below runs every template explicitly.)
DEFAULT_SEEDS = (101, 202, 303, 404, 505, 606)


def _seed_matrix() -> tuple[int, ...]:
    raw = os.environ.get("DIFFTEST_SEEDS", "")
    if not raw.strip():
        return DEFAULT_SEEDS
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _maybe_dump(report) -> None:
    stats_dir = os.environ.get("DIFFTEST_STATS_DIR", "")
    if not stats_dir:
        return
    path = Path(stats_dir)
    path.mkdir(parents=True, exist_ok=True)
    out = path / f"difftest-seed-{report.seed}.json"
    out.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True))


@pytest.mark.parametrize("seed", _seed_matrix())
def test_differential_ranked_output_matches_naive_baseline(seed):
    report = run_differential_case(seed)
    assert report.comparisons > 0
    # Zero path-index probes across every skeleton-warm query.
    assert report.skeleton_path_probes == 0
    # ...but the inverted index was consulted for the fresh keywords.
    assert report.skeleton_inv_probes > 0
    # The skeleton tier actually served those queries.
    skeleton_stats = report.cache_stats["skeleton_warm"]["skeleton"]
    assert skeleton_stats["hits"] > 0
    _maybe_dump(report)


@pytest.mark.parametrize("shape", VIEW_SHAPES)
def test_differential_every_view_shape(shape):
    """Deterministic per-shape sweep: every template — including the
    three-document star/chain joins — matches the naive baseline in
    every cache configuration, independent of which shapes the seed
    matrix happens to draw."""
    report = run_differential_case(11, shape=shape)
    assert report.comparisons > 0
    assert report.skeleton_path_probes == 0


def test_generated_cases_are_deterministic():
    from repro.xmlmodel.serializer import serialize

    from difftest.generators import generate_case

    first, second = generate_case(77), generate_case(77)
    assert first.view_text == second.view_text
    assert first.keyword_sets == second.keyword_sets
    assert first.priming_keywords == second.priming_keywords
    for name in first.database.document_names():
        assert serialize(first.database.get(name).root) == serialize(
            second.database.get(name).root
        )
