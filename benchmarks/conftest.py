"""Shared benchmark fixtures: databases, engines and views per scale.

Databases are session-scoped and cached by configuration so the
pytest-benchmark run measures query work, not data generation.  Scales stay
small (1-2 units) to keep ``pytest benchmarks/ --benchmark-only`` quick;
the full paper-style sweeps live in ``python -m repro.bench``.
"""

from __future__ import annotations

import pytest

from repro.baselines.gtp import GTPEngine
from repro.baselines.naive import BaselineEngine
from repro.bench.experiments import build_database
from repro.core.engine import KeywordSearchEngine
from repro.workloads.params import ExperimentParams
from repro.workloads.views import view_for_params

BENCH_SCALE = 2  # data scale used by single-point benchmarks


@pytest.fixture(scope="session")
def default_params() -> ExperimentParams:
    return ExperimentParams(data_scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def database(default_params):
    return build_database(default_params)


@pytest.fixture(scope="session")
def efficient(database, default_params):
    # Query cache off: the paper-figure benchmarks measure the per-query
    # pipeline cost, not warm-cache serving (that's benchmarks/layered/).
    engine = KeywordSearchEngine(database, enable_cache=False)
    engine.define_view("bench", view_for_params(default_params))
    return engine


@pytest.fixture(scope="session")
def baseline(database, default_params):
    engine = BaselineEngine(database)
    engine._bench_view = engine.define_view(
        "bench", view_for_params(default_params)
    )
    return engine


@pytest.fixture(scope="session")
def gtp(database, default_params):
    engine = GTPEngine(database)
    engine._bench_view = engine.define_view(
        "bench", view_for_params(default_params)
    )
    return engine


def make_engine_and_view(params: ExperimentParams, enable_cache: bool = False):
    """Build an Efficient engine + view for a parameter point (cached db).

    The query cache defaults to *off* so repeated benchmark iterations
    keep measuring the full pipeline; pass ``enable_cache=True`` to
    benchmark warm-cache serving instead.
    """
    database = build_database(params)
    engine = KeywordSearchEngine(database, enable_cache=enable_cache)
    view = engine.define_view("bench", view_for_params(params))
    return engine, view
