"""Benchmark harness tests: tables render, experiments produce sane series."""

import time

import pytest

from repro.baselines.gtp import GTPEngine
from repro.bench.experiments import (
    build_database,
    clear_database_cache,
    run_fig13_data_size,
    run_fig14_module_cost,
    run_params_table,
    run_x2_pdt_size,
)
from repro.bench.harness import ExperimentTable, timed
from repro.core.engine import KeywordSearchEngine
from repro.workloads.params import PARAMETER_TABLE, ExperimentParams
from repro.workloads.views import view_for_params


class TestHarness:
    def _table(self):
        table = ExperimentTable(
            experiment_id="T", title="demo", parameter="x", columns=["a", "b"]
        )
        table.add_row(1, a=0.5, b=2)
        table.add_row(2, a=1.5, b="text")
        table.note("a note")
        return table

    def test_text_rendering(self):
        text = self._table().to_text()
        assert "== T: demo ==" in text
        assert "0.5000" in text
        assert "note: a note" in text

    def test_markdown_rendering(self):
        md = self._table().to_markdown()
        assert md.startswith("### T: demo")
        assert "| 1 | 0.5000 | 2 |" in md

    def test_column_accessor(self):
        assert self._table().column("a") == [0.5, 1.5]
        assert self._table().labels() == ["1", "2"]

    def test_timed_returns_minimum(self):
        calls = []

        def work():
            calls.append(1)
            return "out"

        elapsed, result = timed(work, repeats=3)
        assert result == "out"
        assert len(calls) == 3
        assert elapsed >= 0

    def test_timed_returns_the_fastest_runs_result(self):
        delays = iter([0.02, 0.0, 0.02])

        def work():
            delay = next(delays)
            time.sleep(delay)
            return delay

        elapsed, result = timed(work, repeats=3)
        assert result == 0.0
        assert elapsed < 0.02


class TestExperiments:
    """Tiny-scale smoke runs of the experiment functions."""

    def test_params_table_lists_table1(self):
        table = run_params_table()
        assert table.labels()[0] == "data_scale"
        assert len(table.rows) == 8

    def test_build_database_cached(self):
        clear_database_cache()
        params = ExperimentParams(data_scale=1)
        assert build_database(params) is build_database(params)

    def test_fig13_shapes(self):
        table = run_fig13_data_size(scales=[1], repeats=1)
        assert table.columns == ["baseline", "gtp", "proj", "efficient"]
        row = table.rows[0].values
        assert all(row[c] > 0 for c in table.columns)
        # The headline claim, at any scale: Efficient beats Baseline.
        assert row["baseline"] > row["efficient"]

    def test_fig14_breakdown_sums_to_total(self):
        # The phases and the total come from the same run, so only the
        # QPT phase and the call itself lie between them: 1.4% in the
        # median of 200 single runs at scale 1, 2.9% at worst.
        table = run_fig14_module_cost(scales=[1], repeats=3)
        row = table.rows[0].values
        parts = row["pdt"] + row["evaluator"] + row["post_processing"]
        assert parts <= row["total"]
        assert parts == pytest.approx(row["total"], rel=0.05)

    def test_x2_pruning_effective(self):
        table = run_x2_pdt_size(scales=[1])
        row = table.rows[0].values
        assert row["pdt_elements"] < row["data_elements"]
        assert row["ratio_percent"] < 25.0


class TestPaperCountClaims:
    """Section 5's structural claims, held as counts at the default seed.

    Counts repeat exactly from run to run, so they are asserted; the
    clocks beside them are recorded in EXPERIMENTS.md, never asserted.
    """

    @staticmethod
    def _efficient(params):
        database = build_database(params)
        engine = KeywordSearchEngine(database, enable_cache=False)
        view = engine.define_view("bench", view_for_params(params))
        database.reset_access_counters()
        return engine, view

    @staticmethod
    def _total(engine, view, counter):
        indexed = [engine.database.get(name) for name in view.document_names]
        return sum(counter(doc) for doc in indexed)

    def _store_reads(self, engine, view):
        return self._total(engine, view, lambda d: d.store.access_count)

    def test_index_probes_follow_the_query_not_the_data(self):
        # PrepareLists: one path probe per probed QPT node and one
        # inverted probe per keyword per document, at every F13 scale.
        probes = {}
        for scale in PARAMETER_TABLE["data_scale"]:
            params = ExperimentParams(data_scale=scale)
            engine, view = self._efficient(params)
            engine.search_detailed(view, params.keywords(), top_k=params.top_k)
            probes[scale] = (
                self._total(engine, view, lambda d: d.path_index.probe_count),
                self._total(
                    engine, view, lambda d: d.inverted_index.probe_count
                ),
            )
        assert set(probes.values()) == {(7, 4)}, probes

    def test_f20_store_is_read_only_to_materialize_winners(self):
        for top_k in PARAMETER_TABLE["top_k"]:
            params = ExperimentParams().with_(top_k=top_k)
            engine, view = self._efficient(params)
            outcome = engine.search_detailed(view, params.keywords(), top_k)
            assert self._store_reads(engine, view) == 0, top_k
            assert not any(r.is_materialized for r in outcome.results)
            outcome = engine.search_detailed(
                view, params.keywords(), top_k, materialize=True
            )
            assert self._store_reads(engine, view) > 0, top_k
            assert len(outcome.results) == min(top_k, outcome.matching_count)
            assert all(r.is_materialized for r in outcome.results)

    def test_x2_pdts_stay_below_a_quarter_of_the_data_at_every_scale(self):
        table = run_x2_pdt_size()
        assert table.labels() == [str(s) for s in PARAMETER_TABLE["data_scale"]]
        assert all(ratio < 25.0 for ratio in table.column("ratio_percent"))
        # Definitions 1-3 fix the PDT's node set, so its size is a count
        # any correct pruning reproduces exactly.
        assert table.column("pdt_elements") == [158, 188, 296, 338, 464]

    def test_gtp_work_grows_with_the_data_efficient_reads_no_store(self):
        tag_entries, base_accesses = [], []
        for scale in PARAMETER_TABLE["data_scale"]:
            params = ExperimentParams(data_scale=scale)
            engine, view = self._efficient(params)
            engine.search_detailed(view, params.keywords(), top_k=params.top_k)
            assert self._store_reads(engine, view) == 0
            gtp = GTPEngine(engine.database)
            gview = gtp.define_view("bench", view_for_params(params))
            gtp.search_detailed(gview, params.keywords(), top_k=params.top_k)
            stats = gtp.last_statistics
            assert stats.structural_joins > 0
            tag_entries.append(stats.tag_stream_entries)
            base_accesses.append(stats.base_value_accesses)
        assert tag_entries == sorted(set(tag_entries)), tag_entries
        assert base_accesses == sorted(set(base_accesses)), base_accesses
        assert (tag_entries[0], tag_entries[-1]) == (1169, 5561)
        assert (base_accesses[0], base_accesses[-1]) == (446, 1904)
