"""Benchmark harness: one experiment per table/figure of the evaluation.

``python -m repro.bench`` runs every experiment and prints the paper-style
series (``--markdown`` writes the tables EXPERIMENTS.md records).
"""

from repro.bench.harness import ExperimentTable, Row, timed
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    build_database,
    run_fig13_data_size,
    run_fig13b_module_comparison,
    run_fig14_module_cost,
    run_fig15_num_keywords,
    run_fig16_keyword_selectivity,
    run_fig17_num_joins,
    run_fig18_join_selectivity,
    run_fig19_nesting,
    run_fig20_topk,
    run_x1_element_size,
    run_x2_pdt_size,
)

__all__ = [
    "ExperimentTable",
    "Row",
    "timed",
    "ALL_EXPERIMENTS",
    "build_database",
    "run_fig13_data_size",
    "run_fig13b_module_comparison",
    "run_fig14_module_cost",
    "run_fig15_num_keywords",
    "run_fig16_keyword_selectivity",
    "run_fig17_num_joins",
    "run_fig18_join_selectivity",
    "run_fig19_nesting",
    "run_fig20_topk",
    "run_x1_element_size",
    "run_x2_pdt_size",
]
