"""The experiments of Section 5, one function per table/figure.

Every function returns an :class:`ExperimentTable` with the same series the
paper plots.  Databases are cached per configuration so sweeps that share a
dataset (keywords, joins, nesting, top-k) reuse one build.

Scale note: the paper's x-axis is 100..500MB on a C++ engine; ours is a
scale factor on the synthetic INEX generator running on a pure-Python
substrate.  The claims under test are *shape* claims — who wins, by
roughly what factor, what grows linearly — as recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.baselines.gtp import GTPEngine
from repro.baselines.naive import BaselineEngine
from repro.baselines.projection import project_serialized
from repro.bench.harness import ExperimentTable, timed
from repro.core.engine import KeywordSearchEngine
from repro.core.outcome import SearchOutcome
from repro.core.pdt import build_skeleton
from repro.storage.database import XMLDatabase
from repro.workloads.inex import INEXConfig, generate_inex_database
from repro.workloads.params import ExperimentParams, PARAMETER_TABLE
from repro.workloads.views import view_for_params

_DB_CACHE: dict[tuple, XMLDatabase] = {}


def build_database(params: ExperimentParams) -> XMLDatabase:
    """The (cached) synthetic INEX database for a configuration."""
    key = (
        params.data_scale,
        params.element_size,
        round(params.join_selectivity, 3),
        params.seed,
    )
    database = _DB_CACHE.get(key)
    if database is None:
        database = generate_inex_database(
            INEXConfig(
                scale=params.data_scale,
                element_size=params.element_size,
                join_selectivity=params.join_selectivity,
                seed=params.seed,
            )
        )
        _DB_CACHE[key] = database
    return database


def clear_database_cache() -> None:
    _DB_CACHE.clear()


def _efficient_time(
    params: ExperimentParams, repeats: int, materialize: bool = False
) -> tuple[float, SearchOutcome]:
    database = build_database(params)
    engine = KeywordSearchEngine(database, enable_cache=False)
    view = engine.define_view("bench", view_for_params(params))
    keywords = params.keywords()
    return timed(
        lambda: engine.search_detailed(
            view, keywords, top_k=params.top_k, materialize=materialize
        ),
        repeats,
    )


def _breakdown_row(table: ExperimentTable, label, outcome: SearchOutcome,
                   total: float) -> None:
    timings = outcome.timings
    table.add_row(
        label,
        pdt=timings.pdt,
        evaluator=timings.evaluator,
        post_processing=timings.post_processing,
        total=total,
    )


# -- Table 1 -------------------------------------------------------------------


def run_params_table() -> ExperimentTable:
    """Table 1: the experimental parameter grid (values and defaults)."""
    defaults = ExperimentParams()
    table = ExperimentTable(
        experiment_id="T1",
        title="Experimental parameters",
        parameter="parameter",
        columns=["values", "default"],
    )
    for name, values in PARAMETER_TABLE.items():
        table.add_row(
            name,
            values=", ".join(str(v) for v in values),
            default=str(getattr(defaults, name)),
        )
    return table


# -- Figure 13: varying size of data, all four systems ---------------------------


def run_fig13_data_size(
    scales: Optional[Sequence[int]] = None, repeats: int = 1
) -> ExperimentTable:
    """Figure 13: run time of Baseline/GTP/Proj/Efficient vs data size."""
    scales = list(scales or PARAMETER_TABLE["data_scale"])
    table = ExperimentTable(
        experiment_id="F13",
        title="Varying size of data (seconds)",
        parameter="scale",
        columns=["baseline", "gtp", "proj", "efficient"],
    )
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        database = build_database(params)
        view_text = view_for_params(params)
        keywords = params.keywords()

        efficient = KeywordSearchEngine(database, enable_cache=False)
        eview = efficient.define_view("bench", view_text)
        # materialize=True: Baseline and GTP expand every winner inside
        # their timed region, so the cross-system comparison must charge
        # Efficient for top-k materialization too (as the paper does).
        efficient_time, _ = timed(
            lambda: efficient.search(
                eview, keywords, top_k=params.top_k, materialize=True
            ),
            repeats,
        )

        baseline = BaselineEngine(database)
        bview = baseline.define_view("bench", view_text)
        baseline_time, _ = timed(
            lambda: baseline.search(bview, keywords, top_k=params.top_k), repeats
        )

        gtp = GTPEngine(database)
        gview = gtp.define_view("bench", view_text)
        gtp_time, _ = timed(
            lambda: gtp.search(gview, keywords, top_k=params.top_k), repeats
        )

        # Proj characterizes only the cost of generating the projected
        # documents (paper Section 5.2.1): a full parse-and-project scan
        # of each serialized document.
        serialized = {doc: database.get(doc).serialized for doc in eview.qpts}
        proj_time, _ = timed(
            lambda: [
                project_serialized(qpt, serialized[doc])
                for doc, qpt in eview.qpts.items()
            ],
            repeats,
        )

        table.add_row(
            scale,
            baseline=baseline_time,
            gtp=gtp_time,
            proj=proj_time,
            efficient=efficient_time,
        )
    table.note(
        "paper shape: Efficient is ~an order of magnitude faster than the "
        "alternatives and grows roughly linearly with data size; here it is "
        "fastest at every scale, but by an order of magnitude only over "
        "Baseline: GTP and Proj are at most a few times slower"
    )
    return table


def run_fig13b_module_comparison(
    scales: Optional[Sequence[int]] = None, repeats: int = 1
) -> ExperimentTable:
    """F13b: module-to-module comparison underlying Figure 13's claims.

    The paper's GTP series times only its structural joins + base accesses,
    and its Proj series only projected-document generation; the directly
    comparable module on our side is PDT generation.  This table isolates
    that comparison (Section 4's ">10x faster than PROJ" claim).
    """
    scales = list(scales or PARAMETER_TABLE["data_scale"])
    table = ExperimentTable(
        experiment_id="F13b",
        title="Pruned-document generation cost per strategy (seconds)",
        parameter="scale",
        columns=["gtp_joins", "proj_generation", "pdt_generation"],
    )
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        database = build_database(params)
        view_text = view_for_params(params)
        keywords = params.keywords()

        efficient = KeywordSearchEngine(database, enable_cache=False)
        eview = efficient.define_view("bench", view_text)
        _, outcome = timed(
            lambda: efficient.search_detailed(
                eview, keywords, top_k=params.top_k
            ),
            repeats,
        )
        pdt_time = outcome.timings.pdt

        gtp = GTPEngine(database)
        gview = gtp.define_view("bench", view_text)
        _, outcome = timed(
            lambda: gtp.search_detailed(gview, keywords, top_k=params.top_k),
            repeats,
        )
        gtp_join_time = outcome.timings.pdt

        serialized = {doc: database.get(doc).serialized for doc in eview.qpts}
        proj_time, _ = timed(
            lambda: [
                project_serialized(qpt, serialized[doc])
                for doc, qpt in eview.qpts.items()
            ],
            repeats,
        )
        table.add_row(
            scale,
            gtp_joins=gtp_join_time,
            proj_generation=proj_time,
            pdt_generation=pdt_time,
        )
    table.note(
        "paper shape: index-only PDT generation beats structural joins and "
        "full-scan projection by roughly an order of magnitude"
    )
    return table


# -- Figure 14: module cost breakdown ---------------------------------------------


def run_fig14_module_cost(
    scales: Optional[Sequence[int]] = None, repeats: int = 1
) -> ExperimentTable:
    """Figure 14: PDT / Evaluator / Post-processing overhead vs data size."""
    scales = list(scales or PARAMETER_TABLE["data_scale"])
    table = ExperimentTable(
        experiment_id="F14",
        title="Cost of modules (seconds)",
        parameter="scale",
        columns=["pdt", "evaluator", "post_processing", "total"],
    )
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        elapsed, outcome = _efficient_time(params, repeats)
        _breakdown_row(table, scale, outcome, elapsed)
    table.note(
        "paper shape: PDT cost scales gracefully; the evaluator dominates as "
        "data grows; post-processing is negligible; here PDT generation, "
        "not the evaluator, is the larger phase at every scale"
    )
    return table


# -- Figures 15-20: one-parameter sweeps -----------------------------------------


def _sweep(
    experiment_id: str,
    title: str,
    parameter: str,
    values: Iterable,
    repeats: int = 1,
    materialize: bool = False,
) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=experiment_id,
        title=title,
        parameter=parameter,
        columns=["pdt", "evaluator", "post_processing", "total"],
    )
    for value in values:
        params = ExperimentParams().with_(**{parameter: value})
        elapsed, outcome = _efficient_time(params, repeats, materialize)
        _breakdown_row(table, value, outcome, elapsed)
    return table


def run_fig15_num_keywords(repeats: int = 1) -> ExperimentTable:
    """Figure 15: varying the number of keywords (1-5)."""
    table = _sweep(
        "F15",
        "Varying # of keywords (seconds)",
        "num_keywords",
        PARAMETER_TABLE["num_keywords"],
        repeats,
    )
    table.note("paper shape: mild growth — more inverted lists to read")
    return table


def run_fig16_keyword_selectivity(repeats: int = 1) -> ExperimentTable:
    """Figure 16: varying keyword selectivity (low/medium/high)."""
    table = _sweep(
        "F16",
        "Varying selectivity of keywords (seconds)",
        "keyword_selectivity",
        PARAMETER_TABLE["keyword_selectivity"],
        repeats,
    )
    table.note(
        "paper shape: run time increases slightly as selectivity decreases "
        "(longer inverted lists; 'low' = frequent terms)"
    )
    return table


def run_fig17_num_joins(repeats: int = 1) -> ExperimentTable:
    """Figure 17: varying the number of value joins (0-4)."""
    table = _sweep(
        "F17",
        "Varying # of joins (seconds)",
        "num_joins",
        PARAMETER_TABLE["num_joins"],
        repeats,
    )
    table.note(
        "paper shape: grows with joins; the largest step is 0 -> 1 (a second "
        "PDT plus a value join instead of a selection); here every join adds "
        "a step of similar size, and 0 -> 1 is not the largest"
    )
    return table


def run_fig18_join_selectivity(repeats: int = 1) -> ExperimentTable:
    """Figure 18: varying join selectivity (1X .. 0.1X)."""
    table = _sweep(
        "F18",
        "Varying the selectivity of joins (seconds)",
        "join_selectivity",
        PARAMETER_TABLE["join_selectivity"],
        repeats,
    )
    table.note(
        "paper shape: mild growth as the selectivity decreases; here the "
        "total does not grow: fewer join partners leave fewer view results, "
        "so the evaluator phase shrinks"
    )
    return table


def run_fig19_nesting(repeats: int = 1) -> ExperimentTable:
    """Figure 19: varying the level of nestings (1-4)."""
    table = _sweep(
        "F19",
        "Varying the level of nestings (seconds)",
        "nesting_level",
        PARAMETER_TABLE["nesting_level"],
        repeats,
    )
    table.note(
        "paper shape: roughly linear in nesting level, evaluator share grows "
        "fastest; here the one step is 1 -> 2 and the total is flat after "
        "level 2, where deeper nesting leaves fewer view results"
    )
    return table


def run_fig20_topk(repeats: int = 1) -> ExperimentTable:
    """Figure 20: varying the number of results (K in top-K)."""
    table = _sweep(
        "F20",
        "Varying the number of results (seconds)",
        "top_k",
        PARAMETER_TABLE["top_k"],
        repeats,
        # The paper's K sweep times fetching the winners: only they
        # touch document storage, so K is what materialization costs.
        materialize=True,
    )
    table.note(
        "paper shape: flat — materializing extra winners is nearly free; "
        "here each winner's materialization is a visible share of "
        "post-processing, and the series is flat past K = 10 only because "
        "10 results match the default query"
    )
    return table


# -- Section 5.2.3 'other results' -------------------------------------------------


def run_x1_element_size(repeats: int = 1) -> ExperimentTable:
    """X1: varying the average size of view elements (1X-5X)."""
    table = _sweep(
        "X1",
        "Varying avg. size of view elements (seconds)",
        "element_size",
        PARAMETER_TABLE["element_size"],
        repeats,
    )
    table.note(
        "paper shape: efficient and scalable as element size grows (content "
        "is pruned, so only index lists grow)"
    )
    return table


def run_x2_pdt_size(
    scales: Optional[Sequence[int]] = None,
) -> ExperimentTable:
    """X2: PDT size vs data size (pruning effectiveness; paper: ~2MB of 500MB)."""
    scales = list(scales or PARAMETER_TABLE["data_scale"])
    table = ExperimentTable(
        experiment_id="X2",
        title="PDT size vs data size (element counts)",
        parameter="scale",
        columns=["data_elements", "pdt_elements", "ratio_percent"],
    )
    for scale in scales:
        params = ExperimentParams(data_scale=scale)
        database = build_database(params)
        engine = KeywordSearchEngine(database, enable_cache=False)
        view = engine.define_view("bench", view_for_params(params))
        data_elements = sum(
            len(database.get(doc).store) for doc in view.qpts
        )
        # A PDT's node count is its skeleton's: keywords add no node.
        pdt_elements = sum(
            build_skeleton(qpt, database.get(doc).path_index).node_count
            for doc, qpt in view.qpts.items()
        )
        table.add_row(
            scale,
            data_elements=data_elements,
            pdt_elements=pdt_elements,
            ratio_percent=100.0 * pdt_elements / data_elements,
        )
    table.note("paper shape: PDTs are a small fraction of the base data")
    return table


ALL_EXPERIMENTS = {
    "T1": run_params_table,
    "F13": run_fig13_data_size,
    "F13b": run_fig13b_module_comparison,
    "F14": run_fig14_module_cost,
    "F15": run_fig15_num_keywords,
    "F16": run_fig16_keyword_selectivity,
    "F17": run_fig17_num_joins,
    "F18": run_fig18_join_selectivity,
    "F19": run_fig19_nesting,
    "F20": run_fig20_topk,
    "X1": run_x1_element_size,
    "X2": run_x2_pdt_size,
}
