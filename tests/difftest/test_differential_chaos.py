"""Chaos differential tests: failures are deterministic and never lie.

The contract under seeded fault injection, for every response the
hardened stack produces:

* it is **bit-identical** to the no-fault run (faults that only cost
  work — storage corruption, snapshot loss — must not move a float), or
* it is a **correctly-flagged degraded outcome** whose results are a
  verifiable subset of the healthy shards' contribution (checked
  against reference engines built over exactly the surviving
  fragments), or
* it is a **typed error** (fail-closed policy, every shard gone) —

never silently wrong data, and never a hang past the deadline.  And the
whole schedule of injected faults is itself reproducible: the same
:class:`~repro.core.faults.FaultPlan` seed driven through the same call
sequences fires the byte-identical fault schedule and yields
byte-identical responses, which is what makes a chaos failure
debuggable after the fact.

Shares the corpus families and seed-matrix conventions of
``test_differential_sharded.py`` (``DIFFTEST_SEEDS`` pins the matrix in
CI).
"""

from __future__ import annotations

import time

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.faults import (
    FAULT_CORRUPT,
    FAULT_ERROR,
    FAULT_HANG,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.core.health import FleetHealth
from repro.core.placement import ShardPlan
from repro.core.sharding import (
    FAILURE_QUARANTINED,
    FAILURE_TIMEOUT,
    CorpusCoordinator,
    ShardExecutor,
)
from repro.core.snapshot import SkeletonStore
from repro.errors import ShardUnavailableError
from repro.storage.database import XMLDatabase

from difftest.generators import generate_case
from difftest.test_differential_sharded import (
    _assert_bit_identical,
    _pair_matrix,
    _seed_matrix,
)

TOP_K = 10


def _two_shard_fixture(seed_pair):
    """A combined two-fragment corpus placed one group per shard.

    Mirrors ``_combined_corpus`` from the sharded difftest but keeps the
    per-case fragment texts: the fixed placement (group ``i`` → shard
    ``i``, fragment ``i``) is what lets the degraded-mode tests build
    *healthy-only* reference engines — we know exactly which fragments
    vanish with a shard.
    """
    fragments = []
    documents = {}
    groups = []
    keyword_sets = []
    for position, seed in enumerate(seed_pair):
        case = generate_case(seed)
        text = case.view_text
        group = []
        for name in sorted(case.database.document_names()):
            renamed = f"x{position}{name}"
            text = text.replace(f"fn:doc({name})", f"fn:doc({renamed})")
            documents[renamed] = case.database.get(name).document
            group.append(renamed)
        fragments.append("(" + text + ")")
        groups.append(group)
        keyword_sets.extend(case.keyword_sets[:2])
    view_text = "(" + ",\n".join(fragments) + ")"
    assignments = {
        name: shard for shard, group in enumerate(groups) for name in group
    }
    plan = ShardPlan.from_assignments(assignments, len(groups))
    return view_text, fragments, documents, groups, keyword_sets, plan


def _coordinator(documents, plan, view_text, injector=None, **kwargs):
    executors = [
        ShardExecutor(i, fault_injector=injector)
        for i in range(plan.shard_count)
    ]
    for name in sorted(documents):
        executors[plan.shard_of(name)].load_document(name, documents[name])
    coordinator = CorpusCoordinator(executors, plan, **kwargs)
    coordinator.define_view("v", view_text)
    return coordinator


def _single_engine(documents, view_text):
    db = XMLDatabase()
    for name in sorted(documents):
        db.load_document(name, documents[name])
    engine = KeywordSearchEngine(db)
    engine.define_view("v", view_text)
    return engine


def _canonical(outcome) -> tuple:
    """A byte-comparable rendering of everything deterministic in an
    outcome — what two equal-seed chaos runs are compared on."""
    return (
        outcome.degraded,
        outcome.missing_shards,
        tuple((f.shard_id, f.phase, f.reason) for f in outcome.failures),
        outcome.view_size,
        outcome.matching_count,
        tuple(sorted(outcome.idf.items())),
        tuple((r.rank, r.score, r.scored.index) for r in outcome.results),
        tuple(r.to_xml() for r in outcome.results),
    )


@pytest.mark.parametrize("seed_pair", _pair_matrix())
def test_equal_seeds_fire_equal_schedules_and_equal_responses(seed_pair):
    """Two runs, same FaultPlan, same call sequences ⇒ the same fault
    schedule and byte-identical responses (degraded ones included)."""
    view_text, _fragments, documents, _groups, keyword_sets, plan = (
        _two_shard_fixture(seed_pair)
    )
    chaos = FaultPlan(
        seed=sum(seed_pair),
        rules=(
            FaultRule("shard*.collect", FAULT_ERROR, rate=0.3),
            FaultRule("shard*.rank", FAULT_ERROR, rate=0.2),
        ),
    )

    def run_sweep():
        injector = FaultInjector(chaos)
        outcomes = []
        coordinator = _coordinator(
            documents,
            plan,
            view_text,
            injector,
            # no deadline: in-thread keeps per-site call sequences equal
            partial_results=True,
        )
        with coordinator:
            for keywords in keyword_sets * 3:  # enough calls to sample rates
                try:
                    out = coordinator.search_detailed(
                        "v", keywords, top_k=TOP_K
                    )
                    outcomes.append(("ok", _canonical(out)))
                except ShardUnavailableError as exc:
                    outcomes.append(
                        (
                            "unavailable",
                            tuple(
                                (f.shard_id, f.phase, f.reason)
                                for f in exc.failures
                            ),
                        )
                    )
        return injector.schedule(), outcomes

    first_schedule, first_outcomes = run_sweep()
    second_schedule, second_outcomes = run_sweep()
    assert first_schedule == second_schedule
    assert first_outcomes == second_outcomes
    assert len(first_schedule) > 0  # the scenario actually injected


@pytest.mark.parametrize("seed_pair", _pair_matrix())
def test_fail_closed_default_never_serves_partial_data(seed_pair):
    view_text, _fragments, documents, _groups, keyword_sets, plan = (
        _two_shard_fixture(seed_pair)
    )
    injector = FaultInjector(
        FaultPlan.single(7, "shard0.collect", FAULT_ERROR)
    )
    coordinator = _coordinator(documents, plan, view_text, injector)
    with coordinator:
        for keywords in keyword_sets:
            with pytest.raises(ShardUnavailableError) as excinfo:
                coordinator.search_detailed("v", keywords, top_k=TOP_K)
            assert excinfo.value.failures[0].shard_id == 0


@pytest.mark.parametrize("seed_pair", _pair_matrix())
def test_statistics_phase_loss_equals_healthy_fragments_engine(seed_pair):
    """A shard lost in phase 1 vanishes from the gather: the degraded
    outcome must be bit-identical to an engine evaluating only the
    surviving fragments (healthy-only idf and view size included)."""
    view_text, fragments, documents, groups, keyword_sets, plan = (
        _two_shard_fixture(seed_pair)
    )
    injector = FaultInjector(
        FaultPlan.single(7, "shard0.collect", FAULT_ERROR)
    )
    # The reference holds only shard 1's fragment and documents.
    reference = _single_engine(
        {name: documents[name] for name in groups[1]}, fragments[1]
    )

    coordinator = _coordinator(
        documents, plan, view_text, injector,
        partial_results=True,
    )
    with coordinator:
        for keywords in keyword_sets:
            out = coordinator.search_detailed("v", keywords, top_k=TOP_K)
            assert out.degraded and out.missing_shards == (0,)
            assert out.failures[0].phase == "statistics"
            ref = reference.search_detailed("v", keywords, top_k=TOP_K)
            _assert_bit_identical(
                out, ref, f"seeds={seed_pair} kw={keywords} [healthy-only]"
            )


@pytest.mark.parametrize("seed_pair", _pair_matrix())
def test_ranking_phase_loss_is_an_ordered_subset_with_true_idf(seed_pair):
    """A shard lost in phase 2 keeps the global idf (phase 1 summed every
    shard): the degraded results are exactly the full ranking restricted
    to the healthy shard's fragment, truncated to k."""
    view_text, fragments, documents, groups, keyword_sets, plan = (
        _two_shard_fixture(seed_pair)
    )
    injector = FaultInjector(FaultPlan.single(7, "shard0.rank", FAULT_ERROR))
    reference = _single_engine(documents, view_text)
    # Shard 1's fragment occupies the global index range
    # [shard0_size, view_size): fragment sizes rebase the indexes.
    shard0_size = _single_engine(
        {name: documents[name] for name in groups[0]}, fragments[0]
    ).search_detailed("v", keyword_sets[0], top_k=TOP_K).view_size

    coordinator = _coordinator(
        documents, plan, view_text, injector,
        partial_results=True,
    )
    with coordinator:
        for keywords in keyword_sets:
            out = coordinator.search_detailed("v", keywords, top_k=TOP_K)
            assert out.degraded and out.missing_shards == (0,)
            assert out.failures[0].phase == "ranking"
            full = reference.search_detailed("v", keywords, top_k=None)
            # idf and view size are the phase-1 truth, not healthy-only.
            assert out.idf == full.idf
            assert out.view_size == full.view_size
            survivors = [
                r for r in full.results if r.scored.index >= shard0_size
            ]
            assert [
                (r.score, r.scored.index) for r in out.results
            ] == [(r.score, r.scored.index) for r in survivors[:TOP_K]]
            assert [r.to_xml() for r in out.results] == [
                r.to_xml() for r in survivors[:TOP_K]
            ]
            assert out.matching_count == len(survivors)


@pytest.mark.parametrize("seed_pair", _pair_matrix()[:1])
def test_hang_is_bounded_by_the_deadline(seed_pair):
    """A hung shard costs at most the deadline, not the hang."""
    view_text, _fragments, documents, _groups, keyword_sets, plan = (
        _two_shard_fixture(seed_pair)
    )
    injector = FaultInjector(
        FaultPlan.single(7, "shard0.collect", FAULT_HANG),
        hang_timeout=30.0,
    )
    coordinator = _coordinator(
        documents, plan, view_text, injector,
        shard_deadline=0.25, partial_results=True,
    )
    try:
        start = time.monotonic()
        out = coordinator.search_detailed("v", keyword_sets[0], top_k=TOP_K)
        elapsed = time.monotonic() - start
        assert out.degraded
        assert out.failures[0].reason == FAILURE_TIMEOUT
        # Generous headroom over the 0.25s deadline, but far below the
        # 30s hang: the deadline, not the fault, bounds the query.
        assert elapsed < 10.0
    finally:
        # Unpark the hung worker *before* close(): the pool shutdown
        # waits for its threads, and a still-parked one would stall it.
        injector.release_hangs()
        coordinator.close()


@pytest.mark.parametrize("seed_pair", _pair_matrix())
def test_quarantine_heals_and_outcomes_converge(seed_pair):
    """After faults clear and the quarantine cooldown elapses, outcomes
    are bit-identical to a coordinator that never failed."""
    view_text, _fragments, documents, _groups, keyword_sets, plan = (
        _two_shard_fixture(seed_pair)
    )
    clock = [0.0]
    health = FleetHealth(
        plan.shard_count,
        failure_threshold=1,
        reset_after=5.0,
        clock=lambda: clock[0],
    )
    injector = FaultInjector(
        FaultPlan.single(7, "shard0.collect", FAULT_ERROR)
    )
    pristine = _coordinator(documents, plan, view_text)
    coordinator = _coordinator(
        documents, plan, view_text, injector,
        partial_results=True, health=health,
    )
    with pristine, coordinator:
        # Outage: first query fails the shard, second skips it outright.
        out = coordinator.search_detailed("v", keyword_sets[0], top_k=TOP_K)
        assert out.degraded
        calls = injector.call_count("shard0.collect")
        out = coordinator.search_detailed("v", keyword_sets[0], top_k=TOP_K)
        assert out.failures[0].reason == FAILURE_QUARANTINED
        assert injector.call_count("shard0.collect") == calls
        assert coordinator.health_snapshot()["quarantined"] == [0]

        # Recovery: faults clear, cooldown elapses, the probe heals.
        injector.disable()
        clock[0] += 5.0
        for keywords in keyword_sets:
            out = coordinator.search_detailed("v", keywords, top_k=TOP_K)
            ref = pristine.search_detailed("v", keywords, top_k=TOP_K)
            assert not out.degraded
            _assert_bit_identical(
                out, ref, f"seeds={seed_pair} kw={keywords} [healed]"
            )
        assert coordinator.health_snapshot()["quarantined"] == []


@pytest.mark.parametrize("seed", _seed_matrix())
def test_storage_corruption_never_changes_results(seed, tmp_path):
    """Corrupt snapshot writes and reads cost rebuilds, never answers:
    every outcome is bit-identical to an engine with no faults."""
    case = generate_case(seed)
    clean = KeywordSearchEngine(generate_case(seed).database)
    clean.define_view("v", case.view_text)

    injector = FaultInjector(
        FaultPlan(
            seed=seed,
            rules=(
                FaultRule("store.save", FAULT_CORRUPT, rate=0.5),
                FaultRule("store.load", FAULT_CORRUPT, rate=0.5),
            ),
        )
    )
    store = SkeletonStore(tmp_path / "chaos", fault_injector=injector)
    chaotic = KeywordSearchEngine(case.database, snapshot_store=store)
    chaotic.define_view("v", case.view_text)

    for repeat in range(2):  # second pass reads back corrupted snapshots
        for keywords in case.keyword_sets:
            out = chaotic.search_detailed("v", keywords, top_k=TOP_K)
            ref = clean.search_detailed("v", keywords, top_k=TOP_K)
            _assert_bit_identical(
                out, ref, f"seed={seed} kw={keywords} pass={repeat}"
            )
    # The chaos actually hit the storage path.
    assert injector.call_count("store.save") > 0
    assert injector.call_count("store.load") > 0


@pytest.mark.parametrize("seed", _seed_matrix()[:1])
def test_injected_save_errors_never_fail_queries(seed, tmp_path):
    """A snapshot tier that errors on every write is invisible to
    callers — the engine absorbs the failure and serves from memory."""
    case = generate_case(seed)
    clean = KeywordSearchEngine(generate_case(seed).database)
    clean.define_view("v", case.view_text)
    injector = FaultInjector(FaultPlan.single(seed, "store.save", FAULT_ERROR))
    store = SkeletonStore(tmp_path / "dead", fault_injector=injector)
    chaotic = KeywordSearchEngine(case.database, snapshot_store=store)
    chaotic.define_view("v", case.view_text)
    for keywords in case.keyword_sets:
        out = chaotic.search_detailed("v", keywords, top_k=TOP_K)
        ref = clean.search_detailed("v", keywords, top_k=TOP_K)
        _assert_bit_identical(out, ref, f"seed={seed} kw={keywords}")
    assert injector.call_count("store.save") > 0
