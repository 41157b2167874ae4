"""The corpus-sharding layer: placement, plan, executors, coordinator, ingest."""

import hashlib
import json
from dataclasses import fields

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.faults import (
    FAULT_DELAY,
    FAULT_ERROR,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.core.health import FleetHealth
from repro.core.ingest import ingest_corpus
from repro.core.outcome import PhaseTimings, SearchOutcome
from repro.core.placement import ShardPlan, _home_shard, view_fragments
from repro.core.sharding import (
    FAILURE_ERROR,
    FAILURE_QUARANTINED,
    FAILURE_TIMEOUT,
    CorpusCoordinator,
    ShardExecutor,
)
from repro.errors import (
    CoordinatorClosedError,
    DocumentNotFoundError,
    ShardUnavailableError,
    ShardingError,
    StorageError,
    ViewDefinitionError,
)
from repro.storage.database import XMLDatabase, index_document
from repro.xquery.functions import inline_functions
from repro.xquery.parser import parse_query


DOCS = {
    f"d{i}": (
        f"<lib><book><title>alpha beta {'gamma ' * (i % 3)}</title>"
        f"<body>delta {'alpha ' * (i % 4)}epsilon</body></book></lib>"
    )
    for i in range(8)
}


def _fragment(name):
    return (
        f"(for $b in fn:doc({name})//book "
        f"return <hit>{{$b/title}}{{$b/body}}</hit>)"
    )


def _view_text(names):
    return "(" + ",\n".join(_fragment(name) for name in names) + ")"


def _single_engine(view_text, docs=DOCS):
    db = XMLDatabase()
    for name in sorted(docs):
        db.load_document(name, docs[name])
    engine = KeywordSearchEngine(db)
    engine.define_view("v", view_text)
    return engine


def _coordinator(shard_count, view_text, docs=DOCS, **kwargs):
    plan = ShardPlan.build(sorted(docs), shard_count)
    executors = [ShardExecutor(i) for i in range(shard_count)]
    for name in sorted(docs):
        executors[plan.shard_of(name)].load_document(name, docs[name])
    coordinator = CorpusCoordinator(executors, plan, **kwargs)
    coordinator.define_view("v", view_text)
    return coordinator


def _deadline(pooled):
    """The scatter's two routes: in-thread without a ``shard_deadline``,
    the thread pool with one (30 s — never reached)."""
    return 30.0 if pooled else None


#: ``ShardPlan.build`` of the layered benchmark's ``sharded_fanout``
#: documents (``doc000`` … ``doc095``) at 4 shards, one digit per document
#: in name order, as recorded before placement moved into ``core/sharding``.
FANOUT_PLACEMENTS = (
    "113222033132012110130033220131012202102012210112210303003311233203"
    "312232021032330003231021200221"
)


class TestShardRouter:
    """Document placement: the stable hash a plan homes documents by."""

    def test_deterministic_and_in_range(self):
        for name in ("a", "d.xml", "ümlaut", "doc042"):
            shard = _home_shard(name, 7)
            assert 0 <= shard < 7
            assert _home_shard(name, 7) == shard  # stable
        assert ShardPlan.build(sorted(DOCS), 7) == ShardPlan.build(sorted(DOCS), 7)

    def test_route_is_index_of_tuple(self):
        # BLAKE2b (8-byte digest) of the 1-tuple's repr, mod the count.
        digest = hashlib.blake2b(repr(("d",)).encode(), digest_size=8).digest()
        assert _home_shard("d", 5) == int.from_bytes(digest, "big") % 5

    def test_spreads_keys(self):
        plan = ShardPlan.build([f"doc{i}.xml" for i in range(64)], 4)
        assert set(plan.assignments.values()) == {0, 1, 2, 3}

    def test_rejects_bad_count(self):
        with pytest.raises(ShardingError):
            ShardPlan.build(sorted(DOCS), 0)

    def test_placements_are_pinned(self):
        names = [f"doc{number:03d}" for number in range(96)]
        plan = ShardPlan.build(names, 4)
        assert "".join(str(plan.shard_of(name)) for name in names) == (
            FANOUT_PLACEMENTS
        )


class TestRouterIsShared:
    """A plan homes every document — and every colocated group, by its
    smallest member — on the placement hash's shard."""

    def test_plan_agrees_with_router(self):
        plan = ShardPlan.build(sorted(DOCS), 4, colocate=[("d5", "d2", "d7")])
        for name in DOCS:
            home = "d2" if name in ("d5", "d2", "d7") else name
            assert plan.shard_of(name) == _home_shard(home, 4)


class TestShardPlan:
    def test_build_assigns_every_document(self):
        plan = ShardPlan.build(sorted(DOCS), 3)
        assert set(plan.assignments) == set(DOCS)
        assert all(0 <= s < 3 for s in plan.assignments.values())
        assert sorted(
            doc for s in range(3) for doc in plan.documents_for(s)
        ) == sorted(DOCS)

    def test_colocation_groups_share_a_shard(self):
        plan = ShardPlan.build(
            sorted(DOCS), 5, colocate=[("d0", "d3"), ("d3", "d6")]
        )
        # Transitive: d0/d3/d6 form one component.
        assert plan.shard_of("d0") == plan.shard_of("d3") == plan.shard_of("d6")

    def test_colocation_is_deterministic(self):
        first = ShardPlan.build(sorted(DOCS), 5, colocate=[("d1", "d2")])
        second = ShardPlan.build(
            sorted(DOCS), 5, colocate=[("d2", "d1")]  # order must not matter
        )
        assert first.assignments == second.assignments

    def test_colocation_unknown_document(self):
        with pytest.raises(ShardingError):
            ShardPlan.build(["d0"], 2, colocate=[("d0", "ghost")])

    def test_from_assignments_validates_range(self):
        with pytest.raises(ShardingError):
            ShardPlan.from_assignments({"d0": 5}, 2)

    def test_shard_of_unknown_document(self):
        plan = ShardPlan.from_assignments({"d0": 0}, 2)
        with pytest.raises(ShardingError):
            plan.shard_of("ghost")


class TestViewFragments:
    def test_single_expression_is_one_fragment(self):
        expr = inline_functions(parse_query(_fragment("d0")))
        fragments = view_fragments(expr)
        assert len(fragments) == 1
        assert fragments[0].position == 0
        assert fragments[0].documents == ("d0",)

    def test_sequence_splits_by_position(self):
        expr = inline_functions(
            parse_query(_view_text(["d0", "d1", "d2"]))
        )
        fragments = view_fragments(expr)
        assert [f.position for f in fragments] == [0, 1, 2]
        assert [f.documents for f in fragments] == [("d0",), ("d1",), ("d2",)]

    def test_docless_fragment_rejected(self):
        expr = inline_functions(parse_query("(<a></a>, <b></b>)"))
        with pytest.raises(ShardingError):
            view_fragments(expr)


class TestPhaseTimingsMerge:
    def test_concurrent_takes_max_per_field(self):
        a = PhaseTimings(qpt=1.0, pdt=2.0, evaluator=5.0)
        b = PhaseTimings(qpt=3.0, pdt=1.0, post_processing=4.0)
        merged = PhaseTimings.merge([a, b], concurrent=True)
        assert merged.qpt == 3.0
        assert merged.pdt == 2.0
        assert merged.evaluator == 5.0
        assert merged.post_processing == 4.0

    def test_serial_sums_per_field(self):
        a = PhaseTimings(qpt=1.0, pdt_skeleton=0.5)
        b = PhaseTimings(qpt=3.0, pdt_skeleton=0.25)
        merged = PhaseTimings.merge([a, b], concurrent=False)
        assert merged.qpt == 4.0
        assert merged.pdt_skeleton == 0.75

    def test_empty_merges_to_zeros(self):
        for concurrent in (True, False):
            merged = PhaseTimings.merge([], concurrent=concurrent)
            assert merged.total == 0.0

    def test_single_span_is_identity(self):
        span = PhaseTimings(qpt=1.0, pdt=2.0, evaluator=3.0, post_processing=4.0)
        for concurrent in (True, False):
            assert PhaseTimings.merge([span], concurrent=concurrent) == span


class TestAttachDocument:
    def test_shares_indices_with_fresh_generation(self):
        source = XMLDatabase()
        original = source.load_document("d0", DOCS["d0"])
        target = XMLDatabase()
        target.load_document("other", DOCS["d1"])  # advance the counter
        adopted = target.attach_document(original)
        assert adopted.path_index is original.path_index
        assert adopted.inverted_index is original.inverted_index
        assert adopted.store is original.store
        assert adopted.document is original.document
        assert adopted.generation != original.generation

    def test_rejects_duplicate_name(self):
        source = XMLDatabase()
        original = source.load_document("d0", DOCS["d0"])
        target = XMLDatabase()
        target.load_document("d0", DOCS["d0"])
        with pytest.raises(StorageError):
            target.attach_document(original)

    def test_fires_invalidation_hook(self):
        source = XMLDatabase()
        original = source.load_document("d0", DOCS["d0"])
        target = XMLDatabase()
        seen = []
        target.add_invalidation_hook(seen.append)
        target.attach_document(original)
        assert seen == ["d0"]

    def test_index_document_matches_load(self):
        indexed = index_document("d0", DOCS["d0"])
        db = XMLDatabase()
        loaded = db.load_document("d0", DOCS["d0"])
        assert indexed.fingerprint == loaded.fingerprint
        assert len(indexed.store) == len(loaded.store)


class TestCoordinator:
    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_matches_single_engine_bit_for_bit(self, shard_count, pooled):
        view_text = _view_text(sorted(DOCS))
        single = _single_engine(view_text)
        with _coordinator(
            shard_count, view_text, shard_deadline=_deadline(pooled)
        ) as coord:
            for keywords in (("alpha",), ("alpha", "gamma"), ("ghostword",)):
                for conjunctive in (True, False):
                    ref = single.search_detailed(
                        "v", keywords, top_k=5, conjunctive=conjunctive
                    )
                    out = coord.search_detailed(
                        "v", keywords, top_k=5, conjunctive=conjunctive
                    )
                    assert out.view_size == ref.view_size
                    assert out.matching_count == ref.matching_count
                    assert out.idf == ref.idf  # exact floats, not isclose
                    assert [
                        (r.rank, r.score, r.scored.index) for r in out.results
                    ] == [
                        (r.rank, r.score, r.scored.index) for r in ref.results
                    ]
                    assert [r.to_xml() for r in out.results] == [
                        r.to_xml() for r in ref.results
                    ]
            # The pool exists iff there is a deadline for it to enforce.
            assert (coord._pool is not None) == pooled

    def test_lone_engine_is_the_one_part_case(self):
        """One outcome type: a lone engine and a 1-shard coordinator over
        the same documents agree field for field, apart from the three
        fields that describe the scatter itself."""
        view_text = _view_text(sorted(DOCS))
        single = _single_engine(view_text)
        scatter_only = {"shards", "merge_stats", "shard_timings"}
        projections = {
            "results": lambda results: [
                (r.rank, r.score, r.scored.index, r.scored.statistics, r.to_xml())
                for r in results
            ],
            # Wall clock: only the ledger's shape can agree.
            "timings": lambda timings: sorted(timings.as_dict()),
        }
        with _coordinator(1, view_text) as coord:
            for keywords in (("alpha",), ("alpha", "gamma"), ("ghostword",)):
                ref = single.search_detailed("v", keywords, top_k=5)
                out = coord.search_detailed("v", keywords, top_k=5)
                assert type(out) is type(ref) is SearchOutcome
                for spec in fields(SearchOutcome):
                    if spec.name in scatter_only or spec.name.startswith("_"):
                        continue
                    project = projections.get(spec.name, lambda value: value)
                    assert project(getattr(out, spec.name)) == project(
                        getattr(ref, spec.name)
                    ), spec.name
                # The coordinator's stats sum the shards' per tier, name
                # by name: the lone engine's shape.
                assert {
                    tier: counters.keys()
                    for tier, counters in coord.stats()["cache"].items()
                } == {
                    tier: counters.keys()
                    for tier, counters in single.stats()["cache"].items()
                }
                # One part: nothing scattered, merged or missing.
                assert ref.shards == () and ref.shard_timings == {}
                assert ref.merge_stats is None
                assert ref.degraded is False
                assert ref.missing_shards == () and ref.failures == ()
                assert out.shards == (0,) and out.merge_stats.shard_count == 1

    def test_outcome_carries_shard_diagnostics(self):
        view_text = _view_text(sorted(DOCS))
        with _coordinator(4, view_text) as coord:
            out = coord.search_detailed("v", ("alpha",), top_k=3)
        assert out.shards == coord.get_view("v").shards
        assert len(out.shards) > 1  # 8 docs over 4 shards scatter
        assert out.merge_stats is not None
        assert out.merge_stats.shard_count == len(out.shards)
        assert out.merge_stats.consumed <= out.merge_stats.candidates
        assert set(out.shard_timings) == set(out.shards)
        # Serial shard spans + coordinator spans: total covers both.
        assert out.timings.total >= max(
            t.total for t in out.shard_timings.values()
        )

    def test_fragment_spanning_shards_is_rejected(self):
        plan = ShardPlan.from_assignments({"d0": 0, "d1": 1}, 2)
        executors = [ShardExecutor(0), ShardExecutor(1)]
        executors[0].load_document("d0", DOCS["d0"])
        executors[1].load_document("d1", DOCS["d1"])
        coordinator = CorpusCoordinator(executors, plan)
        join = (
            "for $a in fn:doc(d0)//book "
            "for $b in fn:doc(d1)//book "
            "where $a/title = $b/title "
            "return $a"
        )
        with pytest.raises(ShardingError):
            coordinator.define_view("j", join)

    def test_executor_count_must_match_plan(self):
        plan = ShardPlan.from_assignments({"d0": 0}, 2)
        with pytest.raises(ShardingError):
            CorpusCoordinator([ShardExecutor(0)], plan)

    def test_executors_must_be_ordered(self):
        plan = ShardPlan.from_assignments({"d0": 0}, 2)
        with pytest.raises(ShardingError):
            CorpusCoordinator([ShardExecutor(1), ShardExecutor(0)], plan)

    def test_unknown_view(self):
        with _coordinator(2, _view_text(["d0"]), docs={"d0": DOCS["d0"]}) as coord:
            with pytest.raises(ViewDefinitionError):
                coord.search("ghost", ("alpha",))

    def test_warm_view_reports_and_warms(self):
        view_text = _view_text(sorted(DOCS))
        with _coordinator(3, view_text) as coord:
            hits = coord.warm_view("v")
            assert set(hits) == set(DOCS)
            out = coord.search_detailed("v", ("alpha",), top_k=3)
            # Warmed: every document served from the skeleton tier or
            # deeper, and every fragment evaluation from the evaluated tier.
            assert set(out.cache_hits.values()) <= {"skeleton", "pdt"}
            assert out.evaluated_hit

    def test_shard_of_document(self):
        with _coordinator(4, _view_text(sorted(DOCS))) as coord:
            for name in DOCS:
                home = coord.executors[coord.plan.shard_of(name)]
                assert name in home.engine.database.document_names()


def _placed_coordinator(assignments, view_text, docs=DOCS):
    """A coordinator over ``docs`` with each document on the shard
    ``assignments`` names."""
    shard_count = max(assignments.values()) + 1
    plan = ShardPlan.from_assignments(assignments, shard_count)
    executors = [ShardExecutor(i) for i in range(shard_count)]
    for name in sorted(assignments):
        executors[plan.shard_of(name)].load_document(name, docs[name])
    coordinator = CorpusCoordinator(executors, plan)
    coordinator.define_view("v", view_text)
    return coordinator


def _assert_ranks_like(coordinator, single):
    for keywords in (("alpha",), ("alpha", "gamma"), ("epsilon",), ("ghostword",)):
        for conjunctive in (True, False):
            for top_k in (3, None):
                ranked = [
                    [(r.rank, r.score, r.scored.index) for r in engine.search(
                        "v", keywords, top_k=top_k, conjunctive=conjunctive
                    )]
                    for engine in (coordinator, single)
                ]
                assert ranked[0] == ranked[1], (keywords, conjunctive, top_k)


class TestOneEngineViewPerShard:
    """A shard's fragments are one engine view, its parts one per
    fragment, each rebased to its own global offset by the gather."""

    def test_interleaved_fragments_with_an_empty_one(self):
        # Fragments 0 and 2 on shard 0, 1 and 3 on shard 1; fragment 2
        # matches no element, so its part is empty.
        fragments = [
            _fragment("d0"),
            _fragment("d1"),
            "(for $b in fn:doc(d2)//missing return <hit>{$b/title}</hit>)",
            _fragment("d3"),
        ]
        view_text = "(" + ",\n".join(fragments) + ")"
        docs = {name: DOCS[name] for name in ("d0", "d1", "d2", "d3")}
        single = _single_engine(view_text, docs)
        with _placed_coordinator(
            {"d0": 0, "d1": 1, "d2": 0, "d3": 1}, view_text, docs
        ) as coord:
            for executor in coord.executors:
                (fragment,) = executor.fragments_for("v")
                assert fragment.positions == ((0, 2), (1, 3))[executor.shard_id]
                assert len(executor.engine._views) == 1
            _assert_ranks_like(coord, single)

    def test_two_fragments_reading_one_document_share_its_qpt(self):
        view_text = "(" + ",\n".join([
            "(for $b in fn:doc(d0)//book return <hit>{$b/title}</hit>)",
            _fragment("d1"),
            "(for $b in fn:doc(d0)//book return <hit>{$b/body}</hit>)",
        ]) + ")"
        docs = {name: DOCS[name] for name in ("d0", "d1")}
        single = _single_engine(view_text, docs)
        with _placed_coordinator({"d0": 0, "d1": 1}, view_text, docs) as coord:
            shard_view = coord.executors[0].engine.get_view("v#0")
            assert shard_view.qpts["d0"].content_hash == (
                single.get_view("v").qpts["d0"].content_hash
            )
            _assert_ranks_like(coord, single)

    def test_scored_reads_global_indexes_after_the_gather(self):
        # The compatibility read: each shard's rows, at the view indexes
        # the gather gave them, are the lone engine's rows there.
        view_text = _view_text(sorted(DOCS))
        single = _single_engine(view_text)
        harvests = []
        with _coordinator(3, view_text) as coord:
            for executor in coord.executors:
                collect = executor.collect
                executor.collect = lambda *args, collect=collect: (
                    harvests.append(collect(*args)) or harvests[-1]
                )
            outcome = coord.search_detailed("v", ("alpha", "gamma"))
        expected = single.collect_view_statistics("v", ("alpha", "gamma")).scored
        scored = sorted(
            (r for stats in harvests for r in stats.scored),
            key=lambda r: r.index,
        )
        assert len(harvests) == len(outcome.shards) == 3
        assert [r.index for r in scored] == list(range(outcome.view_size))
        assert [r.statistics for r in scored] == [
            r.statistics for r in expected
        ]


class TestRedefinition:
    """A redefinition leaves each shard exactly the engine view the new
    definition places there: an engine view the old definition named is
    gone, its entries too, and an edit re-warms nothing but the new
    one."""

    EDIT = "<book><title>alpha zeta</title><body>alpha</body></book>"

    def _redefine(self, old_names, new_names, gone):
        """``v`` over ``old_names`` then ``new_names`` (``d0`` on shard
        0, ``d1`` on shard 1); ``gone`` maps a shard to the engine view
        the redefinition must have dropped there."""
        docs = {name: DOCS[name] for name in ("d0", "d1")}
        new_text = _view_text(new_names)
        with _placed_coordinator(
            {"d0": 0, "d1": 1}, _view_text(old_names), docs
        ) as coord:
            coord.warm_view("v")
            coord.define_view("v", new_text)
            for name in ("d0", "d1"):
                coord.insert_subtree(name, "1", self.EDIT)
            single = _single_engine(new_text, docs)
            for name in ("d0", "d1"):
                single.database.insert_subtree(name, "1", self.EDIT)
            for shard, old_view in gone.items():
                with pytest.raises(ViewDefinitionError):
                    coord.executors[shard].engine.get_view(old_view)
            for executor in coord.executors:
                placed = executor._fragments.get("v")
                live = set() if placed is None else {f"v#{placed.position}"}
                engine = executor.engine
                assert set(engine._views) == live
                assert {key[0] for key, _ in engine.cache.skeletons.items()} <= live
            _assert_ranks_like(coord, single)
            return coord

    def test_shrunk_view_leaves_the_shard_it_no_longer_reaches(self):
        coord = self._redefine(["d0", "d1"], ["d0"], gone={1: "v#1"})
        dropped = coord.executors[1]
        with pytest.raises(ViewDefinitionError):
            dropped.fragments_for("v")
        assert len(dropped.engine.cache.skeletons) == 0
        assert coord.get_view("v").shards == (0,)

    def test_swapped_fragments_rename_each_shard_view(self):
        coord = self._redefine(
            ["d0", "d1"], ["d1", "d0"], gone={0: "v#0", 1: "v#1"}
        )
        for executor in coord.executors:
            (fragment,) = executor.fragments_for("v")
            assert fragment.positions == ((1,), (0,))[executor.shard_id]
            assert list(executor.engine._views) == [f"v#{fragment.position}"]

    def test_failed_redefinition_changes_no_shard(self):
        # d2 is placed on shard 1 but never loaded there: the new
        # definition fails on it, before shard 0 takes its (d0, d0).
        docs = {name: DOCS[name] for name in ("d0", "d1")}
        plan = ShardPlan.from_assignments({"d0": 0, "d1": 1, "d2": 1}, 2)
        executors = [ShardExecutor(i) for i in range(2)]
        for name in sorted(docs):
            executors[plan.shard_of(name)].load_document(name, docs[name])
        old_text = _view_text(["d0", "d1"])
        with CorpusCoordinator(executors, plan) as coord:
            coord.define_view("v", old_text)
            with pytest.raises(DocumentNotFoundError):
                coord.define_view("v", _view_text(["d0", "d0", "d2"]))
            assert coord.get_view("v").text == old_text
            assert len(coord.search("v", ("alpha",))) == 2
            _assert_ranks_like(coord, _single_engine(old_text, docs))


def _faulty_coordinator(
    shard_count, view_text, injector, docs=DOCS, **kwargs
):
    """A coordinator whose executors all share one fault injector."""
    plan = ShardPlan.build(sorted(docs), shard_count)
    executors = [
        ShardExecutor(i, fault_injector=injector) for i in range(shard_count)
    ]
    for name in sorted(docs):
        executors[plan.shard_of(name)].load_document(name, docs[name])
    coordinator = CorpusCoordinator(executors, plan, **kwargs)
    coordinator.define_view("v", view_text)
    return coordinator


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestFailureDomains:
    VIEW = _view_text(sorted(DOCS))

    @pytest.mark.parametrize("pooled", [False, True])
    def test_close_then_search_is_typed(self, pooled):
        coord = _coordinator(2, self.VIEW, shard_deadline=_deadline(pooled))
        assert coord.search("v", ("alpha",), top_k=3)
        assert (coord._pool is not None) == pooled
        coord.close()
        # Closed is closed on either route, not only when a pool would
        # have been used.
        with pytest.raises(CoordinatorClosedError):
            coord.search("v", ("alpha",), top_k=3)
        with pytest.raises(CoordinatorClosedError):
            coord.warm_view("v")

    @pytest.mark.parametrize("pooled", [False, True])
    def test_close_is_idempotent_and_safe_under_races(self, pooled):
        import threading

        coord = _coordinator(2, self.VIEW, shard_deadline=_deadline(pooled))
        outcomes = []

        def query():
            try:
                coord.search("v", ("alpha",), top_k=3)
                outcomes.append("ok")
            except CoordinatorClosedError:
                outcomes.append("closed")

        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        coord.close()
        coord.close()
        for thread in threads:
            thread.join(30)
        # Every racer got a real answer or the typed error — never the
        # pool's raw RuntimeError, never a resurrected pool.
        assert set(outcomes) <= {"ok", "closed"}
        assert len(outcomes) == 8
        assert coord._pool is None

    def test_fail_closed_is_the_default(self):
        injector = FaultInjector(
            FaultPlan.single(11, "shard0.collect", FAULT_ERROR)
        )
        with _faulty_coordinator(2, self.VIEW, injector) as coord:
            with pytest.raises(ShardUnavailableError) as excinfo:
                coord.search("v", ("alpha",), top_k=3)
        failure = excinfo.value.failures[0]
        assert failure.shard_id == 0
        assert failure.phase == "statistics"
        assert failure.reason == FAILURE_ERROR
        assert failure.attempts == 1

    def test_retry_budget_recovers_a_transient_fault(self):
        injector = FaultInjector(
            FaultPlan.single(
                11, "shard0.collect", FAULT_ERROR, at_calls=(1,)
            )
        )
        reference = _coordinator(2, self.VIEW)
        with reference, _faulty_coordinator(
            2, self.VIEW, injector, shard_retries=1
        ) as coord:
            out = coord.search_detailed("v", ("alpha",), top_k=5)
            ref = reference.search_detailed("v", ("alpha",), top_k=5)
        assert not out.degraded
        assert out.failures == ()
        assert [(r.rank, r.score, r.scored.index) for r in out.results] == [
            (r.rank, r.score, r.scored.index) for r in ref.results
        ]

    def test_partial_results_yields_typed_degraded_outcome(self):
        injector = FaultInjector(
            FaultPlan.single(11, "shard1.collect", FAULT_ERROR)
        )
        with _faulty_coordinator(
            2, self.VIEW, injector, partial_results=True
        ) as coord:
            out = coord.search_detailed("v", ("alpha",), top_k=5)
        assert out.degraded
        assert out.missing_shards == (1,)
        assert [f.as_dict() for f in out.failures] == [
            {
                "shard_id": 1,
                "phase": "statistics",
                "reason": FAILURE_ERROR,
                "error": out.failures[0].error,
                "attempts": 1,
            }
        ]
        assert out.results  # shard 0's contribution survives
        assert out.merge_stats.missing == 1

    def test_all_shards_failing_raises_even_with_partial_results(self):
        injector = FaultInjector(
            FaultPlan.single(11, "shard*.collect", FAULT_ERROR)
        )
        with _faulty_coordinator(
            2, self.VIEW, injector, partial_results=True
        ) as coord:
            with pytest.raises(ShardUnavailableError):
                coord.search("v", ("alpha",), top_k=3)

    def test_deadline_converts_slowness_into_timeout(self):
        injector = FaultInjector(
            FaultPlan.single(
                11, "shard0.collect", FAULT_DELAY, delay=0.5
            )
        )
        with _faulty_coordinator(
            2,
            self.VIEW,
            injector,
            shard_deadline=0.05,
            partial_results=True,
        ) as coord:
            out = coord.search_detailed("v", ("alpha",), top_k=5)
        assert out.degraded
        assert out.missing_shards == (0,)
        assert out.failures[0].reason == FAILURE_TIMEOUT

    def test_semantic_errors_propagate_raw_despite_partial_results(self):
        plan = ShardPlan.build(sorted(DOCS), 2)
        executors = [ShardExecutor(i) for i in range(2)]
        for name in sorted(DOCS):
            executors[plan.shard_of(name)].load_document(name, DOCS[name])
        coord = CorpusCoordinator(executors, plan, partial_results=True)
        coord.define_view("v", self.VIEW)

        def broken_collect(view_name, normalized):
            raise ViewDefinitionError("deterministic caller bug")

        executors[0].collect = broken_collect
        with coord:
            with pytest.raises(ViewDefinitionError):
                coord.search("v", ("alpha",), top_k=3)

    def test_quarantine_skips_then_heals(self):
        clock = _FakeClock()
        health = FleetHealth(
            2, failure_threshold=2, reset_after=5.0, clock=clock
        )
        injector = FaultInjector(
            FaultPlan.single(11, "shard0.collect", FAULT_ERROR)
        )
        reference = _coordinator(2, self.VIEW)
        with reference, _faulty_coordinator(
            2,
            self.VIEW,
            injector,
            partial_results=True,
            health=health,
        ) as coord:
            # Two failing queries trip the breaker...
            for _ in range(2):
                out = coord.search_detailed("v", ("alpha",), top_k=5)
                assert out.failures[0].reason == FAILURE_ERROR
            assert health.snapshot()["quarantined"] == [0]
            # ...the third is skipped without ever submitting work.
            calls_before = injector.call_count("shard0.collect")
            out = coord.search_detailed("v", ("alpha",), top_k=5)
            assert out.failures[0].reason == FAILURE_QUARANTINED
            assert out.failures[0].attempts == 0
            assert injector.call_count("shard0.collect") == calls_before
            snapshot = coord.health_snapshot()
            assert snapshot["quarantined"] == [0]
            assert snapshot["serving"] == 1

            # Faults clear, cooldown elapses: the probe heals the shard
            # and the outcome converges with the never-failed reference.
            injector.disable()
            clock.now += 5.0
            out = coord.search_detailed("v", ("alpha",), top_k=5)
            ref = reference.search_detailed("v", ("alpha",), top_k=5)
            assert not out.degraded
            assert health.snapshot()["quarantined"] == []
            assert [
                (r.rank, r.score, r.scored.index) for r in out.results
            ] == [(r.rank, r.score, r.scored.index) for r in ref.results]

    def test_warmup_is_always_fail_closed(self):
        plan = ShardPlan.build(sorted(DOCS), 2)
        executors = [ShardExecutor(i) for i in range(2)]
        for name in sorted(DOCS):
            executors[plan.shard_of(name)].load_document(name, DOCS[name])
        coord = CorpusCoordinator(executors, plan, partial_results=True)
        coord.define_view("v", self.VIEW)

        def broken_warm(view_name):
            raise OSError("disk went away")

        executors[0].warm_view = broken_warm
        with coord:
            with pytest.raises(ShardUnavailableError) as excinfo:
                coord.warm_view("v")
        assert excinfo.value.failures[0].phase == "warmup"
        assert excinfo.value.failures[0].reason == FAILURE_ERROR


class TestIngest:
    def test_ingest_builds_warm_coordinator(self, tmp_path):
        view_text = _view_text(sorted(DOCS))
        coordinator, report = ingest_corpus(
            DOCS,
            {"v": view_text},
            shard_count=3,
            snapshot_dir=tmp_path / "snapshots",
        )
        with coordinator:
            assert report.shard_count == 3
            assert set(report.documents) == set(DOCS)
            assert set(report.views["v"]) == set(DOCS)
            assert set(report.timings) == {"plan", "index", "attach", "warm"}
            # Per-shard snapshot slices exist for every populated shard.
            populated = set(report.documents.values())
            for shard in populated:
                assert (tmp_path / "snapshots" / f"shard-{shard:02d}").is_dir()
            out = coordinator.search_detailed("v", ("alpha",), top_k=3)
            assert out.evaluated_hit  # ingest pre-warmed the tiers
            assert json.loads(json.dumps(report.as_dict()))  # serializable

    def test_ingest_prunes_stale_snapshots_and_reports(self, tmp_path):
        view_text = _view_text(sorted(DOCS))
        snapshots = tmp_path / "snapshots"
        first, report = ingest_corpus(
            DOCS, {"v": view_text}, shard_count=2, snapshot_dir=snapshots
        )
        first.close()
        assert report.pruned == 0
        assert report.as_dict()["pruned"] == 0
        # Re-ingesting with one document's content changed orphans the
        # old fingerprint's snapshot; ingest reclaims it after warming.
        changed = dict(DOCS)
        changed["d0"] = DOCS["d0"].replace("alpha", "omega", 1)
        second, report = ingest_corpus(
            changed, {"v": view_text}, shard_count=2, snapshot_dir=snapshots
        )
        with second:
            assert report.pruned == 1
            assert second.search("v", ("delta",), top_k=3)

    def test_ingest_mmap_snapshots_round_trip(self, tmp_path):
        view_text = _view_text(sorted(DOCS))
        snapshots = tmp_path / "snapshots"
        first, _ = ingest_corpus(
            DOCS, {"v": view_text}, shard_count=2, snapshot_dir=snapshots
        )
        with first:
            expected = [
                (r.rank, r.score) for r in first.search("v", ("alpha",), top_k=5)
            ]
        # A restarted fleet restores via mmap and ranks identically.
        second, report = ingest_corpus(
            DOCS,
            {"v": view_text},
            shard_count=2,
            snapshot_dir=snapshots,
            mmap_snapshots=True,
        )
        with second:
            assert all(
                hit == "snapshot" for hit in report.views["v"].values()
            )
            assert [
                (r.rank, r.score)
                for r in second.search("v", ("alpha",), top_k=5)
            ] == expected

    def test_ingest_colocates_join_fragments(self):
        # d0 and d3 carry identical titles (i % 3 == 0), so the value
        # join genuinely produces results.
        join_view = (
            "for $a in fn:doc(d0)//book "
            "for $b in fn:doc(d3)//book "
            "where $a/title = $b/title "
            "return <hit>{$a/title}</hit>"
        )
        coordinator, report = ingest_corpus(
            {"d0": DOCS["d0"], "d3": DOCS["d3"]},
            {"j": join_view},
            shard_count=8,
        )
        with coordinator:
            assert report.documents["d0"] == report.documents["d3"]
            assert coordinator.search("j", ("alpha",), top_k=3)

    def test_ingest_rejects_unknown_view_document(self):
        with pytest.raises(ShardingError):
            ingest_corpus({"d0": DOCS["d0"]}, {"v": _view_text(["ghost"])})

    def test_ingest_matches_single_engine(self):
        view_text = _view_text(sorted(DOCS))
        single = _single_engine(view_text)
        ref = single.search_detailed("v", ("alpha", "delta"), top_k=5)
        for pooled in (False, True):
            coordinator, _ = ingest_corpus(
                DOCS, {"v": view_text}, shard_count=4
            )
            coordinator.shard_deadline = _deadline(pooled)
            with coordinator:
                out = coordinator.search_detailed(
                    "v", ("alpha", "delta"), top_k=5
                )
                assert out.idf == ref.idf
                assert [(r.rank, r.score) for r in out.results] == [
                    (r.rank, r.score) for r in ref.results
                ]

    def test_cli_smoke(self, tmp_path, capsys):
        from repro.ingest import main

        doc_paths = []
        for name in ("a", "b", "c"):
            path = tmp_path / f"{name}.xml"
            path.write_text(DOCS[f"d{len(doc_paths)}"])
            doc_paths.append(str(path))
        view_path = tmp_path / "view.xq"
        view_path.write_text(_view_text(["a", "b", "c"]))
        manifest = tmp_path / "manifest.json"
        code = main(
            [
                "--shards",
                "2",
                "--view",
                f"v={view_path}",
                "--manifest",
                str(manifest),
                *doc_paths,
            ]
        )
        assert code == 0
        payload = json.loads(manifest.read_text())
        assert payload["shard_count"] == 2
        assert set(payload["documents"]) == {"a", "b", "c"}
        assert json.loads(capsys.readouterr().out) == payload

    def test_cli_reports_errors(self, tmp_path, capsys):
        from repro.ingest import main

        code = main([str(tmp_path / "missing.xml")])
        assert code == 1
        assert "ingest failed" in capsys.readouterr().err
