"""X9 (extension): sub-document updates — delta maintenance vs the storm.

Not a paper figure — this locks down the write path the way bench_x8
locks down the scatter-gather layer.  Two engines share one INEX
database (see ``repro.bench.experiments.measure_updates``):

* **delta** — the default engine: a subtree edit emits a typed
  :class:`~repro.storage.update.DocumentDelta`, patchable skeletons are
  migrated across the generation bump and patched in place, and the view
  is re-warmed — the next query runs off surviving cache tiers;
* **storm** — the update hook detached: the same edit silently
  strands every generation-keyed cache entry, so the next query pays the
  full cold build (probe + skeleton + merge), which is what every write
  used to cost.

``test_small_edit_5x_cheaper_than_invalidation_storm`` is the
self-enforcing acceptance criterion of the updates PR:

* the post-edit query on the delta engine must be **≥ 5x** faster than
  the storm engine's cold rebuild (interleaved minimums, gc paused);
* the survival evidence is asserted deterministically on every attempt
  — counts that repeat exactly, so they hold on any runner: every delta
  round was served from a warm tier with **zero path-index probes**,
  the delta rounds added **zero evaluated-tier misses** (the entry is
  migrated with its skeleton, never re-evaluated), the edited document
  was **never serialized** (its fingerprint is maintained by the edit,
  not recomputed from text), and every storm round was a miss that
  *did* probe.

``edit_ms`` — the edit itself, storage surgery plus the delta hook on a
snapshot store — is reported next to the query times; it has no floor
here (the layered ``edit_mix`` workload gates it end to end).

Ranking correctness after edits is not re-proven here — that is the
difftest ``mutations`` configuration's job (bit-for-bit against
rebuild-from-scratch and the naive baseline); this file owns the
performance claim.
"""

from __future__ import annotations

from repro.bench.experiments import measure_updates

SPEEDUP_FLOOR = 5.0


# -- pytest-benchmark variants (the usual statistics tables) ------------------


def _shared_setup():
    from repro.bench.experiments import KEYWORDS_BY_SELECTIVITY
    from repro.core.engine import KeywordSearchEngine
    from repro.workloads.inex import INEXConfig, generate_inex_database
    from repro.workloads.views import authors_articles_view

    database = generate_inex_database(INEXConfig())
    view_text = authors_articles_view()
    keywords = KEYWORDS_BY_SELECTIVITY["medium"]
    return database, view_text, keywords, KeywordSearchEngine


def test_post_edit_query_delta(benchmark):
    database, view_text, keywords, engine_cls = _shared_setup()
    engine = engine_cls(database)
    view = engine.define_view("v", view_text)
    engine.search(view, keywords, top_k=5)
    root_id = database.get("articles.xml").document.root.dewey
    state = {"inserted": None}

    def edit_then_query():
        if state["inserted"] is None:
            delta = database.insert_subtree(
                "articles.xml", root_id, "<zaux>editorial aside</zaux>"
            )
            state["inserted"] = delta.edit_id
        else:
            database.delete_subtree("articles.xml", state["inserted"])
            state["inserted"] = None
        engine.search(view, keywords, top_k=5)

    edit_then_query()
    benchmark(edit_then_query)


def test_post_edit_query_storm(benchmark):
    database, view_text, keywords, engine_cls = _shared_setup()
    engine = engine_cls(database)
    database.remove_update_hook(engine._on_document_update)
    view = engine.define_view("v", view_text)
    engine.search(view, keywords, top_k=5)
    root_id = database.get("articles.xml").document.root.dewey
    state = {"inserted": None}

    def edit_then_query():
        if state["inserted"] is None:
            delta = database.insert_subtree(
                "articles.xml", root_id, "<zaux>editorial aside</zaux>"
            )
            state["inserted"] = delta.edit_id
        else:
            database.delete_subtree("articles.xml", state["inserted"])
            state["inserted"] = None
        engine.search(view, keywords, top_k=5)

    edit_then_query()
    benchmark(edit_then_query)


# -- self-enforcing acceptance criteria ---------------------------------------


def test_small_edit_5x_cheaper_than_invalidation_storm():
    """Acceptance: after one patchable subtree edit, the delta-maintained
    engine answers ≥ 5x faster than the storm baseline's cold rebuild —
    and the speedup is attributable: warm-tier hits with zero path
    probes on the delta side, misses with real probes on the storm side.

    Up to three measurement attempts: scheduler noise can only *lower* a
    measured ratio, so the criterion passes if any attempt clears the
    floor.  The survival counters are deterministic — they are asserted
    on every attempt, or the delta machinery is broken, not noisy.
    """
    attempts = []
    for _ in range(3):
        numbers = measure_updates()
        rounds = numbers["rounds"]
        assert numbers["delta_warm_rounds"] == rounds, (
            "a post-edit query on the delta engine fell out of the warm "
            f"tiers: {numbers['delta_warm_rounds']:.0f} of {rounds:.0f} "
            "rounds warm"
        )
        assert numbers["delta_path_probes"] == 0, (
            "the delta engine re-probed the path index after a patchable "
            f"edit ({numbers['delta_path_probes']:.0f} probes)"
        )
        assert numbers["delta_evaluated_misses"] == 0, (
            "a patchable edit re-evaluated the view: "
            f"{numbers['delta_evaluated_misses']:.0f} new evaluated-tier "
            "misses over the delta rounds"
        )
        assert numbers["delta_serialized_rounds"] == 0, (
            "an edit serialized the whole document on "
            f"{numbers['delta_serialized_rounds']:.0f} of {rounds:.0f} "
            "rounds (the fingerprint must be maintained, not recomputed)"
        )
        assert numbers["storm_miss_rounds"] == rounds, (
            "the storm baseline unexpectedly kept warm state: "
            f"{numbers['storm_miss_rounds']:.0f} of {rounds:.0f} rounds "
            "were misses"
        )
        assert numbers["storm_path_probes"] > 0, (
            "the storm baseline made no path-index probes — it did not "
            "actually rebuild"
        )
        attempts.append(numbers)
        if numbers["speedup"] >= SPEEDUP_FLOOR:
            return
    summary = ", ".join(
        f"{n['speedup']:.2f}x (delta {n['delta_ms']:.1f} ms / "
        f"storm {n['storm_ms']:.1f} ms, edit {n['edit_ms']:.2f} ms)"
        for n in attempts
    )
    raise AssertionError(
        f"post-edit speedup below the {SPEEDUP_FLOOR}x floor in every "
        f"attempt: {summary}"
    )
