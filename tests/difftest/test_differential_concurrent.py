"""Differential equivalence *under interleaved traffic*.

The single-caller harness (``test_differential.py``) proves each cache
configuration equals the naive baseline per call.  These tests prove
the property the serving layer actually needs: N async clients issuing
queries through :class:`SearchServer` — racing document reloads, drops
and view redefinitions — still produce ranked output identical to the
synchronous naive baseline.

Two regimes:

* **benign churn** — mutations that are semantic no-ops (redefine with
  the same text, drop + reload identical content) run *concurrently*
  with the clients.  Ground truth never changes, so every successful
  response must match it exactly; a request that lands inside a
  drop/reload gap may fail with the typed storage/stale errors the
  synchronous API raises, and nothing else.
* **phased real mutations** — between query bursts the database and
  view genuinely change (fresh document content, a different view
  predicate); the naive baseline is recomputed after each mutation and
  the next concurrent burst must match the *new* truth, proving
  invalidation is correct while the server and its cache stay warm
  across the mutation.
"""

from __future__ import annotations

import asyncio
import random
import re

import pytest

from repro.baselines.naive import BaselineEngine
from repro.core.engine import KeywordSearchEngine
from repro.errors import DocumentNotFoundError, StaleViewError
from repro.serving import Overloaded, SearchServer, ServerConfig
from repro.xmlmodel.serializer import serialize

from difftest.generators import generate_case
from difftest.harness import assert_outcomes_equivalent

TOP_K = 10


def run_async(coro, timeout: float = 180.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def baseline_expectations(db, view_text, keyword_sets):
    """Synchronous naive ground truth for every (keywords, mode) pair."""
    baseline = BaselineEngine(db)
    bview = baseline.define_view("truth", view_text)
    return {
        (kws, conjunctive): baseline.search_detailed(
            bview, kws, TOP_K, conjunctive
        )
        for kws in keyword_sets
        for conjunctive in (True, False)
    }


def generous_config(**overrides):
    defaults = dict(
        max_queue_depth=256,
        max_inflight_per_view=256,
        workers=6,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


@pytest.mark.asyncio_stress
@pytest.mark.parametrize("seed,shape", [(21, "join"), (22, "starjoin")])
def test_async_clients_match_baseline_under_benign_churn(seed, shape):
    case = generate_case(seed, shape=shape)
    db = case.database
    # Snapshot every document's canonical XML before churn starts so
    # reloads are byte-identical (fresh generation, same content).
    originals = {
        name: serialize(db.get(name).root) for name in db.document_names()
    }
    expected = baseline_expectations(db, case.view_text, case.keyword_sets)
    engine = KeywordSearchEngine(db)
    engine.define_view("v", case.view_text)

    async def client(server, client_id, tally):
        rng = random.Random(f"{seed}-client-{client_id}")
        for _ in range(12):
            kws = rng.choice(case.keyword_sets)
            conjunctive = rng.random() < 0.5
            try:
                response = await server.search(
                    "v", kws, TOP_K, conjunctive
                )
            except (DocumentNotFoundError, StaleViewError):
                # The request landed inside a drop/reload gap — the
                # typed unavailability the synchronous API also raises.
                tally["unavailable"] += 1
                continue
            assert not isinstance(response, Overloaded), response
            assert_outcomes_equivalent(
                response.outcome,
                expected[(kws, conjunctive)],
                kws,
                f"seed={seed} client={client_id} kw={kws} conj={conjunctive}",
            )
            tally["served"] += 1

    async def churn(server, stop):
        rng = random.Random(f"{seed}-churn")
        while not stop.is_set():
            roll = rng.random()
            if roll < 0.5:
                # Semantic no-op redefinition: swaps QPT identities and
                # invalidates the skeleton/PDT/evaluated tiers mid-flight.
                engine.define_view("v", case.view_text)
            else:
                name = rng.choice(sorted(originals))
                db.drop_document(name)
                db.load_document(name, originals[name])
            await asyncio.sleep(0.002)

    async def scenario():
        async with SearchServer(engine, generous_config()) as server:
            tally = {"served": 0, "unavailable": 0}
            stop = asyncio.Event()
            churner = asyncio.ensure_future(churn(server, stop))
            await asyncio.gather(
                *[client(server, c, tally) for c in range(6)]
            )
            stop.set()
            await churner
            # The point of the exercise: correctness held while real
            # traffic was served across invalidation storms.
            assert tally["served"] > 0
            total = tally["served"] + tally["unavailable"]
            assert total == 6 * 12

    run_async(scenario())


def _bump_year(view_text: str, rng: random.Random) -> str:
    """A genuinely different view: new selection predicate."""
    return re.sub(
        r"year > \d+", f"year > {rng.randint(1988, 2005)}", view_text, count=1
    )


@pytest.mark.asyncio_stress
@pytest.mark.parametrize("seed,shape", [(31, "join"), (32, "chainjoin")])
def test_phased_mutations_concurrent_bursts_track_new_truth(seed, shape):
    case = generate_case(seed, shape=shape)
    db = case.database
    engine = KeywordSearchEngine(db)
    engine.define_view("v", case.view_text)
    rng = random.Random(f"{seed}-mutate")
    item_count = rng.randint(15, 40)  # independent of the case's count

    async def burst(server, expected, round_no):
        async def client(client_id):
            crng = random.Random(f"{seed}-{round_no}-{client_id}")
            for _ in range(5):
                kws = crng.choice(case.keyword_sets)
                conjunctive = crng.random() < 0.5
                response = await server.search("v", kws, TOP_K, conjunctive)
                assert not isinstance(response, Overloaded), response
                assert_outcomes_equivalent(
                    response.outcome,
                    expected[(kws, conjunctive)],
                    kws,
                    f"seed={seed} round={round_no} kw={kws} "
                    f"conj={conjunctive}",
                )

        await asyncio.gather(*[client(c) for c in range(6)])

    async def scenario():
        from difftest.generators import _generate_items_doc

        view_text = case.view_text
        async with SearchServer(engine, generous_config()) as server:
            for round_no in range(4):
                if round_no > 0:
                    # Mutate for real: the database's content or the
                    # view definition changes, and the warm server must
                    # track the new truth through its caches.
                    if round_no % 2 == 1:
                        db.drop_document("items.xml")
                        db.load_document(
                            "items.xml",
                            _generate_items_doc(
                                random.Random(f"{seed}-round-{round_no}"), item_count
                            ),
                        )
                    else:
                        view_text = _bump_year(view_text, rng)
                        engine.define_view("v", view_text)
                expected = baseline_expectations(
                    db, view_text, case.keyword_sets
                )
                await burst(server, expected, round_no)

    run_async(scenario())
