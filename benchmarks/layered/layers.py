"""The traced run: where a ``POST /search`` spends its time, layer by layer.

A quarter of the workload's request stream is replayed on identical
inputs at successive depths — d0 loopback HTTP, d1 ``SearchAPI`` called
as an ASGI app, d2 ``await SearchServer.search``, d3
``engine.search_detailed`` in the calling thread — one span per call.  A
layer's self time is ``median(d_k) - median(d_k+1)``, so the layers sum
to d0 by construction and what the engine's own phase ledger does not
explain is reported as ``core.engine.unattributed_ms``.  Counters are
read around the first d0 pass only (a fixed number of requests), so
count-valued metrics repeat exactly at a seed whatever ``--seconds`` is.

Spans are recorded from here, around the calls into each layer; spans
inside the program are a later change.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import adapter
from client import http_call, percentile

#: Share of ``--seconds`` spent replaying depths; the fixed-size probes
#: after it take what they take.
DEPTH_SHARE = 0.6
HEALTH_PINGS = 200
EDIT_PROBE_ROUNDS = 40
PROBE_REQUESTS = 40

SPAN_NAMES = {
    "d0": "serving.http.wire",
    "d1": "serving.http.app",
    "d2": "serving.server",
    "d3": "core.engine",
}
_PARENT = {"d1": "d0", "d2": "d1", "d3": "d2"}


def _ms(samples) -> float:
    return statistics.median(samples) * 1000.0


def traced_run(session, seconds: float, scratch: Path) -> tuple[dict, list[dict], dict]:
    """``(metrics, spans, sample counts)`` of one traced run."""
    run = _TracedRun(session, scratch)
    replays = run.replay_depths(seconds * DEPTH_SHARE)
    run.layer_ledger()
    run.wire_and_counters()
    run.direct_probes()
    if session.workload.edits:
        run.edit_probe()
    metrics = run.metrics
    metrics["core.snapshot.loads"] = run.snapshot_traffic["snapshot_loads"]
    metrics["core.snapshot.saves"] = run.snapshot_traffic["snapshot_saves"]
    metrics["harness.layers_unavailable"] = len(run.unavailable)
    samples = {
        "depth_replays": replays,
        "requests_per_replay": len(run.requests),
        "spans": len(run.spans),
        "layers_unavailable": ", ".join(run.unavailable) or "none",
    }
    return metrics, run.spans, samples


class _TracedRun:
    def __init__(self, session, scratch: Path):
        self.session = session
        self.deployment = session.deployment
        self.workload = session.workload
        self.scratch = scratch
        stream = self.workload.requests
        self.requests = stream[: max(20, len(stream) // 4)]
        self.metrics: dict = {}
        self.unavailable: list[str] = []
        self.spans: list[dict] = []
        self.durations: dict[str, list[float]] = {
            depth: [] for depth in ("client", "d0", "d1", "d2", "d3")
        }
        self.wire = {"queue_wait": [], "service_time": [], "overhead": [], "bytes": []}
        self.outcomes: list = []
        #: Counter deltas over the first d0 pass (a fixed request count).
        self.window: dict = {}
        self.snapshot_traffic = {"snapshot_loads": 0, "snapshot_saves": 0}

    def probe(self, names: list[str], function) -> None:
        self.metrics.update(adapter.guarded(names, function, self.unavailable))

    def record(self, depth: str, rep: int, index: int, started: float, ended: float, **extra):
        self.spans.append(
            {
                "name": SPAN_NAMES[depth],
                "request": f"{rep}:{index}",
                "start": started,
                "end": ended,
                "parent": SPAN_NAMES.get(_PARENT.get(depth)),
                **extra,
            }
        )

    def counter_window(self, before: dict) -> dict:
        after = self.deployment.counters()
        window = {key: after[key] - before.get(key, 0) for key in after}
        for key in self.snapshot_traffic:
            self.snapshot_traffic[key] += window.get(key, 0)
        if "cache_bytes" in after:
            window["cache_bytes"] = after["cache_bytes"]  # a gauge, not a counter
        return window

    # -- the depth replays -------------------------------------------------------

    def replay_depths(self, budget: float) -> int:
        session, requests = self.session, self.requests
        indices = range(len(requests))
        try:
            runner = adapter.DepthRunner(self.deployment)
        except adapter.MISSING as exc:
            print(f"depths d1/d2 unavailable: {exc!r}")
            runner = None
            self.unavailable += ["serving.http.wire_self_ms", "serving.http.app_self_ms",
                                 "serving.server.self_ms"]
        rep = 0
        deadline = time.perf_counter() + budget
        try:
            while rep == 0 or time.perf_counter() < deadline:
                # The untraced client, exactly as phase A sends: what the
                # traced d0 below is compared against.
                for index in indices:
                    reply, _document = session.search(index)
                    self.durations["client"].append(reply.latency)
                if rep == 0:
                    rejected = _stats(session)["requests"]["rejected_total"]
                    before = self.deployment.counters()
                for index in indices:
                    reply, document = session.search(index)
                    self.durations["d0"].append(reply.latency)
                    self.record("d0", rep, index, reply.started,
                                reply.started + reply.latency, bytes=len(reply.raw))
                    if document is not None:
                        serving = document["serving"]
                        self.wire["queue_wait"].append(serving["queue_wait"])
                        self.wire["service_time"].append(serving["service_time"])
                        self.wire["overhead"].append(reply.latency - serving["latency"])
                        self.wire["bytes"].append(len(reply.raw))
                if rep == 0:
                    self.window = self.counter_window(before)
                    self.window["rejected"] = (
                        _stats(session)["requests"]["rejected_total"] - rejected
                    )
                if runner is not None:
                    for index, (started, ended, status, body) in zip(indices, runner.d1(requests)):
                        self.durations["d1"].append(ended - started)
                        self.record("d1", rep, index, started, ended)
                        session.count_reply(index, status, body)
                    for index, (started, ended, wait, service) in zip(indices, runner.d2(requests)):
                        self.durations["d2"].append(ended - started)
                        self.record("d2", rep, index, started, ended,
                                    queue_wait=wait, service_time=service)
                for index, (started, ended, outcome) in zip(
                    indices, adapter.replay_engine(self.deployment, requests)
                ):
                    self.durations["d3"].append(ended - started)
                    self.record("d3", rep, index, started, ended)
                    self.outcomes.append(outcome)
                rep += 1
        finally:
            if runner is not None:
                runner.close()
        return rep

    # -- what the replays say ----------------------------------------------------

    def layer_ledger(self) -> None:
        """Self time per layer: each depth's median minus the next one's."""
        metrics = self.metrics
        depth = {name: _ms(samples) for name, samples in self.durations.items() if samples}
        d0, d3 = depth["d0"], depth["d3"]
        metrics["client.traced_search_p50_ms"] = d0
        metrics["harness.trace_delta_ms"] = d0 - depth["client"]
        if "d1" in depth:
            metrics["serving.http.wire_self_ms"] = d0 - depth["d1"]
            metrics["serving.http.app_self_ms"] = depth["d1"] - depth["d2"]
            metrics["serving.server.self_ms"] = depth["d2"] - d3
        else:
            metrics.update(dict.fromkeys(
                ["serving.http.wire_self_ms", "serving.http.app_self_ms", "serving.server.self_ms"]
            ))
        self.probe(
            [f"core.engine.{phase}_ms"
             for phase in ("total", "qpt", "pdt_skeleton", "pdt_postings", "pdt_other",
                           "evaluator", "post_processing")],
            lambda: adapter.phase_ms(self.outcomes),
        )
        total = metrics["core.engine.total_ms"]
        metrics["core.engine.unattributed_ms"] = None if total is None else d3 - total
        metrics["harness.http_over_engine_x"] = None if not total else d0 / total
        if self.workload.deployment == "sharded":
            self.probe(
                [f"core.sharding.{name}"
                 for name in ("coordinator_ms", "shard_busy_sum_ms", "overhead_ms", "serial_ms",
                              "collect_max_ms", "merge_candidates_per_query",
                              "merge_consumed_per_query", "merge_pruned_per_query")],
                lambda: adapter.probe_sharding(
                    self.deployment, self.requests[:PROBE_REQUESTS], d3),
            )

    def wire_and_counters(self) -> None:
        """What the responses and ``/stats`` report, and the counter
        deltas of the first d0 pass."""
        metrics, wire, window = self.metrics, self.wire, self.window
        count = len(self.requests)
        metrics["serving.http.response_bytes_mean"] = statistics.mean(wire["bytes"])
        metrics["serving.http.overhead_p50_ms"] = _ms(wire["overhead"])
        metrics["serving.server.queue_wait_p50_us"] = statistics.median(wire["queue_wait"]) * 1e6
        metrics["serving.server.queue_wait_p95_us"] = percentile(wire["queue_wait"], 0.95) * 1e6
        metrics["serving.server.service_time_p50_ms"] = _ms(wire["service_time"])
        metrics["serving.admission.rejected"] = window["rejected"]
        pings = [
            http_call(self.session.address, "GET", "/health").latency
            for _ in range(HEALTH_PINGS)
        ]
        metrics["serving.http.health_rtt_us"] = statistics.median(pings) * 1e6

        def counted(name: str, *keys: str, per_query: bool = False) -> None:
            # Unavailable when the program no longer keeps a counter.
            if not all(key in window for key in keys):
                self.unavailable.append(name)
                metrics[name] = None
            elif len(keys) == 2:  # hits, misses -> hit rate
                hits, lookups = window[keys[0]], window[keys[0]] + window[keys[1]]
                metrics[name] = hits / lookups if lookups else 0.0
            else:
                metrics[name] = window[keys[0]] / count if per_query else window[keys[0]]

        for tier in ("prepared", "skeleton", "pdt", "evaluated"):
            counted(f"core.cache.{tier}.hit_rate", f"{tier}.hits", f"{tier}.misses")
        counted("core.cache.skeleton.evictions", "skeleton.evictions")
        counted("core.cache.pdt.evictions", "pdt.evictions")
        counted("core.cache.memory_bytes", "cache_bytes")
        counted("storage.path_index.probes_per_query", "path_probes", per_query=True)
        counted("storage.inverted_index.probes_per_query", "inverted_probes", per_query=True)
        counted("storage.document_store.accesses_per_query", "store_accesses", per_query=True)

    # -- fixed-size probes below the engine's entry point -------------------------

    def direct_probes(self) -> None:
        requests = self.requests[:PROBE_REQUESTS]
        self.probe(["xmlmodel.serialize_us_per_result"],
                   lambda: adapter.probe_serialize(self.outcomes[: len(self.requests)]))
        self.probe(["core.engine.collect_statistics_ms", "core.scoring.rank_us"],
                   lambda: adapter.probe_statistics(self.deployment, requests))
        self.probe(
            ["core.pdt.build_skeleton_us", "core.pdt.annotate_us", "core.pdt.skeleton_nodes_mean",
             "core.snapshot.save_us", "core.snapshot.load_eager_us",
             "core.snapshot.load_mmap_us", "core.snapshot.bytes_mean"],
            lambda: adapter.probe_pdt(self.deployment, requests, self.scratch),
        )
        self.probe(["storage.index_ms_per_mib", "storage.bytes_indexed", "core.qpt.define_view_ms"],
                   lambda: adapter.probe_storage(self.deployment))

    def edit_probe(self) -> None:
        """``EDIT_PROBE_ROUNDS`` rounds of one edit and four searches, then
        the same edits on a hook-free copy: what the engine's delta hooks
        and re-warm add to the storage splice."""
        session, metrics = self.session, self.metrics
        before = self.deployment.counters()
        edits, post_edit = [], []
        for round_number in range(EDIT_PROBE_ROUNDS):
            edits.append(session.edit())
            reply, _document = session.search(round_number * 4)
            post_edit.append(reply.latency)
            for offset in range(1, 4):
                session.search(round_number * 4 + offset)
        self.counter_window(before)
        metrics["client.edit_p50_ms"] = _ms(edits)
        metrics["client.post_edit_search_p50_ms"] = _ms(post_edit)
        applied = self.workload.edits[: session.edits_done]
        self.probe(["storage.update.apply_ms"],
                   lambda: adapter.probe_update_apply(self.deployment, applied))
        apply_ms = metrics["storage.update.apply_ms"]
        metrics["core.engine.delta_hook_ms"] = (
            None if apply_ms is None else metrics["client.edit_p50_ms"] - apply_ms
        )


def _stats(session) -> dict:
    return json.loads(http_call(session.address, "GET", "/stats").raw)
