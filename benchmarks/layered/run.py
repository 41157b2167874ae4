"""Layered end-to-end benchmark: ``POST /search`` over loopback, five workloads.

One workload, as the driver runs it (the last stdout line is the result)::

    python3 benchmarks/layered/run.py --workload warm_point --seed 7 \\
        --seconds 15 --trace 0

Every workload, each in a fresh interpreter, with the cross-workload
digest check and one report file (``--traced`` adds the per-layer run)::

    python3 benchmarks/layered/run.py [--seed N] [--traced] [--out PATH]

The system under test runs in this process (``BackgroundHTTPServing`` on
a background thread) and is driven closed-loop over a real socket by
``http.client``: phase A is one client for latency, phase B two client
threads for throughput.  See README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from client import Session, percentile  # noqa: E402

SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
OUT_DIR = HERE / "out"
GOLDEN_PATH = HERE / "golden.json"

SETUP_REPEATS_MIN, SETUP_REPEATS_MAX = 3, 9
SETUP_REPEAT_BUDGET_S = 1.5  # cheap set-ups are repeated until this is spent
#: The calibration kernel is timed between segments of phase A at least
#: this long, and around every phase-B block and every set-up.
SEGMENT_SECONDS = 0.5
SEGMENT_MIN_REQUESTS = 20
#: Gated durations are reported as on a machine where the calibration
#: kernel takes this long (what it takes on the box it was sized on).
CALIB_REFERENCE_MS = 50.0
PHASE_A_SHARE = 0.6  # of --seconds; phase B takes the rest
CLIENT_THREADS = 2
CALIB_DRIFT_BAND = (0.9, 1.1)

#: Metrics (and units) reported beside BENCHMARK.json's: the raw client
#: readings (``client.*``; the gated ones are at reference speed) and the
#: per-layer metrics that exist on one workload only — the scatter-gather
#: layer on ``sharded_fanout``, the write path on ``edit_mix``.
UNGATED = {
    "core.sharding.coordinator_ms": "ms",
    "core.sharding.shard_busy_sum_ms": "ms",
    "core.sharding.overhead_ms": "ms",
    "core.sharding.serial_ms": "ms",
    "core.sharding.collect_max_ms": "ms",
    "core.sharding.merge_candidates_per_query": "count",
    "core.sharding.merge_consumed_per_query": "count",
    "core.sharding.merge_pruned_per_query": "count",
    "client.setup_s": "s",
    "client.search_p50_ms": "ms",
    "client.search_mean_ms": "ms",
    "client.search_p95_ms": "ms",
    "client.search_p99_ms": "ms",
    "client.search_qps": "1/s",
    "client.edit_p50_ms": "ms",
    "client.post_edit_search_p50_ms": "ms",
    "harness.kernel_p50_ms": "ms",
    "storage.update.apply_ms": "ms",
    "core.engine.delta_hook_ms": "ms",
}


# -- the two measured phases ------------------------------------------------------


class Segment(NamedTuple):
    """Consecutive measurements and how fast the machine was meanwhile:
    the mean of the calibration kernel timed just before and just after."""

    samples: list[float]
    kernel_ms: float

    def at_reference_speed(self, value: float) -> float:
        """A duration rescaled to a machine on which the calibration
        kernel takes ``CALIB_REFERENCE_MS`` (see README, *Steadiness*)."""
        return value * CALIB_REFERENCE_MS / self.kernel_ms


def phase_a(session: Session, budget: float) -> dict:
    """One closed-loop client: latency per search (and per edit).

    The calibration kernel runs between segments of at least
    ``SEGMENT_SECONDS`` and ``SEGMENT_MIN_REQUESTS`` requests.
    """
    workload = session.workload
    segments: list[Segment] = []
    post_edit, edits = [], []
    cursor, since_edit, fresh = 0, 0, False
    kernel = calibrate.kernel_ms()
    current: list[float] = []
    segment_started = time.perf_counter()
    deadline = segment_started + budget
    while time.perf_counter() < deadline:
        reply, _document = session.search(cursor)
        cursor += 1
        current.append(reply.latency)
        if fresh:
            post_edit.append(reply.latency)
            fresh = False
        since_edit += 1
        if workload.edits and since_edit == workload.searches_per_edit:
            edits.append(session.edit())
            since_edit, fresh = 0, True
        if (
            len(current) >= SEGMENT_MIN_REQUESTS
            and time.perf_counter() - segment_started >= SEGMENT_SECONDS
        ):
            after = calibrate.kernel_ms()
            segments.append(Segment(current, (kernel + after) / 2))
            kernel, current, segment_started = after, [], time.perf_counter()
    if current:
        segments.append(Segment(current, (kernel + calibrate.kernel_ms()) / 2))
    return {"segments": segments, "post_edit": post_edit, "edits": edits}


def phase_b(session: Session, budget: float) -> list[Segment]:
    """Two closed-loop clients: correct searches per second, per block,
    with the calibration kernel timed around every block.

    A block is ``block_rounds`` rounds; in a round each client sends
    ``block_requests`` requests and then, in an edit workload, the main
    thread applies one edit while no request is in flight (the engine is
    edited in place).  An edit workload's block spans one full cycle of
    its edit kinds, so every block does the same work.
    """
    workload = session.workload
    per_client = workload.block_requests
    blocks: list[Segment] = []
    cursor = 0
    kernel = calibrate.kernel_ms()
    deadline = time.perf_counter() + budget

    def client(slot: int, first: int, correct: list[int]) -> None:
        for offset in range(per_client):
            _reply, document = session.search(first + offset * CLIENT_THREADS)
            correct[slot] += document is not None

    while time.perf_counter() < deadline:
        correct = [0] * CLIENT_THREADS
        started = time.perf_counter()
        for _round in range(workload.block_rounds):
            threads = [
                threading.Thread(target=client, args=(slot, cursor + slot, correct))
                for slot in range(CLIENT_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if workload.edits:
                session.edit()
            cursor += per_client * CLIENT_THREADS
        rate = sum(correct) / (time.perf_counter() - started)
        after = calibrate.kernel_ms()
        blocks.append(Segment([rate], (kernel + after) / 2))
        kernel = after
    return blocks


# -- one workload -----------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Keep client, server and every engine thread on one CPU.

    Under one GIL a second core buys no parallel Python, only cross-core
    wake-ups and lock convoys whose cost depends on where the scheduler
    happened to place each thread at launch: unpinned, the same commit
    measured 0.97 to 1.86 ms warm p50 across launches and half the
    two-client throughput.  Pinned, launches agree.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def set_up(name: str, seed: int, scratch: Path, repeat: bool):
    """Generate, index, define, warm and bind; the last deployment is the
    one measured.  With ``repeat`` the set-up is timed at least
    ``SETUP_REPEATS_MIN`` times and, while it is cheap, up to
    ``SETUP_REPEATS_MAX`` times, the calibration kernel around each."""
    import adapter

    setups: list[Segment] = []
    spent = 0.0
    kernel = calibrate.kernel_ms()
    while True:
        started = time.perf_counter()
        workload = workloads.generate(name, seed)
        deployment = adapter.Deployment(workload, scratch / f"setup-{len(setups)}")
        seconds = time.perf_counter() - started
        after = calibrate.kernel_ms()
        setups.append(Segment([seconds], (kernel + after) / 2))
        kernel, spent = after, spent + seconds
        if not repeat or len(setups) >= SETUP_REPEATS_MAX or (
            len(setups) >= SETUP_REPEATS_MIN and spent >= SETUP_REPEAT_BUDGET_S
        ):
            return workload, deployment, setups
        deployment.close()
        del deployment, workload
        gc.collect()


def measure_end_to_end(session: Session, seconds: float, setups: list[Segment]) -> dict:
    """Phases A and B: the gated metrics, the raw client readings beside
    them, and the sample counts behind both."""
    measured = phase_a(session, seconds * PHASE_A_SHARE)
    blocks = phase_b(session, seconds * (1 - PHASE_A_SHARE))
    segments = measured["segments"]
    searches = [sample for segment in segments for sample in segment.samples]
    workload = session.workload
    # Gated times are medians over segments, each rescaled by the
    # calibration kernel timed around it; a rate scales the other way.
    end_to_end = {
        "setup_s": statistics.median(s.at_reference_speed(s.samples[0]) for s in setups),
        "search_p50_ms": 1000.0 * statistics.median(
            s.at_reference_speed(statistics.median(s.samples)) for s in segments
        ),
        "search_mean_ms": 1000.0 * statistics.median(
            s.at_reference_speed(statistics.mean(s.samples)) for s in segments
        ),
        "search_qps": statistics.median(
            b.samples[0] * b.kernel_ms / CALIB_REFERENCE_MS for b in blocks
        ),
        "rss_peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    client = {
        "client.setup_s": statistics.median(s.samples[0] for s in setups),
        "client.search_p50_ms": statistics.median(searches) * 1000.0,
        "client.search_mean_ms": statistics.mean(searches) * 1000.0,
        "client.search_p95_ms": percentile(searches, 0.95) * 1000.0,
        "client.search_p99_ms": percentile(searches, 0.99) * 1000.0,
        "client.search_qps": statistics.median(b.samples[0] for b in blocks),
        "harness.kernel_p50_ms": statistics.median(s.kernel_ms for s in segments + blocks),
    }
    if measured["edits"]:
        client["client.edit_p50_ms"] = statistics.median(measured["edits"]) * 1000.0
        client["client.post_edit_search_p50_ms"] = (
            statistics.median(measured["post_edit"]) * 1000.0
        )
    samples = {
        "phase_a_searches": len(searches),
        "phase_a_segments": len(segments),
        "phase_a_edits": len(measured["edits"]),
        "phase_b_blocks": len(blocks),
        "phase_b_block_requests": (
            workload.block_requests * CLIENT_THREADS * workload.block_rounds
        ),
        "setup_repeats": len(setups),
    }
    return {"end_to_end": end_to_end, "client": client, "samples": samples}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    calib_before = calibrate.calibrate()
    deployment = None
    try:
        workload, deployment, setups = set_up(name, seed, scratch, repeat=not trace)
        session = Session(deployment, workload)
        session.prime()
        report: dict = {"seed": seed, "seconds": seconds}
        if trace:
            import layers

            report["per_layer"], spans, report["samples"] = layers.traced_run(
                session, seconds, scratch
            )
            trace_path = OUT_DIR / f"trace-{name}.jsonl"
            with trace_path.open("w") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")
            report["trace_file"] = str(trace_path.relative_to(HERE.parents[1]))
        else:
            report.update(measure_end_to_end(session, seconds, setups))
        session.verify_sample()
        digest = session.digest.hexdigest()
        if seed == workloads.DEFAULT_SEED:
            golden = json.loads(GOLDEN_PATH.read_text())[name]
            session.count(
                None if digest == golden
                else f"digest {digest} differs from golden.json's {golden}"
            )
        calib_after = calibrate.calibrate()
        calib = {
            "harness.calib_ms": min(calib_before, calib_after),
            "harness.calib_drift": calib_after / calib_before,
        }
        if trace:
            report["per_layer"].update(calib)
        low, high = CALIB_DRIFT_BAND
        report.update(
            digest=digest,
            stream_digest=hashlib.sha256(workload.stream_digest_input()).hexdigest(),
            attempted=session.attempted,
            failed=session.failed,
            failures=session.failures,
            calib=calib,
            noisy=not low <= calib["harness.calib_drift"] <= high,
        )
        return report
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(scratch, ignore_errors=True)


# -- output -----------------------------------------------------------------------


def contract_line(spec: dict, report: dict, trace: bool) -> str:
    """The driver's result object: exactly the metrics BENCHMARK.json
    names for this mode, each a number with its unit."""
    section = "per_layer" if trace else "end_to_end"
    values = report[section]
    metrics = {}
    for entry in spec[section]:
        value = values.get(entry["name"])
        # A per-layer metric whose probe found its internals gone reads
        # 0 here; the report lists which (``layers_unavailable``).
        metrics[entry["name"]] = {"value": 0.0 if value is None else value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def print_report(spec: dict, name: str, report: dict) -> None:
    flag = "  [noisy: calibration drifted]" if report["noisy"] else ""
    print(f"== {name}  seed={report['seed']}  seconds={report['seconds']}{flag}")
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    units.update(UNGATED)
    # Every latency also as a multiple of the calibration kernel: gated
    # metrics are already at the reference speed, the rest are raw.
    sections = [(report.get("end_to_end", {}), CALIB_REFERENCE_MS)]
    raw = {**report.get("per_layer", {}), **report.get("client", {})}
    sections.append((raw, report["calib"]["harness.calib_ms"]))
    for values, calib_ms in sections:
        for metric, value in values.items():
            if value is None:
                print(f"  {metric:<44} {'n/a':>14}")
                continue
            line = f"  {metric:<44} {value:>14.4f} {units[metric]}"
            if units[metric] == "ms":
                line += f"   = {value / calib_ms:8.4f} x calib"
            print(line)
    for key, value in report["samples"].items():
        print(f"  samples.{key:<36} {value:>14}")
    print(f"  failed_share {report['failed']}/{report['attempted']}  digest {report['digest'][:16]}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def run_all(spec: dict, args) -> int:
    """Every workload in a fresh interpreter (so ``rss_peak_mib`` is its
    own), then the cross-workload check and the combined report."""
    combined = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    OUT_DIR.mkdir(exist_ok=True)
    status = 0
    for name in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1) if args.traced else (0,):
            part = OUT_DIR / f"part-{name}-{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(part),
            ]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(completed.stdout.splitlines(keepends=True)[:-1]))
            status = status or completed.returncode
            if not part.exists():
                continue
            report = json.loads(part.read_text())["workloads"][name]
            part.unlink()
            if trace:
                # Beside the untraced report: the layers, and the traced
                # run's own bookkeeping under one key.
                merged = combined["workloads"][name]
                merged["per_layer"] = report.pop("per_layer")
                merged["traced"] = report
            else:
                combined["workloads"][name] = report
    digests = {name: report["digest"] for name, report in combined["workloads"].items()}
    if digests.get("sharded_fanout") != digests.get("cold_corpus"):
        print("FAILED: sharded_fanout's digest differs from cold_corpus's")
        status = status or 1
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.write_text(json.dumps(combined, indent=1, sort_keys=True))
    print(f"report written to {out}")
    return status


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: also make the per-layer run")
    parser.add_argument("--out", help="write the full report (JSON) here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(spec, args)
    trace = bool(args.trace)
    report = run_workload(args.workload, args.seed, args.seconds, trace)
    print_report(spec, args.workload, report)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"seed": args.seed, "workloads": {args.workload: report}},
                       indent=1, sort_keys=True)
        )
    print(contract_line(spec, report, trace))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
