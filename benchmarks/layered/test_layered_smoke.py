"""Smoke test of the layered benchmark (tier-1; a few seconds).

Drives the real command line on the smallest workload with a sub-second
measurement window: names match ``BENCHMARK.json``, the layer ledger
sums, and a seed pins the inputs and every count the run reports.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name: str):
    """A benchmark module under a private name (nothing generic such as
    ``run`` or ``client`` is left in ``sys.modules`` for other tests)."""
    spec = importlib.util.spec_from_file_location(f"layered_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run(*args: str):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of one seed: (contract result, full report) each."""
    runs = []
    for attempt in range(2):
        out = tmp_path_factory.mktemp("layered") / f"traced-{attempt}.json"
        completed = _run("--workload", "warm_point", "--seed", "7", "--seconds", "0.5",
                         "--trace", "1", "--out", str(out))
        report = json.loads(out.read_text())["workloads"]["warm_point"]
        runs.append((_result(completed), report))
    return runs


def test_end_to_end_names_match_benchmark_json():
    result = _result(_run("--workload", "warm_point", "--seed", "7",
                          "--seconds", "0.5", "--trace", "0"))
    expected = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_per_layer_names_match_benchmark_json(traced):
    result, report = traced[0]
    expected = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert set(report["per_layer"]) == set(expected)
    assert report["per_layer"]["harness.layers_unavailable"] == 0
    spans = [json.loads(line) for line in (ROOT / report["trace_file"]).read_text().splitlines()]
    assert {"name", "start", "end", "parent", "request"} <= set(spans[0])
    assert {span["name"] for span in spans} == {
        "serving.http.wire", "serving.http.app", "serving.server", "core.engine"
    }


def test_layer_self_times_sum_to_the_client_latency(traced):
    layers = traced[0][1]["per_layer"]
    ledger = sum(
        layers[name]
        for name in ("serving.http.wire_self_ms", "serving.http.app_self_ms",
                     "serving.server.self_ms", "core.engine.total_ms",
                     "core.engine.unattributed_ms")
    )
    assert ledger == pytest.approx(layers["client.traced_search_p50_ms"], rel=1e-9)
    # What the engine's own phase ledger does not explain stays small
    # (the absolute floor keeps a faster engine from failing this).
    assert layers["core.engine.unattributed_ms"] <= max(
        0.1 * layers["core.engine.total_ms"], 0.05
    )


def test_a_seed_pins_the_inputs_digests_and_counts(traced):
    (_, first), (_, second) = traced
    assert first["digest"] == second["digest"]
    assert first["stream_digest"] == second["stream_digest"]
    for entry in SPEC["per_layer"]:
        if entry["unit"] == "count":
            name = entry["name"]
            assert first["per_layer"][name] == second["per_layer"][name], name


def test_workloads_are_the_ones_benchmark_json_names_and_follow_the_seed():
    workloads = _load("workloads")
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    for name in workloads.WORKLOADS:
        again = workloads.generate(name, 7).stream_digest_input()
        assert workloads.generate(name, 7).stream_digest_input() == again
        assert workloads.generate(name, 8).stream_digest_input() != again
    cold, sharded = (workloads.generate(n, 7) for n in ("cold_corpus", "sharded_fanout"))
    assert (cold.documents, cold.requests) == (sharded.documents, sharded.requests)


def test_compare_verdicts():
    compare = _load("compare")
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def verdict(b, better="lower", a=steady):
        return compare.verdict(a, b, better, 0.1)[0]

    assert verdict([v + 0.02 for v in steady]) == "within_bound"
    assert verdict([v + 0.2 for v in steady]) == "regressed"
    assert verdict([v - 0.1 for v in steady]) == "improved"
    assert verdict([v + 0.2 for v in steady], better="higher") == "improved"
    assert verdict([v - 0.1 for v in steady[:4]]) == "within_bound"  # too few pairs to claim
    assert verdict(steady, a=[0.8, 1.0, 1.2, 1.4]) == "unresolved"


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload", "warm_point",
         "--seed", "7", "--seconds", "0.5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
