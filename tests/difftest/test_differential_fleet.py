"""Differential fleet configuration: two real processes, peer-to-peer warm.

The acceptance gate for the networked snapshot tier.  A **peer**
process (``fleet_peer.py``) cold-builds a seeded case and serves the
HTTP API; a **cold** fleet member in this process — fresh database of
identical content, empty local snapshot directory — warms *entirely*
over HTTP from that peer and must then:

* report every warm-up target ``"restored"`` with ``fetched`` equal to
  the target count and zero ``fetch_failed``/``fell_back``,
* have performed **zero path-index probes** (the fleet promise: a cold
  process never rebuilds what the fleet already knows), and
* serve ranked output over its own HTTP endpoint **byte-identical**
  (the deterministic ``results`` + ``page`` JSON sections) to a
  single-engine reference server, across the difftest seed matrix,
  keyword sets, both conjunctive modes and a full cursor walk.

The failure half kills the peer mid-warm-up (it hard-exits after one
snapshot serve): the cold member must still start, fall back to local
cold builds for the remaining targets (``fetch_failed`` and
``fell_back`` both non-zero — the counters prove the network path
actually broke), and still serve byte-identical pages.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.snapshot_net import HTTPSnapshotPeer, NetworkedSkeletonStore
from repro.serving import BackgroundHTTPServing, ServerConfig

from difftest.generators import generate_case
from difftest.harness import _check

REPO_ROOT = Path(__file__).resolve().parents[2]


def _seed_matrix() -> tuple[int, ...]:
    raw = os.environ.get("DIFFTEST_SEEDS", "")
    if not raw.strip():
        return (101, 404, 606)
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _path_probes(db) -> int:
    return sum(db.get(n).path_index.probe_count for n in db.document_names())


class PeerProcess:
    """One ``fleet_peer.py`` subprocess; context-managed lifetime."""

    def __init__(self, seed: int, store_dir: Path, shape=None, max_snapshot_requests=None):
        command = [
            sys.executable,
            str(REPO_ROOT / "tests" / "difftest" / "fleet_peer.py"),
            "--seed", str(seed),
            "--store", str(store_dir),
        ]
        if shape is not None:
            command += ["--shape", shape]
        if max_snapshot_requests is not None:
            command += ["--max-snapshot-requests", str(max_snapshot_requests)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            command,
            cwd=REPO_ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.url = f"http://127.0.0.1:{self._await_ready()}"

    def _await_ready(self, timeout: float = 120.0) -> int:
        result: list[str] = []

        def read():
            result.append(self.process.stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if reader.is_alive() or not result or not result[0].startswith("READY"):
            self.process.kill()
            stderr = self.process.stderr.read() if self.process.stderr else ""
            raise AssertionError(
                f"fleet peer did not come up: {result!r}\n{stderr}"
            )
        return int(result[0].split()[1])

    def __enter__(self) -> "PeerProcess":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()  # the shutdown signal
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def _post_search(url: str, payload: dict):
    request = urllib.request.Request(
        url + "/search",
        data=json.dumps(payload).encode(),
        headers={"content-type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _page_bytes(body: dict) -> bytes:
    """The deterministic sections, re-encoded canonically."""
    return json.dumps(
        {"results": body["results"], "page": body["page"]},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()


def _assert_wire_identical(cold_url: str, reference_url: str, case, context: str):
    """Every page of every keyword set, bit-for-bit across both servers."""
    for keywords in case.keyword_sets:
        for conjunctive in (True, False):
            cursor = None
            for _page_index in range(50):  # cursor walks terminate fast
                payload = {
                    "view": "fleet",
                    "keywords": list(keywords),
                    "page_size": 3,
                    "conjunctive": conjunctive,
                }
                if cursor is not None:
                    payload["cursor"] = cursor
                cold = _post_search(cold_url, payload)
                reference = _post_search(reference_url, payload)
                _check(
                    _page_bytes(cold) == _page_bytes(reference),
                    f"{context} kw={keywords} conj={conjunctive}",
                    "fleet-served page diverged from the single engine:\n"
                    f"  cold: {_page_bytes(cold)!r}\n"
                    f"  ref:  {_page_bytes(reference)!r}",
                )
                cursor = cold["page"]["next_cursor"]
                if cursor is None:
                    break
            else:  # pragma: no cover - defensive
                raise AssertionError(f"{context}: cursor walk never ended")


def _reference_serving(case) -> BackgroundHTTPServing:
    engine = KeywordSearchEngine(case.database)
    engine.define_view("fleet", case.view_text)
    return BackgroundHTTPServing(
        engine, ServerConfig(warm_views=("fleet",), workers=2)
    )


@pytest.mark.parametrize("seed", _seed_matrix())
def test_cold_process_warms_entirely_from_peer(seed, tmp_path):
    context = f"seed={seed}"
    with PeerProcess(seed, tmp_path / "peer-store") as peer:
        # The cold fleet member: identical content, fresh everything,
        # an *empty* local snapshot directory — warmth can only come
        # over the wire.
        case = generate_case(seed)
        store = NetworkedSkeletonStore(
            tmp_path / "cold-store",
            HTTPSnapshotPeer(peer.url, timeout=30.0),
            mmap_mode=True,
        )
        engine = KeywordSearchEngine(case.database, snapshot_store=store)
        engine.define_view("fleet", case.view_text)
        case.database.reset_access_counters()
        serving = BackgroundHTTPServing(
            engine, ServerConfig(warm_views=("fleet",), workers=2)
        )
        serving.start()
        reference = _reference_serving(generate_case(seed))
        reference.start()
        try:
            report = serving.server.startup_warmup
            targets = len(report.targets)
            _check(targets > 0, context, "warm-up planned no targets")
            _check(
                report.restored_count == targets,
                context,
                f"expected every target restored from the peer, got "
                f"{report.as_dict()}",
            )
            _check(
                report.fetched == targets
                and report.fetch_failed == 0
                and report.fell_back == 0,
                context,
                f"fetch counters off: {report.as_dict()}",
            )
            _check(
                _path_probes(case.database) == 0,
                context,
                "peer-warmed startup performed path-index probes",
            )
            _assert_wire_identical(serving.url, reference.url, case, context)
            _check(
                _path_probes(case.database) == 0,
                context,
                "first-contact fleet queries performed path-index probes",
            )
        finally:
            reference.stop()
            serving.stop()


@pytest.mark.parametrize("seed", _seed_matrix()[:1])
def test_peer_killed_mid_warmup_falls_back_and_still_serves(seed, tmp_path):
    # starjoin is a three-document shape: the peer dies after serving
    # one snapshot, leaving two fetches to fail on a dead socket.
    shape = "starjoin"
    context = f"seed={seed} shape={shape} (peer killed mid-warm-up)"
    with PeerProcess(
        seed, tmp_path / "peer-store", shape=shape, max_snapshot_requests=1
    ) as peer:
        case = generate_case(seed, shape)
        store = NetworkedSkeletonStore(
            tmp_path / "cold-store",
            HTTPSnapshotPeer(peer.url, timeout=5.0, retries=1, backoff=0.01),
            mmap_mode=True,
        )
        engine = KeywordSearchEngine(case.database, snapshot_store=store)
        engine.define_view("fleet", case.view_text)
        serving = BackgroundHTTPServing(
            engine, ServerConfig(warm_views=("fleet",), workers=2)
        )
        serving.start()  # must not raise: the fleet survives a dead peer
        reference = _reference_serving(generate_case(seed, shape))
        reference.start()
        try:
            report = serving.server.startup_warmup
            _check(
                len(report.targets) == 3,
                context,
                f"expected a 3-document shape, got {report.as_dict()}",
            )
            _check(
                report.failed_count == 0
                and report.restored_count + report.built_count
                == len(report.targets),
                context,
                f"every target must warm one way or the other: "
                f"{report.as_dict()}",
            )
            _check(
                report.built_count > 0,
                context,
                "the dead peer cannot have restored everything: "
                f"{report.as_dict()}",
            )
            _check(
                report.fetch_failed > 0 and report.fell_back > 0,
                context,
                f"counters must prove the network path broke: "
                f"{report.as_dict()}",
            )
            _check(
                serving.server.running, context, "server failed to start"
            )
            _assert_wire_identical(serving.url, reference.url, case, context)
        finally:
            reference.stop()
            serving.stop()
