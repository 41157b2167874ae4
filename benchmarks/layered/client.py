"""The benchmark's HTTP client: sends, times, checks and counts requests.

Stdlib only.  A request's latency runs from before the TCP connect to
the last byte of the body (the server speaks one request per
connection, so every request pays the connect, as a real client would).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from typing import NamedTuple, Optional

#: Share of a read-only workload's distinct requests re-ranked by a
#: cache-free reference engine.
REFERENCE_SHARE = 0.02
#: In an edit workload, the searches after every Nth edit are re-ranked.
REFERENCE_EVERY_EDITS = 50
#: Rounds (searches + one edit) an edit workload runs before measuring;
#: their responses are the workload's digest.
PRIME_ROUNDS = 10
_HEADERS = {"Content-Type": "application/json"}


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


class Reply(NamedTuple):
    started: float  # perf_counter() just before the connect
    latency: float  # seconds, connect to last byte
    status: int  # 0 when the exchange itself failed
    raw: bytes


def http_call(address: tuple[str, int], method: str, path: str, body: Optional[bytes] = None) -> Reply:
    connection = http.client.HTTPConnection(*address, timeout=60)
    started = time.perf_counter()
    try:
        connection.request(method, path, body=body, headers=_HEADERS if body else {})
        response = connection.getresponse()
        raw = response.read()
        return Reply(started, time.perf_counter() - started, response.status, raw)
    except (OSError, http.client.HTTPException):
        return Reply(started, time.perf_counter() - started, 0, b"")
    finally:
        connection.close()


class Session:
    """One deployment's clients: sends, checks and counts every request.

    Read-only workloads are checked response by response against the
    ``results``/``page`` sections recorded while priming; an edit workload
    has no fixed expectation, so its responses are checked for shape and
    the searches after every ``REFERENCE_EVERY_EDITS``-th edit are
    re-ranked by the cache-free reference engine.
    """

    def __init__(self, deployment, workload):
        self.deployment = deployment
        self.workload = workload
        self.address = (deployment.host, deployment.port)
        self.bodies = [request.body() for request in workload.requests]
        self.expected: Optional[list] = None
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.edits_done = 0
        self.reference_left = 0
        self._lock = threading.Lock()

    def count(self, problem: Optional[str]) -> None:
        """One more operation attempted; failed when ``problem`` says why."""
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(problem)

    def search(self, index: int, reference: bool = False) -> tuple[Reply, Optional[dict]]:
        """Send request ``index``; the reply and its parsed document
        (``None`` when the response was not a correct 200)."""
        index %= len(self.bodies)
        reply = http_call(self.address, "POST", "/search", self.bodies[index])
        with self._lock:
            if self.reference_left > 0:
                self.reference_left -= 1
                reference = True
        problem, document = self._check(index, reply.status, reply.raw, reference)
        self.count(problem)
        return reply, document if problem is None else None

    def count_reply(self, index: int, status: int, raw: bytes) -> None:
        """Check and count a response obtained below the socket."""
        problem, _document = self._check(index, status, raw, False)
        self.count(problem)

    def _check(self, index, status, raw, reference):
        if status != 200:
            return f"request {index}: status {status} {raw[:120]!r}", None
        try:
            document = json.loads(raw)
            sections = [document["results"], document["page"]]
            consistent = sections[1]["returned"] == len(sections[0])
        except (ValueError, KeyError, TypeError):
            return f"request {index}: malformed body {raw[:120]!r}", None
        if not consistent:
            return f"request {index}: page.returned disagrees with results", None
        if self.expected is not None and sections != self.expected[index]:
            return f"request {index}: results/page differ from the primed response", None
        if reference:
            problem = self._against_reference(index, sections[0])
            if problem is not None:
                return problem, None
        return None, document

    def _against_reference(self, index, results) -> Optional[str]:
        ranking = self.deployment.reference_ranking(self.workload.requests[index])
        served = [[r["rank"], r["score"], r["index"]] for r in results]
        if served != ranking:
            return f"request {index}: ranking differs from the cache-free reference engine"
        return None

    def edit(self) -> float:
        """Apply the next edit of the stream; seconds it took."""
        edit = self.workload.edits[self.edits_done % len(self.workload.edits)]
        started = time.perf_counter()
        try:
            self.deployment.apply_edit(edit)
            problem = None
        except Exception as exc:  # a failed write is a failed operation
            problem = f"edit {self.edits_done}: {exc!r}"
        elapsed = time.perf_counter() - started
        self.count(problem)
        self.edits_done += 1
        if self.edits_done % REFERENCE_EVERY_EDITS == 0:
            self.reference_left = self.workload.searches_per_edit
        return elapsed

    # -- priming -----------------------------------------------------------------

    def prime(self) -> None:
        """Fill the caches the way traffic would and fix the digest.

        Read-only: every distinct request once; what came back is what
        every later response must equal.  Edit workload: the first
        ``PRIME_ROUNDS`` rounds, searches and edits both.
        """
        if not self.workload.edits:
            expected = []
            for index in range(len(self.bodies)):
                _reply, document = self.search(index)
                sections = [document["results"], document["page"]] if document else None
                expected.append(sections)
                self.digest.update(canonical(sections))
            self.expected = expected
            return
        cursor = 0
        for _round in range(PRIME_ROUNDS):
            for _ in range(self.workload.searches_per_edit):
                _reply, document = self.search(cursor, reference=True)
                cursor += 1
                sections = [document["results"], document["page"]] if document else None
                self.digest.update(canonical(sections))
            self.edit()

    def verify_sample(self) -> None:
        """Re-rank a fixed share of the distinct requests from scratch."""
        if self.expected is None:
            return
        step = max(1, round(1 / REFERENCE_SHARE))
        for index in range(0, len(self.bodies), step):
            sections = self.expected[index]
            problem = (
                self._against_reference(index, sections[0])
                if sections is not None
                else f"request {index}: no primed response"
            )
            self.count(problem)
