"""The HTTP front end: typed error mapping and pagination boundaries.

Two layers of test double:

* The **error matrix** calls the ASGI app directly (no sockets) against
  a server whose ``search`` is stubbed to return each ``Overloaded``
  reason / raise each engine error — asserting the exact documented
  status code and JSON error body for every row of
  ``OVERLOAD_STATUS`` / ``ENGINE_ERROR_STATUS``.
* The **pagination tests** run the full stack — engine → SearchServer →
  SearchAPI → HTTPServingEndpoint → a real socket — through
  ``BackgroundHTTPServing``, the same wiring the fleet uses.
"""

from __future__ import annotations

import asyncio
import base64
import json
import socket
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.snapshot import SkeletonStore
from repro.errors import (
    CoordinatorClosedError,
    DocumentNotFoundError,
    InjectedFaultError,
    InvalidKeywordError,
    ReproError,
    ShardUnavailableError,
    ShardingError,
    StaleViewError,
    StorageError,
    UnsupportedQueryError,
    ViewDefinitionError,
    XQuerySyntaxError,
)
from repro.serving import (
    BackgroundHTTPServing,
    ENGINE_ERROR_STATUS,
    OVERLOAD_STATUS,
    Overloaded,
    REASON_QUEUE_FULL,
    REASON_SERVER_STOPPED,
    REASON_VIEW_SATURATED,
    SearchAPI,
    SearchServer,
    ServerConfig,
)
from repro.serving.http import encode_cursor, _query_tag
from repro.workloads.bookrev import BOOKREV_VIEW, generate_bookrev_database

# -- direct ASGI harness (no sockets) ----------------------------------------


def asgi_request(app, method: str, path: str, body: dict | None = None):
    """One request through the raw ASGI interface; (status, json_body)."""

    async def run():
        raw = json.dumps(body).encode() if body is not None else b""
        scope = {
            "type": "http",
            "method": method,
            "path": path,
            "query_string": b"",
            "headers": [],
        }
        incoming = [
            {"type": "http.request", "body": raw, "more_body": False},
            {"type": "http.disconnect"},
        ]
        sent = []

        async def receive():
            return incoming.pop(0) if incoming else {"type": "http.disconnect"}

        async def send(message):
            sent.append(message)

        await app(scope, receive, send)
        status = sent[0]["status"]
        payload = b"".join(
            m.get("body", b"") for m in sent if m["type"] == "http.response.body"
        )
        headers = dict(sent[0].get("headers", []))
        if headers.get(b"content-type") == b"application/json":
            return status, json.loads(payload)
        return status, payload

    return asyncio.run(run())


def stub_server(result=None, error: BaseException | None = None) -> SearchServer:
    """An unstarted server whose ``search`` yields a canned response."""
    db = generate_bookrev_database(book_count=2, reviews_per_book=1)
    engine = KeywordSearchEngine(db)
    engine.define_view("v", BOOKREV_VIEW)
    server = SearchServer(engine)

    async def scripted_search(*args, **kwargs):
        if error is not None:
            raise error
        return result

    server.search = scripted_search  # type: ignore[method-assign]
    return server


ALL_OVERLOAD_REASONS = (
    REASON_QUEUE_FULL,
    REASON_VIEW_SATURATED,
    REASON_SERVER_STOPPED,
)


class TestOverloadStatusMapping:
    def test_every_reason_has_a_documented_status(self):
        assert set(OVERLOAD_STATUS) == set(ALL_OVERLOAD_REASONS)

    @pytest.mark.parametrize("reason", ALL_OVERLOAD_REASONS)
    def test_overloaded_maps_to_status_and_typed_body(self, reason):
        shed = Overloaded(
            reason=reason, view="v", queue_depth=7, inflight=3, limit=2,
        )
        api = SearchAPI(stub_server(result=shed))
        status, body = asgi_request(
            api, "POST", "/search", {"view": "v", "keywords": ["xml"]}
        )
        assert status == OVERLOAD_STATUS[reason]
        assert status in (429, 503)
        error = body["error"]
        assert error["code"] == reason
        assert error["view"] == "v"
        assert error["queue_depth"] == 7
        assert error["inflight"] == 3
        assert error["limit"] == 2


ENGINE_ERROR_CASES = [
    (StaleViewError("v", ["books.xml"]), 410, "stale_view"),
    (ViewDefinitionError("no such view"), 404, "unknown_view"),
    (UnsupportedQueryError("outside the subset"), 400, "unsupported_query"),
    (XQuerySyntaxError("parse failed"), 400, "query_syntax"),
    (InvalidKeywordError("not one token"), 400, "invalid_keyword"),
    (DocumentNotFoundError("gone.xml"), 404, "document_not_found"),
    (StorageError("bad range"), 500, "storage_error"),
    (ShardUnavailableError("v"), 503, "shards_unavailable"),
    (ShardingError("fragment spans shards"), 500, "sharding_error"),
    (CoordinatorClosedError(), 503, "coordinator_closed"),
    (InjectedFaultError("shard0.collect", 1), 500, "injected_fault"),
    (ReproError("anything else"), 500, "engine_error"),
]


class TestEngineErrorStatusMapping:
    def test_matrix_covers_every_documented_row(self):
        assert [(s, c) for _, s, c in ENGINE_ERROR_STATUS] == [
            (status, code) for _, status, code in ENGINE_ERROR_CASES
        ]

    def test_subclasses_precede_their_bases(self):
        types = [t for t, _, _ in ENGINE_ERROR_STATUS]
        for index, error_type in enumerate(types):
            for later in types[index + 1 :]:
                assert not issubclass(later, error_type) or later is error_type

    @pytest.mark.parametrize(
        "error,status,code",
        ENGINE_ERROR_CASES,
        ids=[code for _, _, code in ENGINE_ERROR_CASES],
    )
    def test_engine_error_maps_to_status_and_code(self, error, status, code):
        api = SearchAPI(stub_server(error=error))
        got_status, body = asgi_request(
            api, "POST", "/search", {"view": "v", "keywords": ["xml"]}
        )
        assert got_status == status
        assert body["error"]["code"] == code
        assert str(error) in body["error"]["message"]


class TestRequestValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"view": "v"},
            {"view": "", "keywords": ["a"]},
            {"view": "v", "keywords": []},
            {"view": "v", "keywords": "xml"},
            {"view": "v", "keywords": [1]},
            {"view": "v", "keywords": ["a"], "page_size": 0},
            {"view": "v", "keywords": ["a"], "page_size": 101},
            {"view": "v", "keywords": ["a"], "page_size": True},
            {"view": "v", "keywords": ["a"], "conjunctive": "yes"},
            {"view": "v", "keywords": ["a"], "cursor": 7},
        ],
    )
    def test_malformed_requests_are_400(self, payload):
        api = SearchAPI(stub_server(result=None))
        status, body = asgi_request(api, "POST", "/search", payload)
        assert status == 400
        assert body["error"]["code"] in ("bad_request", "bad_cursor")

    def test_unknown_route_and_wrong_method(self):
        api = SearchAPI(stub_server())
        assert asgi_request(api, "GET", "/nope")[0] == 404
        assert asgi_request(api, "GET", "/search")[0] == 405
        assert asgi_request(api, "POST", "/health")[0] == 405

    def test_health_reflects_running_state(self):
        server = stub_server()
        api = SearchAPI(server)
        status, body = asgi_request(api, "GET", "/health")
        assert (status, body["running"]) == (503, False)
        server._running = True
        status, body = asgi_request(api, "GET", "/health")
        assert (status, body["running"]) == (200, True)

    def test_stats_and_warmth_show_the_eviction_policy(self):
        from repro.serving.warmup import execute_warmup, plan_warmup

        server = stub_server()
        api = SearchAPI(server)
        status, body = asgi_request(api, "GET", "/stats")
        assert status == 200
        assert body["cache"]["skeleton"]["bypassed"] == 0
        server.startup_warmup = execute_warmup(
            server.engine, plan_warmup(server.engine, ["v"])
        )
        status, body = asgi_request(api, "GET", "/warmth")
        assert body["report"]["views"] == {"v": {"warmed": 2, "resident": 2}}

    def test_snapshot_route_rejects_non_key_names(self, tmp_path):
        server = stub_server()
        server.engine.snapshot_store = SkeletonStore(tmp_path / "snap")
        api = SearchAPI(server)
        for name in ("../../etc/passwd", "x.pdts", "AB-CD.pdts", "a-b"):
            status, _ = asgi_request(api, "GET", f"/snapshots/{name}")
            assert status == 404


# -- full-stack pagination over a real socket --------------------------------


@pytest.fixture(scope="module")
def fleet_serving():
    db = generate_bookrev_database(book_count=60, reviews_per_book=3, seed=5)
    engine = KeywordSearchEngine(db)
    engine.define_view("v", BOOKREV_VIEW)
    serving = BackgroundHTTPServing(
        engine, ServerConfig(warm_views=("v",), workers=2)
    )
    serving.start()
    yield serving
    serving.stop()


def http_post_raw(url: str, data: bytes):
    request = urllib.request.Request(
        url + "/search",
        data=data,
        headers={"content-type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_post(url: str, payload: dict):
    return http_post_raw(url, json.dumps(payload).encode())


MATCHING = {"view": "v", "keywords": ["xml", "search"]}


class TestPaginationOverTheWire:
    def test_cursor_walk_reassembles_the_full_ranking(self, fleet_serving):
        url = fleet_serving.url
        status, one_shot = http_post(
            url, {**MATCHING, "page_size": 100}
        )
        assert status == 200
        total = one_shot["page"]["matching_count"]
        assert 2 < total <= 100, "fixture needs a multi-page result set"
        walked, cursor, pages = [], None, 0
        while True:
            payload = {**MATCHING, "page_size": 2}
            if cursor is not None:
                payload["cursor"] = cursor
            status, page = http_post(url, payload)
            assert status == 200
            assert page["page"]["matching_count"] == total
            walked.extend(page["results"])
            pages += 1
            cursor = page["page"]["next_cursor"]
            if cursor is None:
                break
        assert pages == (total + 1) // 2
        assert walked == one_shot["results"][:total]
        assert [r["rank"] for r in walked] == list(range(1, total + 1))

    def test_empty_page_when_nothing_matches(self, fleet_serving):
        status, body = http_post(
            fleet_serving.url,
            {"view": "v", "keywords": ["zzzznotaword"], "page_size": 5},
        )
        assert status == 200
        assert body["results"] == []
        page = body["page"]
        assert page["returned"] == 0
        assert page["matching_count"] == 0
        assert page["next_cursor"] is None

    def test_past_the_end_cursor_yields_an_empty_page(self, fleet_serving):
        tag = _query_tag("v", ("xml", "search"), True, 2)
        far = encode_cursor(10_000, tag)
        status, body = http_post(
            fleet_serving.url, {**MATCHING, "page_size": 2, "cursor": far}
        )
        assert status == 200
        assert body["results"] == []
        assert body["page"]["offset"] == 10_000
        assert body["page"]["next_cursor"] is None

    @pytest.mark.parametrize(
        "cursor",
        [
            "not base64 at all!!!",
            base64.urlsafe_b64encode(b"not json").decode(),
            base64.urlsafe_b64encode(b"[1,2]").decode(),
            base64.urlsafe_b64encode(b'{"o":-1,"q":"x"}').decode(),
            base64.urlsafe_b64encode(b'{"o":true,"q":"x"}').decode(),
            base64.urlsafe_b64encode(b'{"q":"x"}').decode(),
        ],
    )
    def test_malformed_cursors_rejected_with_400(self, fleet_serving, cursor):
        status, body = http_post(
            fleet_serving.url, {**MATCHING, "page_size": 2, "cursor": cursor}
        )
        assert status == 400
        assert body["error"]["code"] == "bad_cursor"

    def test_cursor_bound_to_its_query(self, fleet_serving):
        status, first = http_post(fleet_serving.url, {**MATCHING, "page_size": 2})
        assert status == 200
        cursor = first["page"]["next_cursor"]
        assert cursor is not None
        for mutated in (
            {"view": "v", "keywords": ["xml"], "page_size": 2},
            {**MATCHING, "page_size": 3},
            {**MATCHING, "page_size": 2, "conjunctive": False},
        ):
            status, body = http_post(
                fleet_serving.url, {**mutated, "cursor": cursor}
            )
            assert status == 400
            assert body["error"]["code"] == "bad_cursor"

    def test_snapshot_bytes_served_verbatim(self, tmp_path):
        db = generate_bookrev_database(book_count=4, reviews_per_book=1)
        store = SkeletonStore(tmp_path / "snap")
        engine = KeywordSearchEngine(db, snapshot_store=store)
        view = engine.define_view("v", BOOKREV_VIEW)
        serving = BackgroundHTTPServing(
            engine, ServerConfig(warm_views=("v",), workers=1)
        )
        serving.start()
        try:
            fingerprint = db.get("books.xml").fingerprint
            qpt_hash = view.qpts["books.xml"].content_hash
            expected = store.read_payload(fingerprint, qpt_hash)
            assert expected is not None
            name = store.entry_name(fingerprint, qpt_hash)
            with urllib.request.urlopen(
                f"{serving.url}/snapshots/{name}", timeout=30
            ) as response:
                assert response.status == 200
                assert response.read() == expected
            missing = store.entry_name("0" * 32, "1" * 32)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{serving.url}/snapshots/{missing}", timeout=30
                )
            assert excinfo.value.code == 404
        finally:
            serving.stop()

    def test_shard_slice_snapshot_served_verbatim(self, tmp_path):
        """A sharded member can seed a peer: an entry in any shard's
        slice is served under the name a plain engine would give it."""
        from repro.core.ingest import ingest_corpus

        docs = {
            f"s{i}": f"<lib><book><title>alpha {i}</title></book></lib>"
            for i in range(4)
        }
        view = "(" + ",".join(
            f"(for $b in fn:doc({name})//book return <hit>{{$b/title}}</hit>)"
            for name in sorted(docs)
        ) + ")"
        coordinator, _ = ingest_corpus(
            docs, {"v": view}, shard_count=3, snapshot_dir=tmp_path
        )
        with coordinator:
            api = SearchAPI(SearchServer(coordinator))
            served = 0
            for executor in coordinator.executors:
                store = executor.engine.snapshot_store
                for entry in store.paths():
                    status, body = asgi_request(
                        api, "GET", f"/snapshots/{entry.name}"
                    )
                    assert (status, body) == (200, entry.read_bytes())
                    served += 1
            assert served == len(docs)
            missing = SkeletonStore.entry_name("0" * 32, "1" * 32)
            status, body = asgi_request(api, "GET", f"/snapshots/{missing}")
            assert status == 404
            assert body["error"]["code"] == "snapshot_not_found"


# -- failure-domain serving: /health, degraded pages, endpoint limits --------


class TestFleetHealthRoute:
    def _api_with_health(self, snapshot):
        server = stub_server()
        server._running = True
        server.engine.health_snapshot = lambda: snapshot
        return SearchAPI(server)

    @staticmethod
    def _snapshot(states):
        return {
            "shards": {
                str(i): {
                    "state": state,
                    "consecutive_failures": 0,
                    "quarantines": 0,
                }
                for i, state in enumerate(states)
            },
            "quarantined": [
                i for i, state in enumerate(states) if state == "open"
            ],
            "serving": sum(1 for state in states if state != "open"),
        }

    def test_plain_engine_keeps_the_historical_shape(self):
        server = stub_server()
        server._running = True
        status, body = asgi_request(SearchAPI(server), "GET", "/health")
        assert (status, body) == (200, {"status": "ok", "running": True})

    def test_all_shards_serving_is_ok(self):
        api = self._api_with_health(self._snapshot(["closed", "closed"]))
        status, body = asgi_request(api, "GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["shards"] == {
            "total": 2, "serving": 2, "quarantined": [],
        }

    def test_quarantined_shard_degrades_but_still_200(self):
        api = self._api_with_health(
            self._snapshot(["closed", "open", "half_open"])
        )
        status, body = asgi_request(api, "GET", "/health")
        assert status == 200
        assert body["status"] == "degraded"
        assert body["shards"] == {
            "total": 3, "serving": 2, "quarantined": [1],
        }

    def test_no_shard_serving_is_503_unavailable(self):
        api = self._api_with_health(self._snapshot(["open", "open"]))
        status, body = asgi_request(api, "GET", "/health")
        assert status == 503
        assert body["status"] == "unavailable"
        assert body["shards"]["serving"] == 0

    def test_stopped_server_trumps_fleet_health(self):
        api = self._api_with_health(self._snapshot(["closed"]))
        api.server._running = False
        status, body = asgi_request(api, "GET", "/health")
        assert (status, body["status"]) == (503, "stopped")


class TestDegradedPage:
    def _served(self, **outcome_kwargs):
        from repro.core.outcome import PhaseTimings, SearchOutcome
        from repro.serving.server import ServeResult

        outcome = SearchOutcome(
            results=[],
            view_size=3,
            matching_count=0,
            idf={},
            timings=PhaseTimings(),
            **outcome_kwargs,
        )
        return ServeResult(
            outcome=outcome,
            view="v",
            keywords=("xml",),
            queue_wait=0.0,
            service_time=0.0,
            latency=0.0,
        )

    def test_degraded_section_is_deterministic_and_scrubbed(self):
        from repro.core.sharding import ShardFailure

        served = self._served(
            degraded=True,
            missing_shards=(2, 0),
            failures=(
                ShardFailure(
                    0, "statistics", "timeout",
                    error="TimeoutError: 0.31415s of wall clock",
                    attempts=2,
                ),
                ShardFailure(
                    2, "ranking", "error",
                    error="OSError: fd 42 went away", attempts=1,
                ),
            ),
        )
        api = SearchAPI(stub_server(result=served))
        status, body = asgi_request(
            api, "POST", "/search", {"view": "v", "keywords": ["xml"]}
        )
        assert status == 200
        assert body["degraded"] == {
            "missing_shards": [0, 2],
            "failures": {
                "0": {"phase": "statistics", "reason": "timeout"},
                "2": {"phase": "ranking", "reason": "error"},
            },
            "top_k_guarantee": False,
        }
        # The diagnostic error strings (timing- and fd-dependent) must
        # never leak into the byte-comparable page.
        assert "wall clock" not in json.dumps(body)
        assert "fd 42" not in json.dumps(body)

    def test_healthy_sharded_outcome_has_no_degraded_key(self):
        api = SearchAPI(stub_server(result=self._served(degraded=False)))
        status, body = asgi_request(
            api, "POST", "/search", {"view": "v", "keywords": ["xml"]}
        )
        assert status == 200
        assert "degraded" not in body


class TestEndpointHardening:
    """Raw-socket abuse against the asyncio bridge: slowloris, oversize
    frames, and the injected bridge-crash fault — all bounded and typed.
    """

    @staticmethod
    def _run(scenario, **endpoint_kwargs):
        from repro.serving.http import HTTPServingEndpoint

        async def app(scope, receive, send):
            await send(
                {
                    "type": "http.response.start",
                    "status": 200,
                    "headers": [(b"content-type", b"application/json")],
                }
            )
            await send({"type": "http.response.body", "body": b"{\"ok\":true}"})

        async def runner():
            endpoint = HTTPServingEndpoint(app, **endpoint_kwargs)
            await endpoint.start()
            try:
                return await scenario(endpoint)
            finally:
                await endpoint.stop()

        return asyncio.run(runner())

    @staticmethod
    def _parse(raw: bytes):
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b"\r\n")[0].split(b" ")[1])
        return status, json.loads(body)

    def test_well_formed_request_still_serves(self):
        async def scenario(endpoint):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", endpoint.port
            )
            writer.write(b"GET /anything HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return raw

        status, body = self._parse(
            self._run(scenario, read_timeout=5.0, max_request_bytes=4096)
        )
        assert (status, body) == (200, {"ok": True})

    def test_slow_client_gets_typed_408(self):
        async def scenario(endpoint):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", endpoint.port
            )
            # Send the request line, then stall mid-headers forever.
            writer.write(b"POST /search HTTP/1.1\r\ncontent-")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return raw

        status, body = self._parse(self._run(scenario, read_timeout=0.2))
        assert status == 408
        assert body["error"]["code"] == "request_timeout"

    def test_oversized_body_gets_typed_413_without_reading_it(self):
        async def scenario(endpoint):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", endpoint.port
            )
            writer.write(
                b"POST /search HTTP/1.1\r\n"
                b"content-length: 99999999\r\n\r\n"
            )
            await writer.drain()
            # No body bytes are ever sent: the reply must not wait for them.
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return raw

        status, body = self._parse(
            self._run(scenario, max_request_bytes=4096)
        )
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"

    def test_unbounded_header_stream_gets_typed_413(self):
        async def scenario(endpoint):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", endpoint.port
            )
            writer.write(b"GET / HTTP/1.1\r\n")
            for i in range(300):
                writer.write(b"x-filler-%d: %s\r\n" % (i, b"y" * 64))
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return raw

        status, body = self._parse(
            self._run(scenario, max_request_bytes=4096)
        )
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"

    def test_injected_bridge_crash_drops_the_connection(self):
        from repro.core.faults import FAULT_ERROR, FaultInjector, FaultPlan

        injector = FaultInjector(
            FaultPlan.single(3, "http.request", FAULT_ERROR)
        )

        async def scenario(endpoint):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", endpoint.port
            )
            writer.write(b"GET /anything HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return raw

        # A bridge crash looks like a dropped connection, not a reply.
        assert self._run(scenario, fault_injector=injector) == b""
        assert injector.call_count("http.request") == 1


# -- typed error, never a dropped connection ---------------------------------


class TestTypedNeverDropped:
    """Requests that used to escape ``SearchAPI`` as a plain exception —
    the client saw ``RemoteDisconnected``, stderr a traceback."""

    @pytest.mark.parametrize("keyword", ["", "a b", "\ud800"])
    def test_bad_keyword_is_a_typed_400_over_the_wire(
        self, fleet_serving, keyword
    ):
        # Each passes request validation (a list of strings) and is
        # refused by normalize_keyword inside the executor.
        status, body = http_post(
            fleet_serving.url, {"view": "v", "keywords": ["xml", keyword]}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_keyword"
        # The member keeps serving.
        assert http_post(fleet_serving.url, MATCHING)[0] == 200

    def test_direct_engine_callers_get_the_typed_error_too(self):
        engine = stub_server().engine
        with pytest.raises(InvalidKeywordError):
            engine.search("v", ("a b",))
        with pytest.raises(ValueError):  # what it was before it was typed
            engine.search("v", ("",))

    def test_deeply_nested_json_is_a_typed_400_over_the_wire(
        self, fleet_serving
    ):
        # Inside the 1 MiB limit; json.loads raises RecursionError.
        status, body = http_post_raw(fleet_serving.url, b"[" * 200000)
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_deeply_nested_cursor_is_a_typed_400(self, fleet_serving):
        cursor = base64.urlsafe_b64encode(b"[" * 200000).decode()
        status, body = http_post(
            fleet_serving.url, {**MATCHING, "cursor": cursor}
        )
        assert status == 400
        assert body["error"]["code"] == "bad_cursor"

    def test_unmapped_exception_is_a_typed_500_without_its_message(self):
        api = SearchAPI(stub_server(error=RuntimeError("secret internals")))
        status, body = asgi_request(
            api, "POST", "/search", {"view": "v", "keywords": ["xml"]}
        )
        assert status == 500
        assert body["error"] == {
            "code": "internal_error",
            "message": "RuntimeError",
        }


# -- the framing we own, fuzzed ----------------------------------------------


async def _echo_app(scope, receive, send):
    """Replies with exactly what the framing handed the app."""
    message = await receive()
    payload = json.dumps(
        {
            "method": scope["method"],
            "path": scope["path"],
            "query": scope["query_string"].decode("latin-1"),
            "headers": [
                [n.decode("latin-1"), v.decode("latin-1")]
                for n, v in scope["headers"]
            ],
            "body": message["body"].hex(),
        }
    ).encode()
    await send(
        {
            "type": "http.response.start",
            "status": 200,
            "headers": [(b"content-type", b"application/json")],
        }
    )
    await send({"type": "http.response.body", "body": payload})


async def _open_client(loop, port: int) -> socket.socket:
    client = socket.socket()
    client.setblocking(False)
    await loop.sock_connect(client, ("127.0.0.1", port))
    client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return client


async def _read_to_eof(loop, client: socket.socket) -> bytes:
    received = b""
    try:
        while data := await loop.sock_recv(client, 65536):
            received += data
    except ConnectionError:
        pass  # reset: the endpoint closed on bytes it had not read
    return received


async def _settle():
    # Single-threaded loop: a few turns let the endpoint's coroutine
    # consume what was just sent before the next chunk goes out, so a
    # chunking really is the sequence of recv()s the server sees.
    for _ in range(4):
        await asyncio.sleep(0)


def exchange(app, chunks, half_close=False, **endpoint_kwargs):
    """Send ``chunks`` one by one to a fresh live endpoint; returns
    ``(response bytes, contexts the loop's exception handler saw)``."""
    from repro.serving.http import HTTPServingEndpoint

    async def runner():
        loop = asyncio.get_running_loop()
        recorded = []
        loop.set_exception_handler(lambda _loop, ctx: recorded.append(ctx))
        endpoint = await HTTPServingEndpoint(app, **endpoint_kwargs).start()
        client = await _open_client(loop, endpoint.port)
        try:
            try:
                for chunk in chunks:
                    await loop.sock_sendall(client, chunk)
                    await _settle()
                if half_close:
                    client.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the endpoint had already answered and closed
            received = await _read_to_eof(loop, client)
        finally:
            client.close()
            await endpoint.stop()
        return received, recorded

    return asyncio.run(asyncio.wait_for(runner(), timeout=30))


_TOKEN = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12)


@st.composite
def valid_requests(draw):
    method = draw(st.sampled_from(["GET", "POST", "PUT", "get"]))
    target = "/" + "/".join(draw(st.lists(_TOKEN, max_size=3)))
    if draw(st.booleans()):
        target += "?" + draw(_TOKEN) + "=" + draw(_TOKEN)
    body = draw(st.binary(max_size=300))
    lines = [f"{method} {target} HTTP/1.1"]
    for name, value in draw(st.lists(st.tuples(_TOKEN, _TOKEN), max_size=4)):
        lines.append(f"x-{name}: {value}")
    if body or draw(st.booleans()):
        lines.insert(
            draw(st.integers(1, len(lines))), f"Content-Length: {len(body)}"
        )
    return "\r\n".join(lines).encode() + b"\r\n\r\n", body


def _content_length_abuse(draw):
    body = b"{}"
    framing = draw(
        st.sampled_from(
            [
                [b"content-length: -2"],
                [b"content-length: two"],
                [b"content-length: +2"],
                [b"content-length: 2", b"content-length: 2"],
                [b"content-length: 2", b"content-length: 3"],
                [b"content-length: 2000"],  # more than is ever sent
                [b"content-length: 99999999"],  # more than the limit
                [b"transfer-encoding: chunked"],
                [b"transfer-encoding: chunked", b"content-length: 2"],
            ]
        )
    )
    if framing[0].startswith(b"transfer-encoding"):
        body = b"2\r\n{}\r\n0\r\n\r\n"
    head = b"\r\n".join([b"POST /search HTTP/1.1", *framing])
    return head + b"\r\n\r\n" + body


@st.composite
def hostile_bytes(draw):
    kind = draw(st.sampled_from(["noise", "truncated", "content-length"]))
    if kind == "noise":
        return draw(st.binary(max_size=400))
    if kind == "content-length":
        return _content_length_abuse(draw)
    head, body = draw(valid_requests())
    whole = head + body
    return whole[: draw(st.integers(0, len(whole) - 1))]


class TestFramingFuzz:
    """ROADMAP 7(b): the HTTP framing is ours now, so it gets fuzzed."""

    @settings(max_examples=40, deadline=None)
    @given(request=valid_requests(), data=st.data())
    def test_any_chunking_yields_the_same_response_bytes(self, request, data):
        head, body = request
        whole = head + body
        expected, recorded = exchange(_echo_app, [whole])
        assert expected.startswith(b"HTTP/1.1 200 OK\r\n") and not recorded
        echoed = json.loads(expected.partition(b"\r\n\r\n")[2])
        assert bytes.fromhex(echoed["body"]) == body
        cuts = sorted(
            data.draw(
                st.lists(st.integers(1, len(whole) - 1), max_size=6, unique=True)
            )
        )
        chunkings = {
            "byte at a time": [whole[i : i + 1] for i in range(len(whole))],
            "head, then body (http.client)": [head, body] if body else [head],
            "drawn cuts": [
                whole[a:b] for a, b in zip([0, *cuts], [*cuts, len(whole)])
            ],
        }
        for name, chunks in chunkings.items():
            got, recorded = exchange(_echo_app, chunks)
            assert got == expected, name
            assert not recorded, name

    @settings(max_examples=60, deadline=None)
    @given(
        payload=hostile_bytes(),
        half_close=st.booleans(),
        split=st.integers(0, 400),
    )
    def test_hostile_bytes_get_a_typed_reply_or_a_bare_close(
        self, payload, half_close, split
    ):
        api = SearchAPI(stub_server())
        chunks = [c for c in (payload[:split], payload[split:]) if c]
        # A reply that needed the timeout arrives within it (the
        # exchange itself is bounded by a 30 s wait_for: never a hang).
        raw, recorded = exchange(
            api,
            chunks,
            half_close=half_close,
            read_timeout=0.05,
            max_request_bytes=4096,
        )
        assert not recorded
        if not raw:
            return  # bare close
        head, separator, body = raw.partition(b"\r\n\r\n")
        assert separator
        status_line, *header_lines = head.split(b"\r\n")
        version, status, _phrase = status_line.split(b" ", 2)
        assert version == b"HTTP/1.1"
        headers = dict(line.split(b": ", 1) for line in header_lines)
        assert headers[b"connection"] == b"close"
        assert int(headers[b"content-length"]) == len(body)
        # Nothing here can reach the engine, so every reply is an error
        # with a machine-readable code.
        assert int(status) in (400, 404, 405, 408, 413)
        assert json.loads(body)["error"]["code"]


class TestEndpointLifecycle:
    """The listening socket is the endpoint's own: what ``stop`` waits
    for, and what it does when ``accept`` itself fails."""

    REQUEST = b"GET /x HTTP/1.1\r\n\r\n"

    @classmethod
    async def _client(cls, loop, port):
        client = await _open_client(loop, port)
        await loop.sock_sendall(client, cls.REQUEST)
        return client

    @staticmethod
    async def _read_all(loop, client):
        try:
            return await _read_to_eof(loop, client)
        finally:
            client.close()

    def test_stop_closes_the_listener_then_waits_for_requests_in_flight(self):
        from repro.serving.http import HTTPServingEndpoint

        async def runner():
            loop = asyncio.get_running_loop()
            release = asyncio.Event()

            async def slow_app(scope, receive, send):
                await release.wait()
                await _echo_app(scope, receive, send)

            endpoint = await HTTPServingEndpoint(slow_app).start()
            client = await self._client(loop, endpoint.port)
            await _settle()  # the app is now parked on the event
            stopper = asyncio.ensure_future(endpoint.stop())
            await _settle()
            assert not stopper.done()
            late = socket.socket()
            late.setblocking(False)
            with pytest.raises(ConnectionRefusedError):
                await loop.sock_connect(late, ("127.0.0.1", endpoint.port))
            late.close()
            release.set()
            await asyncio.wait_for(stopper, timeout=10)
            return await self._read_all(loop, client)

        raw = asyncio.run(asyncio.wait_for(runner(), timeout=30))
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_accept_failure_pauses_the_listener_instead_of_spinning(self):
        import errno

        from repro.serving.http import HTTPServingEndpoint

        class OutOfDescriptors:
            """The listener, with an ``accept`` that fails once."""

            def __init__(self, listener):
                self.listener = listener
                self.accepts = 0

            def accept(self):
                self.accepts += 1
                if self.accepts == 1:
                    raise OSError(errno.EMFILE, "Too many open files")
                return self.listener.accept()

            def __getattr__(self, name):
                return getattr(self.listener, name)

        async def runner():
            loop = asyncio.get_running_loop()
            endpoint = await HTTPServingEndpoint(_echo_app).start()
            flaky = endpoint._listener = OutOfDescriptors(endpoint._listener)
            try:
                client = await self._client(loop, endpoint.port)
                await asyncio.sleep(0.1)
                # The pending connection keeps the listener readable; a
                # listener still polled would have failed again by now.
                assert flaky.accepts == 1
                raw = await asyncio.wait_for(
                    self._read_all(loop, client), timeout=10
                )
                assert flaky.accepts == 2
                return raw
            finally:
                await endpoint.stop()

        raw = asyncio.run(asyncio.wait_for(runner(), timeout=30))
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
