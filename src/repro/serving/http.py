"""The HTTP wire front end over :class:`SearchServer`.

Three layers, all dependency-free:

* :class:`SearchAPI` — an ASGI 3.0 application speaking JSON.  Routes:

  =====================  ======================================================
  ``POST /search``       Ranked keyword search with cursor pagination.
  ``GET /health``        Liveness: 200 while accepting traffic, 503 stopped.
  ``GET /warmth``        The startup :class:`WarmupReport` (what is pre-warm,
                         and per view how much of it stayed resident).
  ``GET /stats``         The server's consistent counter snapshot (per cache
                         tier: hits, misses, evictions, ``bypassed``).
  ``GET /snapshots/<e>`` One skeleton snapshot's v2 wire bytes, verbatim —
                         the serving side of the fleet peer protocol
                         (:mod:`repro.core.snapshot_net`).
  =====================  ======================================================

  Every error is typed: each :class:`Overloaded` admission reason and
  each engine error class maps to a documented status code and a JSON
  body ``{"error": {"code", "message", ...}}`` (:data:`OVERLOAD_STATUS`,
  :data:`ENGINE_ERROR_STATUS`), and any other exception is a 500
  ``internal_error`` naming only its class — clients branch on
  machine-readable codes, never on message strings or dropped sockets.

* :class:`HTTPServingEndpoint` — a minimal HTTP/1.1 bridge serving any
  ASGI app on a listening socket it owns: per connection one coroutine
  on ``loop.sock_recv`` / ``sock_sendall`` — one buffered read, the app,
  one write, close.  The container has no ASGI server installed, and the
  fleet path must not grow a dependency for a few dozen lines of framing.

* :class:`BackgroundHTTPServing` — a thread that owns an event loop
  running engine → server → API → endpoint, for synchronous callers
  (benchmarks, difftests, a peer process's ``__main__``).

Pagination is cursor-based: the response's ``page.next_cursor`` is an
opaque token encoding the next offset *and* a digest of the query it
belongs to — replaying it with different keywords/view is a 400, not a
silently wrong page.  Every body is deterministic JSON — sorted keys,
compact separators, ASCII escapes — so two fleet members serving the
same corpus produce byte-identical ``results``/``page`` sections (the
property the fleet difftest asserts).  A search page is written as that
text in one pass (:meth:`SearchAPI._page`), each result node's XML
serialized once per node; every other reply goes through ``_dump``.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import hashlib
import json
import socket
import threading
import weakref
from http.client import responses as _REASON_PHRASES
from json.encoder import encode_basestring_ascii
from typing import Any, Awaitable, Callable, Optional

from repro.core.faults import FaultInjector
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
from repro.serving.admission import (
    Overloaded,
    REASON_QUEUE_FULL,
    REASON_SERVER_STOPPED,
    REASON_VIEW_SATURATED,
)
from repro.serving.server import SearchServer, ServeResult
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.serializer import serialize

#: Admission rejections: queue-wide conditions are 503 (the replica is
#: the problem — fail over), per-view saturation is 429 (this traffic
#: class is the problem — back off).
OVERLOAD_STATUS: dict[str, int] = {
    REASON_QUEUE_FULL: 503,
    REASON_VIEW_SATURATED: 429,
    REASON_SERVER_STOPPED: 503,
}

#: Engine errors, most-specific class first (``isinstance`` walks this
#: in order, so a subclass must precede its base): what went wrong →
#: (status, machine-readable code).
ENGINE_ERROR_STATUS: tuple[tuple[type, int, str], ...] = (
    (StaleViewError, 410, "stale_view"),
    (ViewDefinitionError, 404, "unknown_view"),
    (UnsupportedQueryError, 400, "unsupported_query"),
    (XQuerySyntaxError, 400, "query_syntax"),
    (InvalidKeywordError, 400, "invalid_keyword"),
    (DocumentNotFoundError, 404, "document_not_found"),
    (StorageError, 500, "storage_error"),
    (ShardUnavailableError, 503, "shards_unavailable"),
    (ShardingError, 500, "sharding_error"),
    (CoordinatorClosedError, 503, "coordinator_closed"),
    (InjectedFaultError, 500, "injected_fault"),
    (ReproError, 500, "engine_error"),
)

_MAX_BODY_BYTES = 1 << 20  # requests are small JSON; 1 MiB is generous
_RECV_BYTES = 1 << 16  # one recv holds any request the fleet sends
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_STR = encode_basestring_ascii
_INT = int.__repr__
_REPR = float.__repr__
#: ``json``'s spellings of what ``float.__repr__`` writes as these.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Each served result node's canonical XML, serialized and JSON-escaped
#: once.  The node is shared and never written (the evaluated entry
#: owns it), and the key is weak, so an entry lives exactly as long as
#: its node.
_XML_JSON: "weakref.WeakKeyDictionary[XMLNode, str]" = weakref.WeakKeyDictionary()

#: The last page's ``serving.cache_hits`` map — a copy nothing writes,
#: and its JSON text — since a repeated query reports the map it
#: reported last time.  One pair, rebound whole and read once, so no
#: thread pairs one map with another's text.
_HIT_MAP_JSON: tuple[dict, str] = ({}, "")


def _dump(payload: Any) -> bytes:
    """Deterministic JSON bytes — the fleet difftest compares these."""
    return _ENCODE(payload).encode("utf-8")


def _float(value: float) -> str:
    """``value`` as ``json`` writes a float (``allow_nan``)."""
    text = _REPR(value)
    return _NON_FINITE.get(text, text)


def _hit_map_json(hits: dict[str, str]) -> str:
    """The members of the ``cache_hits`` object, sorted by document,
    from the memo when ``hits`` is the map it holds."""
    global _HIT_MAP_JSON
    memo = _HIT_MAP_JSON
    if memo[0] == hits:
        return memo[1]
    copy = dict(hits)
    text = ",".join(_STR(doc) + ":" + _STR(hit) for doc, hit in sorted(copy.items()))
    _HIT_MAP_JSON = (copy, text)
    return text


def _xml_json(node: XMLNode) -> str:
    """``node``'s canonical XML as a JSON string, from the memo."""
    text = _XML_JSON.get(node)
    if text is None:
        text = _XML_JSON[node] = _STR(serialize(node))
    return text


class _RequestTooLarge(ValueError):
    """A request (headers or framed body) exceeded the endpoint's limit."""


class _HTTPReply(Exception):
    """Internal control flow: unwind to one response — its encoded body
    and the content type that body is."""

    def __init__(
        self, status: int, body: bytes, content_type: bytes = b"application/json"
    ):
        super().__init__(status)
        self.status = status
        self.body = body
        self.content_type = content_type


def _json_reply(status: int, payload: dict) -> _HTTPReply:
    return _HTTPReply(status, _dump(payload))


def _error_reply(status: int, code: str, message: str, **extra) -> _HTTPReply:
    error = {"code": code, "message": message}
    error.update(extra)
    return _json_reply(status, {"error": error})


def _query_tag(view: str, keywords, conjunctive: bool, size: int) -> str:
    """Digest binding a cursor to the query that minted it: the sha256
    of ``{"c","k","s","v"}`` as sorted compact JSON."""
    identity = '{"c":%s,"k":[%s],"s":%s,"v":%s}' % (
        "true" if conjunctive else "false",
        ",".join(map(_STR, keywords)),
        _INT(size),
        _STR(view),
    )
    return hashlib.sha256(identity.encode("ascii")).hexdigest()[:16]


def encode_cursor(offset: int, tag: str) -> str:
    """The opaque token for ``offset``: ``{"o","q"}`` as sorted compact
    JSON, URL-safe base64."""
    token = '{"o":%s,"q":%s}' % (_INT(offset), _STR(tag))
    return base64.urlsafe_b64encode(token.encode("ascii")).decode("ascii")


def decode_cursor(cursor: str, tag: str) -> int:
    """The offset a cursor carries; raises 400 on anything off.

    Malformed base64/JSON, a non-dict, a bad offset, and a cursor
    minted for a *different* query (tag mismatch) are all rejected the
    same way — an opaque token the client altered or misapplied.
    """
    try:
        token = json.loads(base64.urlsafe_b64decode(cursor.encode("ascii")))
    except (ValueError, binascii.Error, RecursionError):
        token = None
    offset = token.get("o") if isinstance(token, dict) else None
    if (
        not isinstance(offset, int)
        or isinstance(offset, bool)
        or offset < 0
        or token.get("q") != tag
    ):
        raise _error_reply(400, "bad_cursor", "cursor is not valid for this query")
    return offset


def _degraded_json(outcome) -> str:
    """The ``degraded`` section (keys sorted): phase and reason only —
    no timing-dependent diagnostic strings — so two replicas dropping
    the same shards write byte-identical sections."""
    failures = {str(f.shard_id): (f.phase, f.reason) for f in outcome.failures}
    return '{"failures":{%s},"missing_shards":[%s],"top_k_guarantee":false}' % (
        ",".join(
            '%s:{"phase":%s,"reason":%s}' % (_STR(shard), _STR(phase), _STR(reason))
            for shard, (phase, reason) in sorted(failures.items())
        ),
        ",".join(map(_INT, sorted(int(s) for s in outcome.missing_shards))),
    )


class SearchAPI:
    """ASGI 3.0 application over one :class:`SearchServer`.

    The app only serves ``"http"`` scopes; the caller starts and stops
    the server (:class:`BackgroundHTTPServing` does both).
    """

    def __init__(self, server: SearchServer):
        self.server = server
        #: Results returned per page when the request does not say.
        self.default_page_size = 10
        self.max_page_size = 100

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] != "http":  # pragma: no cover - lifespan, ws etc.
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")
        try:
            reply = await self._dispatch(scope, receive)
        except _HTTPReply as early:
            reply = early
        except Exception as exc:
            # A bug we have not found yet: a typed 500 naming the class (a
            # message may quote internals); the loop's handler logs the rest.
            asyncio.get_running_loop().call_exception_handler(
                {"message": "SearchAPI: unhandled exception", "exception": exc}
            )
            reply = _error_reply(500, "internal_error", type(exc).__name__)
        headers = [(b"content-type", reply.content_type)]
        if reply.status in (429, 503):
            headers.append((b"retry-after", b"1"))
        await send(
            {
                "type": "http.response.start",
                "status": reply.status,
                "headers": headers,
            }
        )
        await send({"type": "http.response.body", "body": reply.body})

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, scope, receive) -> _HTTPReply:
        method = scope["method"].upper()
        path = scope["path"]
        if path == "/search":
            if method != "POST":
                raise _error_reply(405, "method_not_allowed", "POST only")
            request = await self._read_json(receive)
            return await self._search(request)
        if method != "GET":
            raise _error_reply(405, "method_not_allowed", "GET only")
        if path == "/health":
            return self._health()
        if path == "/warmth":
            return self._warmth()
        if path == "/stats":
            return _json_reply(200, self.server.snapshot())
        if path.startswith("/snapshots/"):
            return self._snapshot_bytes(path[len("/snapshots/"):])
        raise _error_reply(404, "not_found", f"no route for {path!r}")

    async def _read_json(self, receive) -> dict:
        chunks: list[bytes] = []
        received = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise _error_reply(400, "bad_request", "client disconnected")
            chunks.append(message.get("body", b""))
            received += len(chunks[-1])
            if received > _MAX_BODY_BYTES:
                raise _error_reply(413, "payload_too_large", "request too large")
            if not message.get("more_body"):
                break
        try:
            request = json.loads(b"".join(chunks) or b"null")
        except (ValueError, RecursionError):  # RecursionError: b"[" * 200000
            raise _error_reply(400, "bad_request", "body is not valid JSON")
        if not isinstance(request, dict):
            raise _error_reply(400, "bad_request", "body must be a JSON object")
        return request

    # -- handlers ------------------------------------------------------------

    def _health(self) -> _HTTPReply:
        """Liveness plus fleet health.

        An engine with no shard health to report (a lone engine's
        ``health_snapshot()`` is empty) keeps the historical
        ``{"status", "running"}`` shape.  Otherwise a ``shards`` section
        from :class:`~repro.core.health.FleetHealth` is added: 200 with
        status ``"ok"`` while every shard serves, 200 ``"degraded"``
        while some are quarantined but at least one still serves (the
        replica can answer, possibly partially), 503 ``"unavailable"``
        when no shard can serve at all — indistinguishable from down,
        so load balancers should fail over.
        """
        running = self.server.running
        if not running:
            return _json_reply(503, {"status": "stopped", "running": False})
        snapshot = self.server.engine.health_snapshot()
        if not snapshot:
            return _json_reply(200, {"status": "ok", "running": True})
        quarantined = sorted(int(s) for s in snapshot["quarantined"])
        serving = snapshot["serving"]
        total = len(snapshot["shards"])
        if serving == 0:
            status, code = "unavailable", 503
        elif quarantined:
            status, code = "degraded", 200
        else:
            status, code = "ok", 200
        return _json_reply(
            code,
            {
                "status": status,
                "running": True,
                "shards": {
                    "total": total,
                    "serving": serving,
                    "quarantined": quarantined,
                },
            },
        )

    def _warmth(self) -> _HTTPReply:
        report = self.server.startup_warmup
        if report is None:
            return _json_reply(200, {"warmed": False})
        return _json_reply(200, {"warmed": True, "report": report.as_dict()})

    def _snapshot_bytes(self, name: str) -> _HTTPReply:
        """The peer protocol: stored wire bytes, verbatim, or 404.

        The entry name *is* the content key
        (:meth:`SkeletonStore.entry_key` parses it); anything not shaped
        like one is a 404 without touching the filesystem — this route
        can never be steered at arbitrary paths.
        """
        key = SkeletonStore.entry_key(name)
        payload = None
        if key is not None:
            payload = self.server.engine.snapshot_payload(*key)
        if payload is None:
            raise _error_reply(404, "snapshot_not_found", f"no snapshot {name!r}")
        return _HTTPReply(200, bytes(payload), b"application/octet-stream")

    async def _search(self, request: dict) -> _HTTPReply:
        view = request.get("view")
        keywords = request.get("keywords")
        if not isinstance(view, str) or not view:
            raise _error_reply(400, "bad_request", "'view' must be a string")
        if (
            not isinstance(keywords, list)
            or not keywords
            or not all(isinstance(k, str) for k in keywords)
        ):
            raise _error_reply(
                400, "bad_request", "'keywords' must be a list of strings"
            )
        conjunctive = request.get("conjunctive", True)
        if not isinstance(conjunctive, bool):
            raise _error_reply(400, "bad_request", "'conjunctive' must be a bool")
        page_size = request.get("page_size", self.default_page_size)
        if (
            not isinstance(page_size, int)
            or isinstance(page_size, bool)
            or not 1 <= page_size <= self.max_page_size
        ):
            raise _error_reply(
                400,
                "bad_request",
                f"'page_size' must be an int in [1, {self.max_page_size}]",
            )
        tag = None  # the query's digest: paid for only when a cursor needs it
        cursor = request.get("cursor")
        offset = 0
        if cursor is not None:
            if not isinstance(cursor, str):
                raise _error_reply(400, "bad_cursor", "'cursor' must be a string")
            tag = _query_tag(view, keywords, conjunctive, page_size)
            offset = decode_cursor(cursor, tag)
        try:
            served = await self.server.search(
                view,
                tuple(keywords),
                top_k=offset + page_size,
                conjunctive=conjunctive,
            )
        except ReproError as exc:
            for error_type, status, code in ENGINE_ERROR_STATUS:
                if isinstance(exc, error_type):
                    raise _error_reply(status, code, str(exc)) from exc
            raise  # pragma: no cover - ENGINE_ERROR_STATUS ends at ReproError
        if isinstance(served, Overloaded):
            raise _error_reply(
                OVERLOAD_STATUS[served.reason],
                served.reason,
                served.describe(),
                view=served.view,
                queue_depth=served.queue_depth,
                inflight=served.inflight,
                limit=served.limit,
            )
        if tag is None and offset + page_size < served.outcome.matching_count:
            tag = _query_tag(view, keywords, conjunctive, page_size)
        return _HTTPReply(200, self._page(served, tag, offset, page_size))

    def _page(
        self, served: ServeResult, tag: Optional[str], offset: int, page_size: int
    ) -> bytes:
        """One page of an outcome ranked to offset+size, written as the
        JSON text of its sorted-key dict (``_dump``'s bytes, in one pass).

        Keys in sorted order: ``degraded`` (only when the outcome is),
        ``keywords``, ``page``, ``results``, ``serving``, ``view``.  A
        result's ``xml`` comes from :data:`_XML_JSON`, the hit map from
        :data:`_HIT_MAP_JSON` when it repeats.  Timings are
        real-clock and deliberately confined to ``serving``.
        """
        outcome = served.outcome
        page = outcome.results[offset : offset + page_size]
        next_offset = offset + page_size
        cursor = "null"
        if next_offset < outcome.matching_count:
            cursor = _STR(encode_cursor(next_offset, tag))
        parts = ["{"]
        if outcome.degraded:
            parts += ['"degraded":', _degraded_json(outcome), ","]
        parts += [
            '"keywords":[',
            ",".join(map(_STR, served.keywords)),
            '],"page":{"matching_count":%s,"next_cursor":%s,"offset":%s,'
            '"page_size":%s,"returned":%s,"view_size":%s},"results":['
            % (
                _INT(outcome.matching_count), cursor, _INT(offset),
                _INT(page_size), _INT(len(page)), _INT(outcome.view_size),
            ),
            ",".join(
                '{"index":%s,"rank":%s,"score":%s,"xml":%s}' % (
                    _INT(result.scored.index), _INT(result.rank),
                    _float(result.score), _xml_json(result.pruned),
                )
                for result in page
            ),
            '],"serving":{"cache_hits":{',
            _hit_map_json(outcome.cache_hits),
            '},"latency":%s,"queue_wait":%s,"service_time":%s},"view":%s}' % (
                _float(served.latency), _float(served.queue_wait),
                _float(served.service_time), _STR(served.view),
            ),
        ]
        return "".join(parts).encode("ascii")


ASGIApp = Callable[[dict, Callable, Callable], Awaitable[None]]


class HTTPServingEndpoint:
    """Serve an ASGI app over HTTP/1.1 on a socket this object owns.

    Deliberately minimal: one request per connection (``Connection:
    close``), bodies framed by ``Content-Length``, no chunked uploads,
    no TLS.  ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  A connection is one coroutine on ``loop.sock_*``:
    one buffered read (head and body usually arrive in the first
    ``recv``), the app, one write of head + payload, close.

    Two client-side failure domains are bounded here, before the ASGI
    app ever runs: a client that trickles its request slower than
    ``read_timeout`` gets a typed 408 (a slowloris must not pin a
    coroutine open forever), and one that frames more than
    ``max_request_bytes`` gets a typed 413 without the body being read.
    Anything malformed — no request line, a head or body cut short, a
    ``content-length`` that is not one plain number — is a bare close.
    ``fault_injector`` (site ``"http.request"``) lets chaos tests crash
    or stall the bridge itself, deterministically.
    """

    def __init__(
        self,
        app: ASGIApp,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: float = 10.0,
        max_request_bytes: int = _MAX_BODY_BYTES,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.app = app
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.max_request_bytes = max_request_bytes
        self._faults = fault_injector
        self._listener: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: set["asyncio.Task[None]"] = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "HTTPServingEndpoint":
        if self._listener is not None:
            raise RuntimeError("endpoint already started")
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server((self.host, self.port), family=family)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._listen()
        return self

    async def stop(self) -> None:
        """Close the listener, then wait for the connections in flight."""
        if self._listener is None:
            return
        self._loop.remove_reader(self._listener.fileno())
        self._listener.close()
        self._listener = None
        await asyncio.gather(*self._connections, return_exceptions=True)

    def _listen(self) -> None:
        if self._listener is not None:
            self._loop.add_reader(self._listener.fileno(), self._accept)

    def _accept(self) -> None:
        """The listener is readable: one connection, one coroutine (more
        pending ones keep it readable; no accepting Task to cancel)."""
        try:
            connection, _peer = self._listener.accept()
        except (BlockingIOError, InterruptedError, ConnectionAbortedError):
            return
        except OSError:
            # Out of descriptors: polling a listener we cannot accept
            # from would spin the loop; look again in a second.
            self._loop.remove_reader(self._listener.fileno())
            self._loop.call_later(1.0, self._listen)
            return
        connection.setblocking(False)
        task = self._loop.create_task(self._serve(self._loop, connection))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    @staticmethod
    def _frame(status: int, headers, payload: bytes) -> bytes:
        """A complete response, head + payload, framed for one write."""
        phrase = _REASON_PHRASES.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {phrase}".encode("latin-1")]
        head += [name + b": " + value for name, value in headers]
        head += [b"content-length: %d" % len(payload), b"connection: close"]
        return b"\r\n".join(head) + b"\r\n\r\n" + payload

    @classmethod
    def _canned_reply(cls, status: int, code: str, message: str) -> bytes:
        """A complete typed JSON error response."""
        body = _dump({"error": {"code": code, "message": message}})
        return cls._frame(status, [(b"content-type", b"application/json")], body)

    async def _serve(self, loop, connection: socket.socket) -> None:
        """One connection: read one request, run the app, write, close."""
        try:
            if self._faults is not None:
                # Off the loop: an injected delay or hang must stall
                # *this* connection only.  An injected error is a bridge
                # crash: the connection drops, as a killed process's would.
                await loop.run_in_executor(None, self._faults.act, "http.request")
            try:
                async with asyncio.timeout(self.read_timeout):
                    scope, body = await self._read_request(loop, connection)
            except TimeoutError:
                reply = self._canned_reply(
                    408,
                    "request_timeout",
                    f"request not received within {self.read_timeout}s",
                )
            except _RequestTooLarge:
                reply = self._canned_reply(
                    413,
                    "payload_too_large",
                    f"request exceeds {self.max_request_bytes} bytes",
                )
            except ValueError:
                return  # malformed: bare close
            else:
                reply = await self._respond(scope, body)
            await loop.sock_sendall(connection, reply)
        except (InjectedFaultError, OSError):
            pass  # injected bridge crash, or the peer is gone: bare close
        finally:
            connection.close()

    async def _respond(self, scope: dict, body: bytes) -> bytes:
        """Run the ASGI app on one request; the framed response bytes."""
        incoming = [{"type": "http.request", "body": body, "more_body": False}]

        async def receive():
            return incoming.pop() if incoming else {"type": "http.disconnect"}

        started: dict[str, Any] = {}
        chunks: list[bytes] = []

        async def send(message):
            if message["type"] == "http.response.start":
                started.update(message)
            elif message["type"] == "http.response.body":
                chunks.append(message.get("body", b""))

        await self.app(scope, receive, send)
        status, headers = started.get("status", 500), started.get("headers", ())
        return self._frame(status, headers, b"".join(chunks))

    async def _read_request(self, loop, connection) -> tuple[dict, bytes]:
        """One request, ``(ASGI scope, body)``, through one buffer: ``recv``
        until the blank line is in it, split the head, take the body from
        what is already there (a further ``recv`` only while it is short).
        ``ValueError`` on anything malformed, an early EOF included."""
        limit = self.max_request_bytes
        buffer = bytearray()

        async def fill() -> None:
            chunk = await loop.sock_recv(connection, _RECV_BYTES)
            if not chunk:
                raise ValueError("connection closed mid-request")
            buffer.extend(chunk)

        scanned = 0  # a byte-at-a-time trickle is scanned once, not n times
        while not 0 <= (head_end := buffer.find(b"\r\n\r\n", scanned)) <= limit:
            if len(buffer) > limit:  # whether or not a blank line is in it
                # Unbounded header streams are the other way a client
                # can feed us forever; same limit, same typed reply.
                raise _RequestTooLarge("headers too large")
            scanned = max(0, len(buffer) - 3)
            await fill()
        request_line, *lines = bytes(buffer[:head_end]).split(b"\r\n")
        method, target, _version = request_line.decode("latin-1").split(" ", 2)
        path, _, query = target.partition("?")
        headers = [
            (name.strip().lower(), value.strip())
            for name, _, value in (line.partition(b":") for line in lines)
        ]
        lengths = {v for n, v in headers if n == b"content-length"} or {b"0"}
        if len(lengths) > 1 or not (length := lengths.pop()).isdigit():
            raise ValueError("content-length is not one plain number")
        if (length := int(length)) > limit:
            raise _RequestTooLarge("body too large")
        body_end = head_end + 4 + length
        while len(buffer) < body_end:
            await fill()
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": method.upper(),
            "path": path,
            "raw_path": target.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "headers": headers,
            "scheme": "http",
        }
        return scope, bytes(buffer[head_end + 4 : body_end])


class BackgroundHTTPServing:
    """Engine → server → API → endpoint on a background event loop.

    The synchronous fleet entry point: benchmarks, the two-process
    difftest's in-process reference, and peer helpers construct one,
    :meth:`start` it (blocks until the socket is bound and warm-up
    finished — or raises what startup raised), talk plain HTTP to
    :attr:`url`, and :meth:`stop` it.
    """

    def __init__(
        self,
        engine,
        config=None,
        host: str = "127.0.0.1",
        port: int = 0,
        startup_timeout: float = 60.0,
    ):
        self.engine = engine
        self.config = config
        self.host = host
        self.port = port
        self.startup_timeout = startup_timeout
        self.server: Optional[SearchServer] = None
        self.api: Optional[SearchAPI] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> str:
        if self._thread is not None:
            raise RuntimeError("already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-http-serving",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(self.startup_timeout):
            raise TimeoutError("HTTP serving did not start in time")
        if self._error is not None:
            self._thread.join()
            self._thread = None
            raise self._error
        return self.url

    def stop(self) -> None:
        if self._thread is None:
            return
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            loop.call_soon_threadsafe(shutdown.set)
        self._thread.join()
        self._thread = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        endpoint: Optional[HTTPServingEndpoint] = None
        try:
            self.server = SearchServer(self.engine, self.config)
            await self.server.start()
            self.api = SearchAPI(self.server)
            endpoint = HTTPServingEndpoint(self.api, self.host, self.port)
            await endpoint.start()
            self.port = endpoint.port
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            await endpoint.stop()
            await self.server.stop()
