"""One-pass page encoding ≡ serialize-then-encode.

``SearchAPI._page`` writes a search page's JSON text directly, each
result node's XML serialized once per node.  Its bytes must be exactly
what the dict-then-``json`` page was: ``json.dumps(sort_keys=True,
separators=(",", ":"))`` of the dict :func:`expected_page` builds here,
with ``serialize`` called per result.  The cursor helpers are pinned the
same way, and against tokens recorded from the dict-encoding code.

CI re-runs this module under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import math
import sys
import threading

from hypothesis import given, strategies as st

from repro.core.engine import KeywordSearchEngine
from repro.core.outcome import PhaseTimings, SearchOutcome, SearchResult
from repro.core.scoring import ScoredResult
from repro.core.sharding import ShardFailure
from repro.serving import SearchAPI, SearchServer
from repro.serving.http import _query_tag, decode_cursor, encode_cursor
from repro.serving.server import ServeResult
from repro.workloads.bookrev import BOOKREV_VIEW, generate_bookrev_database
from repro.xmlmodel.node import XMLNode
from repro.xmlmodel.serializer import serialize


def _json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def dict_cursor(offset: int, tag: str) -> str:
    """The cursor as the dict-encoding code minted it."""
    return base64.urlsafe_b64encode(_json({"o": offset, "q": tag})).decode("ascii")


def dict_query_tag(view: str, keywords, conjunctive: bool, size: int) -> str:
    identity = _json({"c": conjunctive, "k": list(keywords), "s": size, "v": view})
    return hashlib.sha256(identity).hexdigest()[:16]


def expected_page(served: ServeResult, tag, offset: int, page_size: int) -> bytes:
    """The page as a dict, serialized per result, then encoded."""
    outcome = served.outcome
    page = outcome.results[offset : offset + page_size]
    next_offset = offset + page_size
    reply = {
        "view": served.view,
        "keywords": list(served.keywords),
        "results": [
            {
                "rank": result.rank,
                "score": result.score,
                "index": result.scored.index,
                "xml": serialize(result.pruned),
            }
            for result in page
        ],
        "page": {
            "offset": offset,
            "page_size": page_size,
            "returned": len(page),
            "matching_count": outcome.matching_count,
            "view_size": outcome.view_size,
            "next_cursor": (
                dict_cursor(next_offset, tag)
                if next_offset < outcome.matching_count
                else None
            ),
        },
        "serving": {
            "queue_wait": served.queue_wait,
            "service_time": served.service_time,
            "latency": served.latency,
            "cache_hits": dict(sorted(outcome.cache_hits.items())),
        },
    }
    if outcome.degraded:
        reply["degraded"] = {
            "missing_shards": sorted(int(s) for s in outcome.missing_shards),
            "failures": {
                str(f.shard_id): {"phase": f.phase, "reason": f.reason}
                for f in outcome.failures
            },
            "top_k_guarantee": False,
        }
    return _json(reply)


# -- strategies ----------------------------------------------------------------

# Markup, quotes, backslashes, control characters, non-ASCII (BMP and
# astral) and lone surrogates, mixed with anything else.
HOSTILE = st.sampled_from(
    ["&", "<", ">", '"', "'", "\\", "/", "\x00", "\x01", "\x1f", "\x7f", "\t",
     "\n", " ", "é", "漢", "\U0001f600", "\ud800", "\udfff", "&amp;", "]]>"]
)
TEXT = st.lists(st.one_of(HOSTILE, st.text(max_size=4)), max_size=6).map("".join)
SCORES = st.one_of(
    st.sampled_from([1e-05, 1.0, 0.0, -0.0, 5e-324, 1e16, 0.1, math.nan,
                     math.inf, -math.inf]),
    st.floats(),
)
NATURALS = st.integers(min_value=0, max_value=2**70)


@st.composite
def trees(draw, depth: int = 0) -> XMLNode:
    node = XMLNode(draw(TEXT.filter(bool)), draw(st.none() | TEXT))
    if depth < 3:
        for child in draw(st.lists(trees(depth + 1), max_size=3)):
            node.append(child)
    return node


@st.composite
def served_pages(draw):
    """A served outcome, a cursor tag, an offset and a page size; nodes
    may repeat across results, as memo hits."""
    nodes = draw(st.lists(trees(), min_size=1, max_size=4))
    results = [
        SearchResult(
            rank=draw(NATURALS),
            score=score,
            scored=ScoredResult(draw(NATURALS), draw(st.sampled_from(nodes)), None, score),
        )
        for score in draw(st.lists(SCORES, max_size=8))
    ]
    failures = tuple(
        ShardFailure(shard, phase, reason, error="diagnostic", attempts=1)
        for shard, phase, reason in draw(
            st.lists(st.tuples(st.integers(0, 12), TEXT, TEXT), max_size=4)
        )
    )
    outcome = SearchOutcome(
        results=results,
        view_size=draw(NATURALS),
        matching_count=draw(st.integers(min_value=0, max_value=20)),
        idf={},
        timings=PhaseTimings(),
        cache_hits=draw(st.dictionaries(TEXT, st.sampled_from(["pdt", "skeleton", "miss"]))),
        degraded=draw(st.booleans()),
        missing_shards=tuple(draw(st.lists(st.integers(0, 12), max_size=4))),
        failures=failures,
    )
    served = ServeResult(
        outcome=outcome,
        view=draw(TEXT),
        keywords=tuple(draw(st.lists(TEXT, min_size=1, max_size=3))),
        queue_wait=draw(SCORES),
        service_time=draw(SCORES),
        latency=draw(SCORES),
    )
    offset = draw(st.integers(min_value=0, max_value=len(results) + 2))
    return served, draw(TEXT), offset, draw(st.integers(min_value=1, max_value=100))


# -- the equivalence -------------------------------------------------------------


class TestOnePassPage:
    @given(served_pages())
    def test_page_bytes_equal_serialize_then_encode(self, case):
        served, tag, offset, page_size = case
        api = SearchAPI(None)
        expected = expected_page(served, tag, offset, page_size)
        assert api._page(served, tag, offset, page_size) == expected
        # Again: every node's XML now comes from the memo.
        assert api._page(served, tag, offset, page_size) == expected

    def test_empty_page_past_the_end(self):
        served = ServeResult(
            SearchOutcome([], 7, 3, {}, PhaseTimings()), "v", ("xml",), 0.0, 1e-05, 1.0
        )
        page = SearchAPI(None)._page(served, "ab", 10, 5)
        assert page == expected_page(served, "ab", 10, 5)
        assert b'"results":[]' in page and b'"next_cursor":null' in page

    def test_cursor_page_degraded_with_failures(self):
        node = XMLNode("r", 'a & b < "c"\x01 é')
        results = [
            SearchResult(rank, 1.0 / rank, ScoredResult(rank, node, None, 1.0 / rank))
            for rank in range(1, 4)
        ]
        outcome = SearchOutcome(
            results, 9, 6, {}, PhaseTimings(),
            cache_hits={"d2": "pdt", "d10": "miss"},
            degraded=True, missing_shards=(10, 2),
            failures=(ShardFailure(10, "ranking", "error", "x"),
                      ShardFailure(2, "statistics", "timeout", "y")),
        )
        served = ServeResult(outcome, "v", ("a&b",), math.nan, math.inf, -math.inf)
        page = SearchAPI(None)._page(served, "0123456789abcdef", 1, 2)
        assert page == expected_page(served, "0123456789abcdef", 1, 2)
        body = json.loads(page)
        assert list(body) == ["degraded", "keywords", "page", "results", "serving", "view"]
        assert list(body["degraded"]["failures"]) == ["10", "2"]
        assert decode_cursor(body["page"]["next_cursor"], "0123456789abcdef") == 3


class TestSharedMemo:
    def test_threads_rendering_shared_and_dying_nodes(self):
        """The memo is one weak mapping per process, read and filled by
        every serving loop's thread while result trees die under it:
        eight threads render pages over shared nodes and over fresh
        trees they drop at once, and every page stays exact."""
        shared = [XMLNode(f"s{i}", f"<{i}> & \"{i}\"") for i in range(4)]
        barrier, failures, done = threading.Barrier(8), [], []

        def served(nodes):
            results = [
                SearchResult(rank, rank / 7, ScoredResult(rank, node, None, rank / 7))
                for rank, node in enumerate(nodes, start=1)
            ]
            outcome = SearchOutcome(results, 9, len(results), {}, PhaseTimings())
            return ServeResult(outcome, "v", ("k",), 0.5, 0.25, 0.75)

        def render(worker):
            barrier.wait()
            api = SearchAPI(None)
            for round_ in range(300):
                fresh = XMLNode(f"f{worker}", f"{worker}:{round_}")
                fresh.append(XMLNode("c", f"{round_ % 3}"))  # a parent cycle
                page = served([shared[round_ % 4], fresh, shared[worker % 4]])
                if api._page(page, "t", 0, 10) != expected_page(page, "t", 0, 10):
                    failures.append((worker, round_))
            done.append(worker)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=render, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == list(range(8)) and not failures


class TestCursorBytes:
    @given(NATURALS, TEXT)
    def test_cursor_equals_the_dict_encoding(self, offset, tag):
        assert encode_cursor(offset, tag) == dict_cursor(offset, tag)

    @given(NATURALS, st.text(alphabet="0123456789abcdef", min_size=16, max_size=16))
    def test_dict_encoded_cursors_decode(self, offset, tag):
        # Tags are hex digests (a JSON round trip joins a surrogate pair).
        assert decode_cursor(dict_cursor(offset, tag), tag) == offset

    @given(TEXT, st.lists(TEXT, min_size=1, max_size=4), st.booleans(), NATURALS)
    def test_query_tag_equals_the_dict_encoding(self, view, keywords, conjunctive, size):
        assert _query_tag(view, keywords, conjunctive, size) == dict_query_tag(
            view, keywords, conjunctive, size
        )

    def test_issued_cursors_still_decode(self):
        """Tokens recorded from the dict-encoding code."""
        tag = _query_tag("v", ("xml", "search"), True, 10)
        assert tag == "383c36032ad4d5e1"
        assert encode_cursor(20, tag) == "eyJvIjoyMCwicSI6IjM4M2MzNjAzMmFkNGQ1ZTEifQ=="
        assert decode_cursor("eyJvIjoyMCwicSI6IjM4M2MzNjAzMmFkNGQ1ZTEifQ==", tag) == 20
        tag = _query_tag('café "<&>"', ("naïve", "漢字", "a\x01b"), False, 3)
        assert tag == "968b4532bccfeb6c"
        assert encode_cursor(7, tag) == "eyJvIjo3LCJxIjoiOTY4YjQ1MzJiY2NmZWI2YyJ9"


class TestServedPages:
    def test_real_pages_over_asgi_equal_the_dict_encoding(self):
        """A real engine's outcomes through the ASGI app, first pages and
        cursor pages: ``application/json`` bodies equal to the dict
        encoding of the same ``ServeResult``."""
        engine = KeywordSearchEngine(generate_bookrev_database(book_count=6, reviews_per_book=3))
        engine.define_view("v", BOOKREV_VIEW)
        scope = {"type": "http", "method": "POST", "path": "/search"}

        async def run():
            async with SearchServer(engine) as server:
                api = SearchAPI(server)
                served_results = []
                search = server.search

                async def recording_search(*args, **kwargs):
                    served_results.append(await search(*args, **kwargs))
                    return served_results[-1]

                server.search = recording_search
                checked = 0
                for keywords in (["xml"], ["search", "xml"], ["book"], ["nothing"]):
                    request = {"view": "v", "keywords": keywords, "page_size": 2}
                    while True:
                        sent = []

                        async def receive():
                            return {"type": "http.request", "body": json.dumps(request).encode()}

                        async def send(message):
                            sent.append(message)

                        await api(scope, receive, send)
                        assert dict(sent[0]["headers"])[b"content-type"] == b"application/json"
                        body = json.loads(sent[1]["body"])
                        tag = dict_query_tag("v", keywords, True, 2)
                        offset = body["page"]["offset"]
                        assert sent[1]["body"] == expected_page(served_results[-1], tag, offset, 2)
                        checked += body["page"]["returned"]
                        if body["page"]["next_cursor"] is None:
                            break
                        request["cursor"] = body["page"]["next_cursor"]
                return checked

        assert asyncio.run(asyncio.wait_for(run(), 60)) > 0
