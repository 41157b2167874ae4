"""Seeded inputs for the layered benchmark: documents, views, requests, edits.

Nothing here imports ``repro``: the system under test sees only the XML
text, view text and request stream generated below, so a change to the
repo's own workload generators can never move the benchmark's inputs.
The same seed always gives the same inputs; every seed gives inputs of
the same shape and size, so costs are comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_SEED = 7

# Keyword selectivity classes planted per paragraph (low = frequent).
_PLANT = (
    ("low", 0.35, ("ieee", "computing")),
    ("medium", 0.06, ("thomas", "control")),
    ("high", 0.01, ("moore", "burnett")),
)
_FILLER = (
    "analysis system model data query index structure algorithm performance "
    "distributed parallel network database semantic retrieval document "
    "evaluation design architecture language optimization transaction storage "
    "memory cache protocol schema pattern stream graph logic theory framework "
    "application interface service integration processing scalable efficient "
    "adaptive dynamic static hybrid robust novel approach method technique "
    "experiment result measurement benchmark workload cluster partition "
    "replication consistency availability latency throughput bandwidth "
    "precision recall ranking relevance keyword search view"
).split()
_FIRST = "alice robert wei maria john sofia james elena david yuki peter anna".split()
_LAST = "smith garcia chen mueller tanaka rossi dubois novak silva kumar".split()
_TOPICS = (
    "xml query index search ranking views dewey cache stream shard keyword join"
).split()

INEX_VIEW = """
for $a in fn:doc(authors.xml)/authors//author
return <authorpubs>
   <name> {$a/name} </name>,
   {for $art in fn:doc(articles.xml)/books//article
     where $art/fm/au = $a/name and $art/fm/yr > 1995
     return <pub>
      {$art/fm/atl},
      {$art/bdy}
    </pub>}
</authorpubs>
"""


@dataclass(frozen=True)
class Request:
    """One ``POST /search`` body (``page_size`` stays the server default)."""

    view: str
    keywords: tuple[str, ...]
    conjunctive: bool = True

    def body(self) -> bytes:
        payload = {"view": self.view, "keywords": list(self.keywords)}
        if not self.conjunctive:
            payload["conjunctive"] = False
        return json.dumps(payload, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class Edit:
    """One sub-document edit.

    ``target`` is a Dewey id known from generation (the parent for an
    insert, the element itself for a replace); a delete removes the
    subtree an earlier insert with the same ``handle`` created, because
    only the database knows the id it assigned.
    """

    kind: str  # insert | replace | delete
    doc: str
    target: Optional[str]
    payload: Optional[str]
    handle: Optional[int]
    patchable: bool  # touches a tag no view references


@dataclass
class Workload:
    name: str
    #: ``engine`` (one KeywordSearchEngine), ``engine_store`` (plus an
    #: mmap SkeletonStore) or ``sharded`` (ingest_corpus, 4 shards).
    deployment: str
    documents: dict[str, str]
    view_name: str
    view_text: str
    requests: list[Request]
    #: Requests a client sends between two edits (0 = read-only).
    searches_per_edit: int = 0
    edits: list[Edit] = field(default_factory=list)
    #: Requests each of the two phase-B clients sends per round, and
    #: rounds (each followed by one edit, in an edit workload) per block.
    block_requests: int = 50
    block_rounds: int = 1

    def stream_digest_input(self) -> bytes:
        """Canonical bytes of the request and edit streams (for tests)."""
        lines = [r.body() for r in self.requests]
        lines += [repr(e).encode("utf-8") for e in self.edits]
        return b"\n".join(lines)


# -- INEX-like collection ------------------------------------------------------


def _text(rng: random.Random, words: int) -> str:
    tokens = rng.choices(_FILLER, k=words)
    for _cls, probability, plants in _PLANT:
        if rng.random() < probability:
            tokens.append(rng.choice(plants))
    rng.shuffle(tokens)
    return " ".join(tokens)


@dataclass
class _Inex:
    documents: dict[str, str]
    journal_ids: list[str]
    section_ids: list[str]
    paragraph_ids: list[str]


def _inex(rng: random.Random, scale: int) -> _Inex:
    """articles.xml + authors.xml in the shape of the paper's INEX
    collection (Section 5.1), with the Dewey ids edits will target."""
    authors = []
    while len(authors) < 24 + 6 * scale:
        authors.append(f"{rng.choice(_FIRST)} {rng.choice(_LAST)}{len(authors)}")
    journals, journal_ids, section_ids, paragraph_ids = [], [], [], []
    for j in range(1, 2 * scale + 1):
        journal_ids.append(f"1.{j}")
        parts = [f"<title>journal of {rng.choice(_FILLER)} systems {j}</title>"]
        for a in range(16):
            fno = f"fn{j:03d}{a:02d}"
            has_doi = rng.random() < 0.7
            head = f"<fno>{fno}</fno>" + (f"<doi>10.1234/{fno}</doi>" if has_doi else "")
            hdr = f"<hdr>{_text(rng, 4)}</hdr>" if rng.random() < 0.5 else ""
            fm = (
                f"<fm>{hdr}<au>{rng.choice(authors)}</au><atl>{_text(rng, 5)}</atl>"
                f"<kwd>{_text(rng, 4)}</kwd><yr>{rng.randint(1975, 2005)}</yr></fm>"
            )
            body_id = f"1.{j}.{a + 2}.{4 if has_doi else 3}"
            sections = []
            for s in range(1, 4):
                section_ids.append(f"{body_id}.{s}")
                paragraphs = []
                for p in range(2, 7):
                    paragraph_ids.append(f"{body_id}.{s}.{p}")
                    paragraphs.append(f"<p>{_text(rng, 12)}</p>")
                sections.append(
                    f"<sec><st>{_text(rng, 3)}</st>{''.join(paragraphs)}</sec>"
                )
            bib = "".join(
                f"<bb><au>{rng.choice(authors)}</au><atl>{_text(rng, 4)}</atl>"
                f"<yr>{rng.randint(1975, 2005)}</yr></bb>"
                for _ in range(8)
            )
            parts.append(
                f"<article>{head}{fm}<bdy>{''.join(sections)}<bib>{bib}</bib></bdy></article>"
            )
        journals.append(f"<journal>{''.join(parts)}</journal>")
    groups = []
    for start in range(0, len(authors), 8):
        members = "".join(
            f"<author><name>{name}</name><bio>{_text(rng, 6)}</bio></author>"
            for name in authors[start : start + 8]
        )
        groups.append(
            f"<group><affiliation>{rng.choice(_LAST)}</affiliation>{members}</group>"
        )
    documents = {
        "articles.xml": f"<books>{''.join(journals)}</books>",
        "authors.xml": f"<authors>{''.join(groups)}</authors>",
    }
    return _Inex(documents, journal_ids, section_ids, paragraph_ids)


def _sweep_requests(rng: random.Random, count: int) -> list[Request]:
    """``count`` distinct keyword sets: 1-3 keywords across the three
    selectivity classes and the filler vocabulary, half disjunctive."""
    plants = [word for _cls, _p, words in _PLANT for word in words]
    # A tenth singles (the vocabulary has only 76), the rest split
    # between pairs and triples: the same mix at every seed.
    sizes = [1 if i % 10 == 0 else 2 + i % 2 for i in range(count)]
    seen: set[frozenset[str]] = set()
    requests: list[Request] = []
    while len(requests) < count:
        words = {
            rng.choice(plants) if rng.random() < 0.4 else rng.choice(_FILLER)
            for _ in range(sizes[len(requests)])
        }
        if len(words) < sizes[len(requests)] or frozenset(words) in seen:
            continue
        seen.add(frozenset(words))
        ordered = sorted(words)
        rng.shuffle(ordered)
        requests.append(
            Request("pubs", tuple(ordered), (len(requests) // 2) % 2 == 0)
        )
    return requests


def _warm_point(rng: random.Random) -> Workload:
    inex = _inex(rng, scale=1)
    # One single and one pair per selectivity class; the seed picks the
    # words and the order, the class mix (and so the cost) is fixed.
    requests = []
    for _cls, _p, words in _PLANT:
        pair = list(words)
        rng.shuffle(pair)
        requests.append(Request("pubs", (pair[0],)))
        requests.append(Request("pubs", tuple(pair), conjunctive=False))
    rng.shuffle(requests)
    return Workload(
        "warm_point", "engine", inex.documents, "pubs", INEX_VIEW, requests,
        block_requests=250,
    )


def _keyword_sweep(rng: random.Random) -> Workload:
    inex = _inex(rng, scale=KEYWORD_SWEEP_SCALE)
    return Workload(
        "keyword_sweep", "engine", inex.documents, "pubs", INEX_VIEW,
        _sweep_requests(rng, 600), block_requests=110,
    )


KEYWORD_SWEEP_SCALE = 16


def _library(rng: random.Random, deployment: str, name: str) -> Workload:
    """96 small documents under one per-document-fragment view: more
    ``(view, doc)`` skeleton keys than a single engine's 64-entry tier."""
    documents = {}
    for number in range(96):
        books = []
        for _ in range(rng.randint(4, 8)):
            hot = rng.choice(_TOPICS)
            words = [rng.choice(_TOPICS) for _ in range(rng.randint(6, 30))]
            words += [hot] * rng.randint(0, 6)
            rng.shuffle(words)
            title = " ".join(rng.choice(_TOPICS) for _ in range(3))
            books.append(
                f"<book><title>{title}</title><body>{' '.join(words)}</body></book>"
            )
        documents[f"doc{number:03d}"] = f"<lib>{''.join(books)}</lib>"
    fragments = [
        f"(for $b in fn:doc({doc})//book return <hit>{{$b/title}}{{$b/body}}</hit>)"
        for doc in sorted(documents)
    ]
    requests = [Request("lib", (topic,)) for topic in _TOPICS]
    requests += [
        Request("lib", (first, second))
        for i, first in enumerate(_TOPICS)
        for second in _TOPICS[i + 1 :]
    ]
    rng.shuffle(requests)
    return Workload(
        name, deployment, documents, "lib", "(" + ",\n".join(fragments) + ")",
        requests, block_requests=11 if deployment == "engine" else 20,
    )


def _edit_mix(rng: random.Random) -> Workload:
    inex = _inex(rng, scale=3)
    edits: list[Edit] = []
    inserted: dict[bool, int] = {}  # the live insert's handle, per kind
    for number in range(EDIT_COUNT):
        patchable = number % 2 == 0
        # Insert, (replace,) delete in turn, so the document neither
        # grows nor shrinks over a run of any length.
        step = (number // 2) % (2 if patchable else 3)
        if step == 0:
            parent = rng.choice(inex.journal_ids if patchable else inex.section_ids)
            tag = "zaux" if patchable else "p"
            inserted[patchable] = number
            edits.append(
                Edit("insert", "articles.xml", parent,
                     f"<{tag}>{_text(rng, 12)}</{tag}>", number, patchable)
            )
        elif step == 1 and not patchable:
            edits.append(
                Edit("replace", "articles.xml", rng.choice(inex.paragraph_ids),
                     f"<p>{_text(rng, 12)}</p>", None, False)
            )
        else:
            edits.append(
                Edit("delete", "articles.xml", None, None,
                     inserted.pop(patchable), patchable)
            )
    return Workload(
        "edit_mix", "engine_store", inex.documents, "pubs", INEX_VIEW,
        _sweep_requests(rng, 240), searches_per_edit=8, edits=edits,
        block_requests=4, block_rounds=EDIT_KIND_CYCLE,
    )


#: The edit stream repeats its kinds (patchable insert/delete, in-view
#: insert/replace/delete) with this period.
EDIT_KIND_CYCLE = 12
#: Edits generated per run; the stream is cycled if a run outlasts it
#: (each cycle's deletes only ever name that cycle's inserts).
EDIT_COUNT = 1200

WORKLOADS = {
    "warm_point": _warm_point,
    "keyword_sweep": _keyword_sweep,
    "cold_corpus": lambda rng: _library(rng, "engine", "cold_corpus"),
    "sharded_fanout": lambda rng: _library(rng, "sharded", "sharded_fanout"),
    "edit_mix": _edit_mix,
}


def generate(name: str, seed: int = DEFAULT_SEED) -> Workload:
    """The named workload's inputs for ``seed``.

    ``cold_corpus`` and ``sharded_fanout`` draw identical inputs from one
    seed: their ``results``/``page`` bytes must agree.
    """
    return WORKLOADS[name](random.Random(seed))
